"""Hash-partitioning the audited database by patient.

Explanation templates are anchored on the accessing user and the patient
whose record was touched (paper Definition 1: the path starts and ends at
the log row), and every log self-join the template set uses equates the
``Patient`` attribute — so the access log can be hash-partitioned by
patient and each partition explained *shard-locally*: an explanation of a
shard's log row only ever binds that shard's log rows plus the (shared)
clinical event tables.

:func:`partition_by_patient` turns one :class:`~repro.db.database.Database`
into ``n`` shard databases.  Each shard owns a private ``Log``
:class:`~repro.db.table.Table` (with its own hash indexes, distinct
projections, and delta maintenance), while the non-log tables are shared
by reference with the source until the shard reaches its worker process,
which holds its own copy from then on (inherited at fork, or unpickled
under spawn).

The shard function must be stable across processes and Python
invocations (``PYTHONHASHSEED`` randomizes ``hash`` for strings), so it
is CRC32 over the value's string form.
"""

from __future__ import annotations

import zlib
from typing import Any

from .database import Database
from .table import Table


def shard_of(value: Any, n_shards: int) -> int:
    """The shard owning a partition-key value.

    Deterministic across processes and runs (unlike builtin ``hash``,
    which is salted for strings); ``None`` keys deterministically land in
    a shard like any other value.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_shards == 1:
        return 0
    return zlib.crc32(str(value).encode()) % n_shards


def partition_by_patient(
    db: Database,
    n_shards: int,
    log_table: str = "Log",
    patient_attr: str = "Patient",
) -> list[Database]:
    """Split a database into ``n_shards`` shard databases by patient.

    Each shard database holds its own :class:`Table` for ``log_table``
    (rows whose ``patient_attr`` hashes to the shard, insertion order
    preserved) and shares every other table object with the original, by
    reference, until it is handed to a worker process.  The union of the
    shard logs is exactly the original log; shards are disjoint.  Every
    shard's log is a copy, ``n_shards=1`` included.
    """
    log = db.table(log_table)
    patient_i = log.schema.column_index(patient_attr)
    buckets: list[list[tuple]] = [[] for _ in range(n_shards)]
    for row in log.rows():
        buckets[shard_of(row[patient_i], n_shards)].append(row)
    shards: list[Database] = []
    for index in range(n_shards):
        shard_db = Database(name=f"{db.name}#{index}")
        for name in db.table_names():
            if name == log_table:
                shard_log = Table(log.schema)
                shard_log.insert_many(buckets[index])
                shard_db.add_table(shard_log)
            else:
                shard_db.add_table(db.table(name))
        shards.append(shard_db)
    return shards
