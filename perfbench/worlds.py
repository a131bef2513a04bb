"""The input generator: runs in its own process, so the measured process
receives only files and its peak RSS is the program's.

For one ``(workload, seed)`` it simulates a hospital, writes it as a CSV
database directory, and writes ``oracle.json``: a fingerprint of the
input (so two runs can prove they saw the same data) and the answers the
workload must reproduce, computed here with the memory backend.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

WORLD_DIR = "world"
STREAM_FILE = "stream.csv"
ORACLE_FILE = "oracle.json"


def simulation_config(workload: str, seed: int, smoke: bool):
    from repro.ehr import SimulationConfig

    if smoke:
        return SimulationConfig.tiny(seed)
    config = SimulationConfig.benchmark(seed)  # world_std
    if workload == "audit_batch":
        config = config.scaled(n_teams=40, n_days=14)  # world_large
    return config


def fingerprint(db, log_rows: list[tuple]) -> dict:
    digest = hashlib.sha256()
    for row in log_rows:
        digest.update(repr(row).encode())
    return {
        "rows": {t.schema.name: len(t) for t in db.tables()},
        "log_sha256": digest.hexdigest(),
    }


def lids_digest(lids) -> str:
    """Order-independent digest of a set of log ids."""
    return hashlib.sha256(repr(sorted(lids)).encode()).hexdigest()


def generate(workload: str, seed: int, stream_rows: int, smoke: bool, workdir: str) -> dict:
    """Write the inputs of one run into ``workdir``; returns the oracle.

    ``stream_rows`` > 0 (``ingest_stream``) holds the last that many log
    rows out of the database directory into ``stream.csv``; replaying
    them in order rebuilds the full log, lid for lid, because the
    simulator numbers accesses in time order.
    """
    from repro.api import AuditConfig, AuditService, restrict_log, save_database
    from repro.ehr import simulate

    db = simulate(simulation_config(workload, seed, smoke)).db
    log_rows = db.table("Log").rows()
    stream = log_rows[len(log_rows) - stream_rows :] if stream_rows else []
    on_disk = db
    if stream:
        kept = {row[0] for row in log_rows[: len(log_rows) - stream_rows]}
        on_disk = restrict_log(db, kept, name=db.name)
    save_database(on_disk, os.path.join(workdir, WORLD_DIR))
    if stream:
        with open(os.path.join(workdir, STREAM_FILE), "w", newline="") as fh:
            writer = csv.writer(fh)
            for lid, date, user, patient in stream:
                writer.writerow([lid, date.isoformat(), user, patient])

    with AuditService.open(db, config=AuditConfig()) as service:
        unexplained = service.unexplained_lids()
    oracle = {
        "workload": workload,
        "seed": seed,
        "fingerprint": fingerprint(db, log_rows),
        "log_rows": len(log_rows),
        "total_rows": db.total_rows(),
        "unexplained": sorted(unexplained),
        "unexplained_sha256": lids_digest(unexplained),
    }
    with open(os.path.join(workdir, ORACLE_FILE), "w") as fh:
        json.dump(oracle, fh)
    return oracle


def load_oracle(workdir: str) -> dict:
    with open(os.path.join(workdir, ORACLE_FILE)) as fh:
        oracle = json.load(fh)
    oracle["unexplained"] = set(oracle["unexplained"])
    return oracle


def load_stream(workdir: str) -> list[tuple]:
    """``(lid, date, user, patient)`` rows of the held-out stream."""
    import datetime as dt

    with open(os.path.join(workdir, STREAM_FILE), newline="") as fh:
        return [
            (int(lid), dt.datetime.fromisoformat(date), user, patient)
            for lid, date, user, patient in csv.reader(fh)
        ]
