"""The one configuration object of the public API.

:class:`AuditConfig` is a single frozen, serializable dataclass that
:meth:`repro.api.AuditService.open` consumes — one place to read a
deployment's layout (log table, backend) and its bounds (plan cache,
scan slices, table rows), one dict to put in a config file.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class AuditConfig:
    """Every tuning knob of an :class:`~repro.api.service.AuditService`.

    Frozen: derive variants with :meth:`replace`, serialize with
    :meth:`to_dict`, rebuild with :meth:`from_dict` (round-trip exact).
    """

    #: Name of the audited log table and its id attribute.
    log_table: str = "Log"
    log_id_attr: str = "Lid"

    #: Maximum number of memoized query plans; the service's LRU
    #: :class:`~repro.db.optimizer.PlanCache` evicts beyond this.
    plan_cache_size: int = 1024

    #: Alert policy: when False, registered alert handlers are never
    #: invoked (unexplained accesses are still counted and reported).
    alert_on_unexplained: bool = True

    #: Resumable-scan budgets (see :meth:`AuditService.scan`): the
    #: default row budget of one scan slice, and an optional wall-clock
    #: quantum in seconds after which a slice suspends early (None means
    #: row-bounded only).  Both can be overridden per request.
    scan_page_rows: int = 512
    scan_quantum_seconds: float | None = None

    #: Storage backend: ``"memory"`` audits inside the in-memory columnar
    #: :class:`~repro.db.table.Table` engine (fastest; log must fit in
    #: RAM); ``"sqlite"`` compiles every explanation query to SQL and
    #: pushes it down to a SQLite database (stdlib ``sqlite3``), lifting
    #: the RAM cap.  Both backends are pinned byte-identical by the
    #: differential suites; see ``docs/architecture.md``.
    backend: str = "memory"
    #: SQLite database file for ``backend="sqlite"``.  None keeps the
    #: database in SQLite's private memory (no file, no restart
    #: survival); a path persists state across process death.  Ignored
    #: by the memory backend.
    db_path: str | None = None
    #: Row cap applied to every in-memory table loaded through the CLI
    #: (the memory backend's explicit RAM ceiling).  Exceeding it raises
    #: :class:`~repro.db.errors.CapacityError`, pointing at the SQLite
    #: backend.  None (default) means uncapped; ignored under
    #: ``backend="sqlite"``.
    max_table_rows: int | None = None

    #: Warm the explained/unexplained aggregates inside ``open()`` (and
    #: after every writer operation), so concurrent readers hit immutable
    #: caches and never race to populate them.  Disable only for
    #: single-threaded, explain-one-access tools that cannot afford the
    #: up-front whole-log pass.
    eager_warm: bool = True

    def __post_init__(self) -> None:
        if not self.log_table:
            raise ValueError("log_table must be non-empty")
        if not self.log_id_attr:
            raise ValueError("log_id_attr must be non-empty")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.scan_page_rows < 1:
            raise ValueError("scan_page_rows must be >= 1")
        if self.backend not in ("memory", "sqlite"):
            raise ValueError("backend must be 'memory' or 'sqlite'")
        if self.max_table_rows is not None and self.max_table_rows < 1:
            raise ValueError("max_table_rows must be >= 1 when given")
        if (
            self.scan_quantum_seconds is not None
            and not self.scan_quantum_seconds > 0
        ):
            raise ValueError("scan_quantum_seconds must be > 0 when given")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "AuditConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; every field is a scalar)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict, strict: bool = True) -> "AuditConfig":
        """Rebuild from :meth:`to_dict` output.

        In strict mode (the default) unknown keys are errors — a
        misspelled knob must not silently fall back to its default.  With
        ``strict=False`` unknown keys are dropped with a warning instead,
        so a config posted by a client built against a newer (or older)
        schema still opens a service with every knob this build knows.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            if strict:
                raise ValueError(
                    f"unknown AuditConfig fields: {unknown} (a misspelled "
                    f"knob would silently fall back to its default; pass "
                    f"strict=False to accept-and-warn on keys from other "
                    f"schema versions)"
                )
            warnings.warn(
                f"ignoring unknown AuditConfig fields: {unknown}",
                stacklevel=2,
            )
            data = {k: v for k, v in data.items() if k in known}
        return cls(**data)
