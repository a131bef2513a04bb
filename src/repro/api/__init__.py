"""``repro.api`` — **the** public surface of the auditing system.

Everything an application (the CLI, the examples, a web tier) needs is
importable from here:

* :class:`AuditService` — the one thread-safe service (explain, ingest,
  mine, report) over one database and one engine, with an explicit
  ``open(...)`` lifecycle; :func:`open_service` is the same call as a
  plain function;
* :class:`AuditConfig` — the single frozen config object (log table,
  plan-cache size, alert policy, backend, scan budgets);
* the typed request/response dataclasses of :mod:`repro.api.messages`,
  all JSON-ready via ``to_dict()``, and ``ENDPOINTS``, the declaration
  of the ``/v1/`` routes that serve them;
* :class:`TemplateLibrary` with versioned JSON ``dump``/``load`` so
  mined templates survive process restarts;
* curated re-exports of the building blocks (database substrate, schema
  graph, template builders, miners, group inference, evaluation study)
  so downstream code imports from one place.

Quickstart::

    from repro.api import AuditConfig, AuditService

    with AuditService.open("hospital/") as service:
        print(service.report(limit=10).summary())
        print(service.explain(17).to_dict())

The engine-level classes underneath (``ExplanationEngine``,
``AccessMonitor``, the miners) are imported from :mod:`repro.core` and
:mod:`repro.audit`.
"""

# the explanation-template toolchain
from typing import Any

from ..audit.handcrafted import (
    all_event_user_templates,
    dataset_a_doctor_templates,
    event_group_template,
    event_same_department_template,
    event_user_template,
    group_templates,
    repeat_access_template,
    same_department_templates,
)
from ..audit.nl import describe_careweb_path, with_careweb_description
from ..core.decoration import DecorationMiner, DecorationResult, group_depth_attr
from ..core.edges import EdgeKind, SchemaAttr, SchemaEdge
from ..core.graph import SchemaGraph
from ..core.instance import ExplanationInstance
from ..core.library import LibraryEntry, ReviewStatus, TemplateLibrary
from ..core.mining import (
    BridgedMiner,
    MinedTemplate,
    MiningConfig,
    MiningResult,
    OneWayMiner,
    TwoWayMiner,
)
from ..core.template import ExplanationTemplate
from ..db.csvio import load_database, save_database
from ..db.database import Database
from ..db.errors import CapacityError
from ..db.schema import ColumnType, TableSchema
from ..db.sqlbackend import SqlDatabase, open_sql_database

# evaluation and group inference
from ..evalx.accesses import lids_on_days, restrict_log
from ..evalx.study import CareWebStudy
from ..groups.hierarchy import (
    build_groups_table,
    build_hierarchy,
    hierarchy_from_log,
)
from ..groups.matrix import access_matrix_from_log, similarity_graph
from ..groups.modularity import modularity

# the new unified service surface
from .config import AuditConfig
from .errors import (
    WIRE_VERSION,
    AuditApiError,
    InternalServerError,
    InvalidCursorError,
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    UnsupportedOperationError,
    WireFormatError,
    error_from_wire,
)
from .locks import RWLock
from .messages import (
    ENDPOINTS,
    MINING_ALGORITHMS,
    WIRE_KINDS,
    AccessView,
    AuditReport,
    Endpoint,
    ExplainRequest,
    ExplainResult,
    ExplanationView,
    IngestResult,
    MinedTemplateView,
    MineRequest,
    MineResult,
    PatientReport,
    ScanPage,
    ScanRequest,
    ScanState,
    UnexplainedView,
    assemble_partition,
    assemble_report,
    from_wire,
    jsonable,
    temporal,
    to_wire,
)
from .service import AuditService, GroupsResult, open_service, standard_templates


def __getattr__(name: str) -> Any:
    """Lazy re-exports that would otherwise close an import cycle
    (``evalx.experiments`` builds on this package)."""
    if name == "write_report":
        from ..evalx.reportgen import write_report

        return write_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENDPOINTS",
    "MINING_ALGORITHMS",
    "WIRE_KINDS",
    "WIRE_VERSION",
    "AccessView",
    "AuditApiError",
    "AuditConfig",
    "AuditReport",
    "AuditService",
    "BridgedMiner",
    "CapacityError",
    "CareWebStudy",
    "ColumnType",
    "Database",
    "DecorationMiner",
    "DecorationResult",
    "EdgeKind",
    "Endpoint",
    "ExplainRequest",
    "ExplainResult",
    "ExplanationInstance",
    "ExplanationTemplate",
    "ExplanationView",
    "GroupsResult",
    "IngestResult",
    "InternalServerError",
    "InvalidCursorError",
    "InvalidRequestError",
    "LibraryEntry",
    "MineRequest",
    "MineResult",
    "MinedTemplate",
    "MinedTemplateView",
    "MiningConfig",
    "MiningResult",
    "MethodNotAllowedError",
    "NotFoundError",
    "OneWayMiner",
    "PatientReport",
    "PayloadTooLargeError",
    "RWLock",
    "ReviewStatus",
    "ScanPage",
    "ScanRequest",
    "ScanState",
    "SchemaAttr",
    "SchemaEdge",
    "SchemaGraph",
    "SqlDatabase",
    "TableSchema",
    "TemplateLibrary",
    "TwoWayMiner",
    "UnexplainedView",
    "UnsupportedOperationError",
    "WireFormatError",
    "access_matrix_from_log",
    "all_event_user_templates",
    "assemble_partition",
    "assemble_report",
    "build_groups_table",
    "build_hierarchy",
    "dataset_a_doctor_templates",
    "describe_careweb_path",
    "error_from_wire",
    "event_group_template",
    "event_same_department_template",
    "event_user_template",
    "from_wire",
    "group_depth_attr",
    "group_templates",
    "hierarchy_from_log",
    "jsonable",
    "lids_on_days",
    "load_database",
    "modularity",
    "open_service",
    "open_sql_database",
    "repeat_access_template",
    "restrict_log",
    "same_department_templates",
    "save_database",
    "similarity_graph",
    "standard_templates",
    "temporal",
    "to_wire",
    "with_careweb_description",
    "write_report",
]
