"""repro — Explanation-Based Auditing (Fabbri & LeFevre, VLDB 2011).

A complete, from-scratch reproduction of the paper's system:

* :mod:`repro.db` — the relational substrate (in-memory engine standing in
  for PostgreSQL);
* :mod:`repro.core` — explanation templates, the explanation graph, and
  the one-way / two-way / bridged mining algorithms;
* :mod:`repro.groups` — collaborative-group inference (W = AᵀA +
  weighted-modularity clustering);
* :mod:`repro.ehr` — a synthetic CareWeb-like hospital substituting for
  the University of Michigan Health System data;
* :mod:`repro.audit` — hand-crafted templates, the patient portal, and
  misuse-detection reports;
* :mod:`repro.evalx` — metrics and one experiment per paper figure/table.

The **public API** lives in :mod:`repro.api` — a unified, thread-safe
:class:`~repro.api.AuditService` facade with typed requests/responses and
one :class:`~repro.api.AuditConfig` object::

    from repro.api import AuditService

    with AuditService.open("hospital/") as service:
        print(service.report(limit=10).summary())

The engine-level classes (``ExplanationEngine``, ``AccessMonitor``,
``PatientPortal``, ``ComplianceAuditor``, the miners) are imported from
the subpackages that define them (:mod:`repro.core`, :mod:`repro.audit`).
"""

from .core import (
    DecorationMiner,
    EdgeKind,
    ExplanationInstance,
    ExplanationTemplate,
    MinedTemplate,
    MiningConfig,
    MiningResult,
    Path,
    ReviewStatus,
    SchemaAttr,
    SchemaEdge,
    SchemaGraph,
    SupportConfig,
    SupportEvaluator,
    TemplateLibrary,
)
from .db import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    Database,
    Executor,
    Literal,
    TableSchema,
    TupleVar,
)
from .ehr import SimulationConfig, SimulationResult, simulate
from .evalx import CareWebStudy
from .groups import GroupHierarchy, build_groups_table, hierarchy_from_log

__version__ = "1.0.0"

__all__ = [
    "AttrRef",
    "CareWebStudy",
    "Condition",
    "ConjunctiveQuery",
    "Database",
    "DecorationMiner",
    "EdgeKind",
    "Executor",
    "ExplanationInstance",
    "ExplanationTemplate",
    "GroupHierarchy",
    "Literal",
    "MinedTemplate",
    "MiningConfig",
    "MiningResult",
    "Path",
    "ReviewStatus",
    "SchemaAttr",
    "SchemaEdge",
    "SchemaGraph",
    "SimulationConfig",
    "SimulationResult",
    "SupportConfig",
    "SupportEvaluator",
    "TableSchema",
    "TemplateLibrary",
    "TupleVar",
    "__version__",
    "build_groups_table",
    "hierarchy_from_log",
    "simulate",
]
