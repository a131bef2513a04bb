"""In-memory relational substrate for explanation-based auditing.

This subpackage stands in for the PostgreSQL instance the paper runs on
(Section 5.1).  It provides exactly the capabilities the auditing system
needs from its DBMS:

* a catalog of typed tables with primary/foreign keys (:mod:`.schema`,
  :mod:`.database`);
* hash-join evaluation of conjunctive path queries with
  ``COUNT(DISTINCT …)`` support counting (:mod:`.executor`);
* optimizer cardinality estimates for the skip-non-selective-paths
  optimization (:mod:`.optimizer`);
* SQL rendering of templates for display (:mod:`.sql`) and CSV interchange
  (:mod:`.csvio`);
* a pluggable SQL storage backend (:mod:`.backend`, :mod:`.dialect`,
  :mod:`.sqlbackend`, :mod:`.drivers`) that compiles the same template
  queries to parameterized SQL — SQLite first — so audits are not capped
  by RAM (see ``docs/architecture.md``).
"""

from .backend import AnyDatabase, AnyTable, Driver, ExecutorProtocol, make_executor
from .database import Database
from .dialect import CompiledQuery
from .drivers import SqliteDriver
from .errors import (
    CapacityError,
    DatabaseError,
    IntegrityError,
    QueryError,
    SchemaError,
    UnknownColumnError,
    UnknownTableError,
)
from .executor import Executor, QueryResult, explain_query
from .optimizer import (
    CardinalityEstimator,
    PlanCache,
    QueryPlan,
    build_plan,
    query_shape,
    shared_plan_cache,
)
from .query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    Literal,
    TupleVar,
    canonical_query_signature,
)
from .schema import Column, ColumnType, ForeignKey, TableSchema
from .sharding import partition_by_patient, shard_of
from .parser import parse_query, template_from_sql
from .sql import render_query, render_query_reduced
from .sqlbackend import (
    SqlDatabase,
    SqlExecutor,
    SqlTable,
    open_sql_database,
    shard_db_path,
)
from .table import Table
from .csvio import load_database, read_table_csv, save_database, write_table_csv

__all__ = [
    "AnyDatabase",
    "AnyTable",
    "AttrRef",
    "CapacityError",
    "CardinalityEstimator",
    "Column",
    "ColumnType",
    "CompiledQuery",
    "Condition",
    "ConjunctiveQuery",
    "Database",
    "DatabaseError",
    "Driver",
    "Executor",
    "ExecutorProtocol",
    "ForeignKey",
    "IntegrityError",
    "Literal",
    "PlanCache",
    "QueryError",
    "QueryPlan",
    "QueryResult",
    "SchemaError",
    "SqlDatabase",
    "SqlExecutor",
    "SqlTable",
    "SqliteDriver",
    "Table",
    "TableSchema",
    "TupleVar",
    "UnknownColumnError",
    "UnknownTableError",
    "build_plan",
    "make_executor",
    "open_sql_database",
    "shard_db_path",
    "canonical_query_signature",
    "explain_query",
    "load_database",
    "partition_by_patient",
    "query_shape",
    "shard_of",
    "shared_plan_cache",
    "parse_query",
    "read_table_csv",
    "render_query",
    "template_from_sql",
    "render_query_reduced",
    "save_database",
    "write_table_csv",
]
