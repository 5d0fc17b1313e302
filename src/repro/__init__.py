"""repro — reproduction of *Diagnosing Estimation Errors in Page Counts
Using Execution Feedback* (Chaudhuri, Narasayya, Ramamurthy; ICDE 2008).

A from-scratch simulated disk-page database engine (storage, executor,
cost-based optimizer) plus the paper's contribution: low-overhead
execution-feedback mechanisms for measuring *distinct page counts* — the
cost-model parameter whose misestimation flips access-method and
join-method decisions.

Quickstart::

    from repro import Session, SingleTableQuery, AccessPathRequest
    from repro.workloads import build_synthetic_database

    db = build_synthetic_database(num_rows=50_000, seed=7)
    session = Session(db)
    # ... see examples/quickstart.py
"""

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.engine import Engine, WorkloadItem
from repro.core import (
    AccessPathRequest,
    FeedbackStore,
    IndexLeafRequest,
    JoinMethodRequest,
    MonitorConfig,
    diagnose,
    exact_dpc,
    exact_join_dpc,
    exact_leaf_dpc,
    measure_clustering,
    recommend_hint,
)
from repro.lifecycle import LifecycleTrace, PlanCache, QueryLifecycle
from repro.optimizer import (
    InjectionSet,
    JoinQuery,
    Optimizer,
    PlanHint,
    SingleTableQuery,
)
from repro.session import ExecutedQuery, Session
from repro.shard import ShardCoordinator
from repro.sql import (
    Between,
    Comparison,
    Conjunction,
    JoinEquality,
    conjunction_of,
    parse_predicate,
    parse_query,
)
from repro.sql.types import SqlType

__version__ = "1.0.0"

__all__ = [
    "AccessPathRequest",
    "Between",
    "ColumnDef",
    "Comparison",
    "Conjunction",
    "Database",
    "Engine",
    "ExecutedQuery",
    "FeedbackStore",
    "IndexDef",
    "InjectionSet",
    "JoinEquality",
    "IndexLeafRequest",
    "JoinMethodRequest",
    "JoinQuery",
    "LifecycleTrace",
    "MonitorConfig",
    "Optimizer",
    "PlanCache",
    "PlanHint",
    "QueryLifecycle",
    "Session",
    "ShardCoordinator",
    "SingleTableQuery",
    "SqlType",
    "TableSchema",
    "WorkloadItem",
    "conjunction_of",
    "diagnose",
    "exact_dpc",
    "exact_join_dpc",
    "exact_leaf_dpc",
    "measure_clustering",
    "parse_predicate",
    "parse_query",
    "recommend_hint",
]
