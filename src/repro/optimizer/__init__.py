"""Cost-based optimizer: cardinality, page-count models, plans and hints."""

from repro.optimizer.access_paths import AccessPathEnumerator, seek_bounds
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, expected_evaluations
from repro.optimizer.dpc_histogram import DPCHistogram
from repro.optimizer.estimators import PageCountEstimator
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import (
    InjectionSet,
    access_dpc_key,
    cardinality_key,
    join_dpc_key,
)
from repro.optimizer.join_enum import JoinEnumerator
from repro.optimizer.optimizer import JoinQuery, Optimizer, Query, SingleTableQuery
from repro.optimizer.pagecount_model import (
    cardenas_estimate,
    mackert_lohman_estimate,
    yao_estimate,
)
from repro.optimizer.plans import (
    ClusteredRangeScanPlan,
    CountPlan,
    CoveringScanPlan,
    HashJoinPlan,
    IndexIntersectionLeg,
    IndexIntersectionPlan,
    InListSeekPlan,
    IndexSeekPlan,
    INLJoinPlan,
    MergeJoinPlan,
    PlanNode,
    SeqScanPlan,
)

__all__ = [
    "AccessPathEnumerator",
    "CardinalityEstimator",
    "ClusteredRangeScanPlan",
    "CostModel",
    "CountPlan",
    "CoveringScanPlan",
    "DPCHistogram",
    "HashJoinPlan",
    "INLJoinPlan",
    "IndexIntersectionLeg",
    "IndexIntersectionPlan",
    "InListSeekPlan",
    "IndexSeekPlan",
    "InjectionSet",
    "JoinEnumerator",
    "JoinQuery",
    "MergeJoinPlan",
    "Optimizer",
    "PageCountEstimator",
    "PlanHint",
    "PlanNode",
    "Query",
    "SeqScanPlan",
    "SingleTableQuery",
    "access_dpc_key",
    "cardenas_estimate",
    "cardinality_key",
    "expected_evaluations",
    "join_dpc_key",
    "mackert_lohman_estimate",
    "seek_bounds",
    "yao_estimate",
]
