"""The paper's contribution: execution-feedback distinct page counting."""

from repro.core.ae_estimator import (
    AEEstimator,
    GEEEstimator,
    estimate_distinct_pages_from_sample,
    frequency_profile,
    reservoir_sample,
)
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.core.clustering import (
    ClusteringMeasurement,
    clustering_ratio,
    measure_clustering,
)
from repro.core.diagnostics import (
    DiagnosticLine,
    DiagnosticReport,
    diagnose,
    hint_for_plan,
    recommend_hint,
)
from repro.core.dpc import (
    dpc_bounds,
    exact_dpc,
    exact_join_dpc,
    exact_leaf_dpc,
    satisfies,
)
from repro.core.dpsample import (
    BernoulliPageSampler,
    dpsample,
    dpsample_error_bound,
)
from repro.core.feedback import FeedbackRecord, FeedbackStore
from repro.core.monitors import FetchMonitorBundle, LeafPageMonitor, ScanMonitorBundle
from repro.core.planner import BuildResult, MonitorConfig, build_executable
from repro.core.probabilistic import LinearCounter, recommended_bitmap_bits
from repro.core.requests import (
    AccessPathRequest,
    IndexLeafRequest,
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
    PageCountRequest,
)
from repro.core.selftuning import SelfTuningDPCHistogram

__all__ = [
    "AEEstimator",
    "AccessPathRequest",
    "BernoulliPageSampler",
    "BitVectorFilter",
    "BuildResult",
    "ClusteringMeasurement",
    "DiagnosticLine",
    "DiagnosticReport",
    "FeedbackRecord",
    "FeedbackStore",
    "FetchMonitorBundle",
    "LeafPageMonitor",
    "GEEEstimator",
    "IndexLeafRequest",
    "JoinMethodRequest",
    "LinearCounter",
    "Mechanism",
    "MonitorConfig",
    "PageCountObservation",
    "PageCountRequest",
    "PartialBitVectorFilter",
    "ScanMonitorBundle",
    "SelfTuningDPCHistogram",
    "build_executable",
    "clustering_ratio",
    "diagnose",
    "dpc_bounds",
    "dpsample",
    "dpsample_error_bound",
    "estimate_distinct_pages_from_sample",
    "exact_dpc",
    "exact_join_dpc",
    "exact_leaf_dpc",
    "frequency_profile",
    "hint_for_plan",
    "measure_clustering",
    "recommend_hint",
    "recommended_bitmap_bits",
    "reservoir_sample",
    "satisfies",
]
