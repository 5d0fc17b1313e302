"""Horizontal sharding: partition-aware storage + scatter-gather execution.

* :mod:`repro.shard.partition` — split a database into N shard-local
  databases (page-aligned range runs, or hash scatter) with the
  partitioning recorded as catalog metadata;
* :mod:`repro.shard.coordinator` — :class:`ShardCoordinator`, an
  :class:`~repro.engine.Engine` that plans once, fans out, gathers,
  merges, and harvests the merged observations into its one
  :class:`~repro.core.feedback.FeedbackStore`.
"""

from repro.shard.coordinator import ShardCoordinator, ShardedExecutedQuery
from repro.shard.partition import (
    check_page_alignment,
    hash_to_shard,
    partition_database,
)

__all__ = [
    "ShardCoordinator",
    "ShardedExecutedQuery",
    "check_page_alignment",
    "hash_to_shard",
    "partition_database",
]
