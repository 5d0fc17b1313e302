"""Partitioning reads the table by column; the shards it builds did not change.

Every shard database of a range and of a hash partition — page contents,
RIDs, index entries in leaf order, histograms, partition offsets — is
compared against digests recorded at the commit before the table became
its columns (ec38a67), when shards were cut out of a list of row tuples.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.catalog.schema import PartitionSpec
from repro.shard.partition import partition_database
from repro.workloads import build_synthetic_database
from repro.workloads.tpch import build_tpch_database

from tests.storage.test_bulk_load_fingerprint import fingerprint

BUILDERS = {
    "synthetic": lambda: build_synthetic_database(
        num_rows=4_000, seed=2008, with_copy=True
    ),
    "tpch": lambda: build_tpch_database(num_lineitems=3_000, seed=5),
}

#: sha256 over the three shards of each partition at the parent commit.
PARENT_DIGESTS = {
    ("synthetic", "range"): "2c839e5ddc61f972d6a4843b8eab27158b6b0e86478e5744c0762f5a86ef0643",
    ("synthetic", "hash"): "5188f9cab8e9fd2fb75946b54bb108d93adbe348496541802e2252acb444f428",
    ("tpch", "range"): "f8a731cf322a671e0fc33537f3222a9cef2a00d7fd950b12647070b6a687eddc",
    ("tpch", "hash"): "a2ecccb1415a642a2bef1d18c2d6ae5b6a9e18809d4673df6810a9ce59dcec84",
}


@pytest.mark.parametrize("name, strategy", sorted(PARENT_DIGESTS))
def test_shards_are_what_the_parent_commit_built(name, strategy):
    shards = partition_database(
        BUILDERS[name](), PartitionSpec(num_shards=3, strategy=strategy), seed=7
    )
    parts = [
        (
            shard.name,
            shard.shard_index,
            [
                (table.partition.page_offset, table.partition.row_offset)
                for table in shard.tables.values()
            ],
            fingerprint(shard),
        )
        for shard in shards
    ]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == PARENT_DIGESTS[
        (name, strategy)
    ]
