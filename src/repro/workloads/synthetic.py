"""The paper's synthetic database (§V-B.1), at configurable scale.

Schema ``T(C1, C2, C3, C4, C5, padding)`` with 100-byte rows; ``C1`` is an
identity column and the clustered index key; ``C2..C5`` are permutations
of ``C1`` spanning the correlation spectrum (see
:mod:`repro.workloads.permutations`); non-clustered indexes exist on each
of ``C2..C5``.  The paper loads 100M rows / 1.45M pages; all the effects
it studies are ratios (selectivity, DPC/P, crossovers), so we default to
100k rows and record the scaling in EXPERIMENTS.md.

``add_synthetic_copy`` creates the join partner ``T1`` ("a copy of table T
... with a clustered index on T1.C1", §V-B.1, Fig. 8).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from repro.catalog.catalog import Database
from repro.catalog.schema import LOAD_SLICE_ROWS, ColumnDef, IndexDef, TableSchema
from repro.common.errors import WorkloadError
from repro.sql.types import SqlType
from repro.storage.disk import DiskParameters
from repro.storage.table import Table
from repro.workloads.permutations import noisy_permutation

#: Noise levels realising the paper's correlation spectrum.
DEFAULT_COLUMN_NOISE: dict[str, float] = {
    "c2": 0.0,  # fully correlated with C1 (C2 = C1)
    "c3": 0.01,  # mildly scattered   (DPC slope ~1.7x the correlated case)
    "c4": 0.03,  # strongly scattered (DPC slope ~3.2x)
    "c5": 1.0,  # uncorrelated (random permutation)
}

#: Column widths chosen so a row is ~100 bytes, as in the paper.
_PADDING_WIDTH = 60


def synthetic_schema(table_name: str = "t") -> TableSchema:
    """``T(c1..c5 INT, padding STR)`` with ~100-byte rows."""
    return TableSchema(
        table_name,
        [
            ColumnDef("c1", SqlType.INT),
            ColumnDef("c2", SqlType.INT),
            ColumnDef("c3", SqlType.INT),
            ColumnDef("c4", SqlType.INT),
            ColumnDef("c5", SqlType.INT),
            ColumnDef("padding", SqlType.STR, width_bytes=_PADDING_WIDTH),
        ],
    )


def iter_synthetic_rows(
    num_rows: int,
    seed: int = 0,
    column_noise: dict[str, float] | None = None,
) -> Iterator[tuple]:
    """Rows of T in C1 order (the clustered bulk-load order), one at a
    time.  The permutation columns stay arrays and are unboxed a loader's
    slice at a time, so a bulk load never holds the table as Python
    objects."""
    if num_rows <= 0:
        raise WorkloadError(f"num_rows must be positive, got {num_rows}")
    noise = dict(DEFAULT_COLUMN_NOISE)
    if column_noise:
        noise.update(column_noise)
    columns = {
        name: noisy_permutation(num_rows, level, seed=seed + index)
        for index, (name, level) in enumerate(sorted(noise.items()))
    }
    pad = "x" * 8  # declared width drives page geometry, not len()
    for start in range(0, num_rows, LOAD_SLICE_ROWS):
        stop = min(start + LOAD_SLICE_ROWS, num_rows)
        yield from zip(
            range(start, stop),
            *(columns[name][start:stop].tolist() for name in ("c2", "c3", "c4", "c5")),
            repeat(pad),
        )


def generate_synthetic_rows(
    num_rows: int,
    seed: int = 0,
    column_noise: dict[str, float] | None = None,
) -> list[tuple]:
    """:func:`iter_synthetic_rows`, as a list."""
    return list(iter_synthetic_rows(num_rows, seed, column_noise))


def build_synthetic_database(
    num_rows: int = 100_000,
    seed: int = 0,
    db_name: str = "synthetic",
    column_noise: dict[str, float] | None = None,
    buffer_pool_pages: int = 262_144,
    disk_params: DiskParameters | None = None,
    with_copy: bool = False,
) -> Database:
    """Build the synthetic database: table ``t`` (+ optional join copy ``t1``).

    ``t`` is clustered on ``c1`` with non-clustered indexes ``ix_c2`` ..
    ``ix_c5``; ``t1`` (when requested) is clustered on ``c1`` with no
    secondary indexes, exactly the Fig. 8 setup.
    """
    database = Database(
        db_name, buffer_pool_pages=buffer_pool_pages, disk_params=disk_params
    )
    rows = iter_synthetic_rows(num_rows, seed=seed, column_noise=column_noise)
    schema = synthetic_schema("t")
    indexes = [
        IndexDef(f"ix_{column}", "t", (column,))
        for column in ("c2", "c3", "c4", "c5")
    ]
    database.load_table(schema, rows, clustered_on=["c1"], indexes=indexes)
    if with_copy:
        add_synthetic_copy(
            database, num_rows, seed=seed, column_noise=column_noise
        )
    return database


def add_synthetic_copy(
    database: Database,
    num_rows: int,
    seed: int = 0,
    table_name: str = "t1",
    column_noise: dict[str, float] | None = None,
) -> Table:
    """Load the Fig. 8 join partner: a copy of T clustered on C1.

    The copy's C2..C5 use the *same noise levels* but independent random
    draws (a fresh seed).  This is what makes "varying the Ci column vary
    the number of pages fetched" (§V-B.1): joining on C2 matches rows at
    correlated positions in both tables (few contiguous inner pages),
    while joining on C5 matches scattered positions (many pages).  An
    exact bit-for-bit copy would make every Ci join degenerate to the C1
    join, because row *i* could only ever match row *i*.
    """
    schema = synthetic_schema(table_name)
    rows = iter_synthetic_rows(
        num_rows, seed=seed + 7919, column_noise=column_noise
    )
    return database.load_table(schema, rows, clustered_on=["c1"])
