"""Synthetic analogues of the paper's real-world databases (Table I).

The paper evaluates on four proprietary databases (Book Retailer, Yellow
Pages, Voter data, Products) plus TPC-H.  Those datasets are not
available; what Figures 10 and 11 actually depend on is their *page
geometry* (rows per page, Table I) and the *clustering-ratio spectrum* of
their queryable columns (Fig. 10: CR widely spread, mean 0.56, stddev
0.40).  Each analogue therefore reproduces:

* the Table I rows-per-page via column widths (row counts are scaled down
  ~1000x and recorded in EXPERIMENTS.md — every studied effect is a
  ratio, not an absolute);
* a mix of column types whose on-disk correlation with the clustering key
  spans the CR range: noisy-correlated dates/sequences (low CR),
  block-loaded columns ("per-vendor" loads, Example 1 — mid CR), and
  categorical/uniform columns (high CR).

:func:`build_real_world_databases` returns all five; each table is
clustered on its id with non-clustered indexes on the queryable columns.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.catalog.catalog import Database
from repro.catalog.schema import ColumnDef, IndexDef, TableSchema
from repro.common.errors import WorkloadError
from repro.common.rng import derive_seed, make_numpy_rng
from repro.sql.types import SqlType
from repro.workloads.permutations import block_permutation, noisy_permutation

_EPOCH = datetime.date(2000, 1, 1)


def _dates_from_permutation(perm: np.ndarray, num_days: int) -> list[datetime.date]:
    """Map permutation ranks onto a date range, preserving clustering."""
    size = len(perm)
    return [
        _EPOCH + datetime.timedelta(days=int(perm[i]) * num_days // size)
        for i in range(size)
    ]


@dataclass(frozen=True)
class ColumnSpec:
    """How to generate one column of an analogue dataset.

    ``kind`` selects the generator:

    * ``"id"`` — 0..N-1 in load order (the clustering key);
    * ``"noisy"`` — noisy permutation of 0..N-1 (``param`` = noise);
    * ``"noisy_date"`` — same, mapped onto a ~4-year date range;
    * ``"block"`` — block permutation (``param`` = number of blocks);
    * ``"categorical"`` — uniform ints in [0, param);
    * ``"uniform"`` — uniform ints in [0, N);
    * ``"zipf"`` — Zipf(param)-distributed ints (skewed, TPC-H Z=1);
    * ``"padding"`` — constant filler (width drives page geometry).
    """

    name: str
    kind: str
    param: float = 0.0
    width_bytes: int = 0
    indexed: bool = False

    _KINDS = (
        "id",
        "noisy",
        "noisy_date",
        "block",
        "categorical",
        "uniform",
        "zipf",
        "padding",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise WorkloadError(
                f"unknown column kind {self.kind!r}; valid: {self._KINDS}"
            )

    @property
    def sql_type(self) -> SqlType:
        if self.kind == "noisy_date":
            return SqlType.DATE
        if self.kind == "padding":
            return SqlType.STR
        return SqlType.INT

    def generate(self, num_rows: int, seed: int) -> list[Any]:
        if self.kind == "id":
            return list(range(num_rows))
        if self.kind == "noisy":
            return [int(v) for v in noisy_permutation(num_rows, self.param, seed)]
        if self.kind == "noisy_date":
            perm = noisy_permutation(num_rows, self.param, seed)
            return _dates_from_permutation(perm, num_days=1460)
        if self.kind == "block":
            perm = block_permutation(num_rows, int(self.param), seed)
            return [int(v) for v in perm]
        if self.kind == "categorical":
            rng = make_numpy_rng(seed, "categorical", self.name)
            return [int(v) for v in rng.integers(0, int(self.param), size=num_rows)]
        if self.kind == "uniform":
            rng = make_numpy_rng(seed, "uniform", self.name)
            return [int(v) for v in rng.integers(0, num_rows, size=num_rows)]
        if self.kind == "zipf":
            rng = make_numpy_rng(seed, "zipf", self.name)
            raw = rng.zipf(self.param, size=num_rows)
            return [int(min(v, 10_000)) for v in raw]
        return ["x"] * num_rows  # padding


@dataclass(frozen=True)
class DatasetSpec:
    """One analogue dataset: name, scaled size, and its column mix.

    ``paper_rows_millions`` / ``paper_rows_per_page`` record the Table I
    values the analogue mimics (rows per page is reproduced through the
    padding width; the row count is scaled).
    """

    name: str
    num_rows: int
    columns: tuple[ColumnSpec, ...]
    paper_rows_millions: float
    paper_rows_per_page: int

    def schema(self) -> TableSchema:
        return TableSchema(
            self.name,
            [
                ColumnDef(c.name, c.sql_type, width_bytes=c.width_bytes)
                for c in self.columns
            ],
        )

    def indexed_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.indexed]


def _pad_width(rows_per_page: int, fixed_bytes: int) -> int:
    """Padding width so the row hits the Table I rows-per-page target."""
    from repro.storage.page import ROW_OVERHEAD_BYTES, USABLE_PAGE_BYTES

    target_row = USABLE_PAGE_BYTES // rows_per_page - ROW_OVERHEAD_BYTES
    return max(1, target_row - fixed_bytes)


def default_dataset_specs(scale: float = 1.0) -> list[DatasetSpec]:
    """The four non-TPC-H analogues of Table I (TPC-H lives in tpch.py).

    ``scale`` multiplies the default (already ~1000x-reduced) row counts.
    """

    def rows(base: int) -> int:
        return max(500, int(base * scale))

    return [
        DatasetSpec(
            name="book_retailer",
            num_rows=rows(25_000),
            paper_rows_millions=10.8,
            paper_rows_per_page=27,
            columns=(
                ColumnSpec("id", "id"),
                ColumnSpec("order_date", "noisy_date", 0.05, indexed=True),
                ColumnSpec("ship_date", "noisy_date", 0.25, indexed=True),
                ColumnSpec("customer_id", "uniform", indexed=True),
                ColumnSpec("store_id", "block", 50, indexed=True),
                ColumnSpec("list_price", "uniform"),
                # 5 ints (8B) + 1 date (4B) + padding -> 27 rows/page
                ColumnSpec(
                    "padding", "padding", width_bytes=_pad_width(27, 5 * 8 + 4)
                ),
            ),
        ),
        DatasetSpec(
            name="yellow_pages",
            num_rows=rows(10_000),
            paper_rows_millions=1.0,
            paper_rows_per_page=39,
            columns=(
                ColumnSpec("id", "id"),
                ColumnSpec("zipcode", "block", 400, indexed=True),
                ColumnSpec("category", "categorical", 500, indexed=True),
                ColumnSpec("listing_rank", "noisy", 1.0, indexed=True),
                ColumnSpec("phone", "uniform"),
                ColumnSpec(
                    "padding", "padding", width_bytes=_pad_width(39, 5 * 8)
                ),
            ),
        ),
        DatasetSpec(
            name="voter_data",
            num_rows=rows(20_000),
            paper_rows_millions=4.0,
            paper_rows_per_page=46,
            columns=(
                ColumnSpec("id", "id"),
                ColumnSpec("registration_date", "noisy_date", 0.15, indexed=True),
                ColumnSpec("birth_year", "categorical", 76, indexed=True),
                ColumnSpec("precinct", "block", 800, indexed=True),
                ColumnSpec("party", "categorical", 5),
                ColumnSpec(
                    "padding", "padding", width_bytes=_pad_width(46, 4 * 8 + 4)
                ),
            ),
        ),
        DatasetSpec(
            name="products",
            num_rows=rows(5_600),
            paper_rows_millions=0.56,
            paper_rows_per_page=9,
            columns=(
                ColumnSpec("id", "id"),
                ColumnSpec("listing_date", "noisy_date", 0.35, indexed=True),
                ColumnSpec("category", "categorical", 200, indexed=True),
                ColumnSpec("supplier_id", "block", 120, indexed=True),
                ColumnSpec("unit_price", "uniform"),
                ColumnSpec(
                    "padding", "padding", width_bytes=_pad_width(9, 4 * 8 + 4)
                ),
            ),
        ),
    ]


def load_dataset(
    database: Database, spec: DatasetSpec, seed: int = 0
) -> None:
    """Generate and load one analogue dataset into ``database``."""
    columns = {
        # derive_seed (not builtin hash) so data is process-independent
        c.name: c.generate(spec.num_rows, derive_seed(seed, spec.name, c.name))
        for c in spec.columns
    }
    rows = zip(*(columns[c.name] for c in spec.columns))  # lazy: read in slices
    indexes = [
        IndexDef(f"ix_{spec.name}_{col}", spec.name, (col,))
        for col in spec.indexed_columns()
    ]
    database.load_table(spec.schema(), rows, clustered_on=["id"], indexes=indexes)


def build_real_world_databases(
    scale: float = 1.0, seed: int = 0, include_tpch: bool = True
) -> dict[str, Database]:
    """All real-world analogue databases, keyed by name.

    Each dataset gets its own :class:`Database` (own buffer pool and
    clock), matching the paper's per-database measurements.  TPC-H comes
    from :mod:`repro.workloads.tpch` when ``include_tpch`` is set.
    """
    databases: dict[str, Database] = {}
    for spec in default_dataset_specs(scale):
        database = Database(spec.name)
        load_dataset(database, spec, seed=seed)
        databases[spec.name] = database
    if include_tpch:
        from repro.workloads.tpch import build_tpch_database

        databases["tpch"] = build_tpch_database(
            num_lineitems=max(500, int(30_000 * scale)), seed=seed
        )
    return databases
