"""Tests for permutation families and the synthetic database."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import WorkloadError
from repro.workloads.permutations import (
    block_permutation,
    identity_permutation,
    noisy_permutation,
    permutation_correlation,
)
from repro.workloads.synthetic import (
    DEFAULT_COLUMN_NOISE,
    generate_synthetic_rows,
    synthetic_schema,
)


class TestPermutations:
    def test_identity(self):
        assert identity_permutation(5).tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(WorkloadError):
            identity_permutation(0)

    def test_noise_zero_is_identity(self):
        assert noisy_permutation(100, 0.0).tolist() == list(range(100))

    def test_noise_one_is_shuffle(self):
        perm = noisy_permutation(1000, 1.0, seed=1)
        assert sorted(perm.tolist()) == list(range(1000))
        assert perm.tolist() != list(range(1000))

    def test_noise_fraction_displaced(self):
        perm = noisy_permutation(10_000, 0.1, seed=2)
        displaced = int((perm != np.arange(10_000)).sum())
        assert displaced == pytest.approx(1000, rel=0.15)

    def test_noise_validation(self):
        with pytest.raises(WorkloadError):
            noisy_permutation(10, -0.1)
        with pytest.raises(WorkloadError):
            noisy_permutation(10, 1.1)

    def test_correlation_ordering(self):
        """The correlation must decrease monotonically across the family."""
        correlations = [
            permutation_correlation(noisy_permutation(5000, noise, seed=3))
            for noise in (0.0, 0.05, 0.3, 1.0)
        ]
        assert correlations[0] == pytest.approx(1.0)
        assert correlations == sorted(correlations, reverse=True)
        assert abs(correlations[-1]) < 0.1

    def test_block_permutation_is_permutation(self):
        perm = block_permutation(1000, 40, seed=4)
        assert sorted(perm.tolist()) == list(range(1000))

    def test_block_permutation_contiguous_runs(self):
        perm = block_permutation(100, 10, seed=5)
        # Within each 10-element block the values are consecutive.
        for start in range(0, 100, 10):
            chunk = perm[start : start + 10]
            assert chunk.tolist() == list(range(chunk[0], chunk[0] + 10))

    def test_block_validation(self):
        with pytest.raises(WorkloadError):
            block_permutation(10, 0)
        with pytest.raises(WorkloadError):
            block_permutation(10, 11)

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.integers(2, 500),
        noise=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
    )
    def test_noisy_always_a_permutation(self, size, noise, seed):
        perm = noisy_permutation(size, noise, seed)
        assert sorted(perm.tolist()) == list(range(size))


class TestSyntheticDatabase:
    def test_schema_geometry(self):
        schema = synthetic_schema()
        # 5 ints + padding -> ~100-byte rows, ~73 rows/page as documented.
        assert schema.row_width_bytes == 5 * 8 + 60

    def test_row_generation_deterministic(self):
        first = generate_synthetic_rows(100, seed=6)
        second = generate_synthetic_rows(100, seed=6)
        assert first == second
        assert first != generate_synthetic_rows(100, seed=7)

    def test_column_noise_defaults_span_spectrum(self):
        assert DEFAULT_COLUMN_NOISE["c2"] == 0.0
        assert DEFAULT_COLUMN_NOISE["c5"] == 1.0
        assert 0 < DEFAULT_COLUMN_NOISE["c3"] < DEFAULT_COLUMN_NOISE["c4"] < 1

    def test_database_structure(self, synthetic_db):
        table = synthetic_db.table("t")
        assert table.is_clustered
        assert set(table.indexes) == {"ix_c2", "ix_c3", "ix_c4", "ix_c5"}
        assert table.num_rows == 20_000
        assert table.num_rows / table.num_pages == pytest.approx(73, abs=1)

    def test_c2_equals_c1(self, synthetic_db):
        table = synthetic_db.table("t")
        for row in table.rows_on_page(table.all_page_ids()[0]):
            assert row[1] == row[0]  # c2 == c1

    def test_copy_independently_permuted(self, join_db):
        t = join_db.table("t")
        t1 = join_db.table("t1")
        # Same geometry...
        assert t.num_rows == t1.num_rows
        # ...but c5 differs row-by-row (independent shuffle).
        t_rows = t.rows_on_page(t.all_page_ids()[0])
        t1_rows = t1.rows_on_page(t1.all_page_ids()[0])
        c5 = [r[4] for r in t_rows]
        c5_copy = [r[4] for r in t1_rows]
        assert c5 != c5_copy

    def test_dpc_slope_ordering(self, synthetic_db):
        """The motivating property: DPC for the same selectivity grows from
        c2 to c5 (Fig. 6's reason for decreasing benefit)."""
        from repro.core.dpc import exact_dpc
        from repro.sql import Comparison, conjunction_of

        table = synthetic_db.table("t")
        cut = 1000  # 5% selectivity
        dpcs = [
            exact_dpc(table, conjunction_of(Comparison(col, "<", cut)))
            for col in ("c2", "c3", "c4", "c5")
        ]
        assert dpcs == sorted(dpcs)
        assert dpcs[0] == -(-cut // table.data_file.page_capacity)  # minimal
        assert dpcs[3] > 5 * dpcs[0]

    def test_invalid_num_rows(self):
        with pytest.raises(WorkloadError):
            generate_synthetic_rows(0)
