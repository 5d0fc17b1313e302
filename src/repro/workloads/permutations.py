"""Permutation families with controlled disk-clustering correlation.

The paper's synthetic table T has columns C2..C5 that are "different
permutations of the values in column C1", spanning fully correlated (C2 =
C1) to uncorrelated (C5 = random shuffle) "with the intermediate columns
representing other data points in between" (§V-B.1).

We realise the intermediate points with **noisy permutations**: start from
the identity and relocate a fraction ``noise`` of the values to uniformly
random positions.  For a prefix predicate ``C < n`` over a table clustered
by C1 with ``k`` rows per page, the distinct page count is then
approximately::

    DPC ≈ (1 - noise) * n/k  +  P * (1 - exp(-noise * n / P))

i.e. the correlated mass stays in ``n/k`` contiguous pages while each
noisy row lands on its own page until saturation — giving a DPC-vs-
selectivity slope of roughly ``1 + (k-1)*noise`` in page units.  Noise 0
reproduces C2, noise 1 reproduces C5.

:func:`block_permutation` provides a second family (contiguous value
blocks in shuffled order — "data loaded one vendor at a time"), used by
the real-world dataset analogues to diversify clustering ratios.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import WorkloadError
from repro.common.rng import make_numpy_rng


def identity_permutation(size: int) -> np.ndarray:
    """``perm[i] = i`` — the fully correlated column (C2)."""
    if size <= 0:
        raise WorkloadError(f"permutation size must be positive, got {size}")
    return np.arange(size, dtype=np.int64)


def noisy_permutation(size: int, noise: float, seed: int = 0) -> np.ndarray:
    """Identity with a ``noise`` fraction of values scattered randomly.

    ``noise=0`` is the identity; ``noise=1`` is a uniform random shuffle.
    The scattered values are chosen uniformly and permuted among their own
    positions, so the result is always a true permutation of ``0..size-1``.
    """
    if not 0.0 <= noise <= 1.0:
        raise WorkloadError(f"noise must be in [0, 1], got {noise}")
    values = identity_permutation(size)
    if noise <= 0.0 or size < 2:
        return values
    rng = make_numpy_rng(seed, "noisy-permutation", noise)
    if noise >= 1.0:
        rng.shuffle(values)
        return values
    num_scattered = max(2, int(round(size * noise)))
    positions = rng.choice(size, size=num_scattered, replace=False)
    shuffled = values[positions].copy()
    rng.shuffle(shuffled)
    values[positions] = shuffled
    return values


def block_permutation(size: int, num_blocks: int, seed: int = 0) -> np.ndarray:
    """Contiguous value blocks placed in shuffled order.

    Models per-batch loading (e.g. "per vendor", Example 1): values within
    a block stay consecutive — and hence page-clustered — but the blocks
    themselves are scattered.  A value-range predicate touches whole
    blocks, giving a clustering ratio between the two extremes, decreasing
    with block size.
    """
    if num_blocks <= 0:
        raise WorkloadError(f"num_blocks must be positive, got {num_blocks}")
    if num_blocks > size:
        raise WorkloadError(
            f"num_blocks {num_blocks} exceeds permutation size {size}"
        )
    rng = make_numpy_rng(seed, "block-permutation", num_blocks)
    block_order = rng.permutation(num_blocks)
    boundaries = np.linspace(0, size, num_blocks + 1).astype(np.int64)
    result = np.empty(size, dtype=np.int64)
    cursor = 0
    for block in block_order:
        start, end = boundaries[block], boundaries[block + 1]
        length = end - start
        result[cursor : cursor + length] = np.arange(start, end, dtype=np.int64)
        cursor += length
    return result


def permutation_correlation(perm: np.ndarray) -> float:
    """Spearman-style rank correlation between position and value.

    1.0 for the identity, ~0 for a uniform shuffle — a quick diagnostic
    used by tests to verify the family is ordered as intended.
    """
    size = len(perm)
    if size < 2:
        return 1.0
    positions = np.arange(size, dtype=np.float64)
    values = perm.astype(np.float64)
    pos_center = positions - positions.mean()
    val_center = values - values.mean()
    denominator = np.sqrt((pos_center**2).sum() * (val_center**2).sum())
    if denominator == 0:
        return 0.0
    return float((pos_center * val_center).sum() / denominator)
