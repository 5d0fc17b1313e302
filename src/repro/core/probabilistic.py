"""Linear probabilistic counting for fetch-stream page ids (paper Fig. 3).

Index plans fetch rows in index-key order, so the same page id can recur
arbitrarily across the fetch stream (no grouped page access).  Exact
``COUNT(DISTINCT PID)`` would need a hash table per monitored expression;
the paper instead uses the linear-counting estimator of Whang,
Vander-Zanden and Taylor (TODS 1990):

1. keep a bitmap of ``m`` bits, all zero;
2. for each qualifying fetch, set bit ``h(PID) mod m``;
3. at end-of-stream estimate ``n̂ = -m * ln(V)`` where ``V`` is the
   fraction of bits still zero.

The estimator is the maximum-likelihood estimator given the bitmap and
needs well under one bit per distinct page for small relative error, which
is why the paper calls the approach low-overhead: the only per-row cost is
one hash.
"""

from __future__ import annotations

import math
from typing import Collection

from repro.common.errors import MonitorError
from repro.common.hashing import hash_to_bucket


class LinearCounter:
    """Linear-counting distinct estimator over a stream of integer ids.

    ``num_bits`` sizes the bitmap; ``seed`` selects the hash function.
    :meth:`observe` is the per-row step (Fig. 3, step 3); :meth:`estimate`
    is the end-of-stream step (Fig. 3, steps 5-6).
    """

    __slots__ = ("num_bits", "seed", "_bits", "_bits_set", "observations")

    def __init__(self, num_bits: int, seed: int = 0) -> None:
        if num_bits <= 0:
            raise MonitorError(f"bitmap size must be positive, got {num_bits}")
        self.num_bits = num_bits
        self.seed = seed
        self._bits = bytearray((num_bits + 7) // 8)
        self._bits_set = 0
        self.observations = 0

    def observe(self, value: int) -> None:
        """Hash ``value`` and set the corresponding bitmap bit."""
        bucket = hash_to_bucket(value, self.num_bits, self.seed)
        byte_index, bit_mask = bucket >> 3, 1 << (bucket & 7)
        if not self._bits[byte_index] & bit_mask:
            self._bits[byte_index] |= bit_mask
            self._bits_set += 1
        self.observations += 1

    def observe_many(self, values: Collection[int]) -> None:
        """:meth:`observe` for a chunk of the stream.  Setting a bit twice
        changes nothing, so each *distinct* value is hashed once; every
        value still counts as an observation."""
        distinct = set(values)
        for value in distinct:
            self.observe(value)
        self.observations += len(values) - len(distinct)

    @property
    def bits_set(self) -> int:
        return self._bits_set

    @property
    def num_zero_bits(self) -> int:
        return self.num_bits - self._bits_set

    @property
    def saturated(self) -> bool:
        """All bits set: the stream had (far) more distinct values than the
        bitmap can resolve; the estimate is a lower bound in that case."""
        return self._bits_set >= self.num_bits

    def estimate(self) -> float:
        """The linear-counting estimate ``-m * ln(numzero / m)``.

        A saturated bitmap has ``numzero = 0``; following standard practice
        we clamp to one zero bit, which yields the estimator's maximum
        resolvable value ``m * ln(m)`` rather than infinity.
        """
        if self.observations == 0:
            return 0.0
        num_zero = max(1, self.num_zero_bits)
        return -1.0 * self.num_bits * math.log(num_zero / self.num_bits)

    def merge(self, other: "LinearCounter") -> None:
        """OR another bitmap into this one (same size and seed required).

        Linear counting composes under union — useful when a plan fetches
        the same table from two subtrees.
        """
        if other.num_bits != self.num_bits or other.seed != self.seed:
            raise MonitorError(
                "cannot merge linear counters with different sizes or seeds: "
                f"{self.num_bits}/{self.seed} vs {other.num_bits}/{other.seed}"
            )
        bits_set = 0
        for index in range(len(self._bits)):
            merged = self._bits[index] | other._bits[index]
            self._bits[index] = merged
            bits_set += merged.bit_count()
        self._bits_set = bits_set
        self.observations += other.observations

    def __repr__(self) -> str:
        return (
            f"LinearCounter({self._bits_set}/{self.num_bits} bits set, "
            f"{self.observations} observations)"
        )


def recommended_bitmap_bits(expected_distinct: int, load_factor: float = 0.5) -> int:
    """Bitmap size for an expected distinct count.

    Whang et al. show small error when the bitmap keeps a healthy fraction
    of zero bits; sizing at ``expected / load_factor`` keeps the fill ratio
    near ``load_factor``.  The paper notes "typically much less than one
    bit per page" suffices because the monitored streams touch far fewer
    distinct pages than the table holds.
    """
    if expected_distinct < 0:
        raise MonitorError("expected_distinct must be non-negative")
    if not 0.0 < load_factor < 1.0:
        raise MonitorError(f"load_factor must be in (0, 1), got {load_factor}")
    return max(64, int(expected_distinct / load_factor))
