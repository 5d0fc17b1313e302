"""Bit-vector filters for join-method page counting (paper Fig. 5, §IV).

For a Hash Join ``R1 ⋈ R2`` the predicate is evaluated in the relational
engine where page ids are invisible, while the storage-engine scan of R2
sees page ids but has not joined yet.  The paper bridges the gap with a
bit-vector filter: during the hash join's *build* phase each build-side
join value sets a bit; during the *probe* scan of R2 each row's join value
probes the vector, acting as a **derived semi-join predicate** that the
scan-side DPSample counter can use.

False positives (hash collisions) can only *overestimate* the page count —
never underestimate — and with at least as many bits as the build side has
distinct join values the count is exact.  The paper reports that a vector
under 1% of the table size already gives high accuracy; our ablation bench
sweeps the width to reproduce that curve.

:class:`PartialBitVectorFilter` adds the Merge-Join variant: when neither
input is sorted by a blocking operator, the vector fills *incrementally*
as the outer side advances; probing is still sound because a merge join
only advances the inner when the outer has already produced all smaller
keys (§IV, Merge Join).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.common.errors import MonitorError
from repro.common.hashing import hash_value


class BitVectorFilter:
    """A fixed-width Bloom-style filter with a single hash function.

    One hash function (not ``k`` functions as in a general Bloom filter)
    matches the paper's construction and the classic bit-vector filtering
    of DeWitt & Gerber: simplicity inside the storage engine matters more
    than the last factor of collision rate.
    """

    __slots__ = ("num_bits", "seed", "_bits", "inserts", "probes")

    def __init__(self, num_bits: int, seed: int = 0) -> None:
        if num_bits <= 0:
            raise MonitorError(f"bit vector size must be positive, got {num_bits}")
        self.num_bits = num_bits
        self.seed = seed
        self._bits = bytearray((num_bits + 7) // 8)
        self.inserts = 0
        self.probes = 0

    def _position(self, value: Any) -> tuple[int, int]:
        # Integer join keys use identity-mod placement.  This is what makes
        # the paper's §IV guarantee true: with at least as many bits as the
        # (dense) key domain there are *no* collisions at all, and with
        # fewer bits the aliasing is structured (v and v+m collide), so the
        # overestimation stays bounded instead of exploding the way random
        # hashing would (any false-positive rate p is amplified to
        # ``1-(1-p)^rows_per_page`` at page granularity).  Non-integer keys
        # fall back to a scrambled hash.
        if isinstance(value, int) and not isinstance(value, bool):
            bucket = value % self.num_bits
        else:
            bucket = hash_value(value, self.seed) % self.num_bits
        return bucket >> 3, 1 << (bucket & 7)

    def int_positions(self, values: Any) -> tuple[Any, Any]:
        """:meth:`_position` of a whole integer array: ``(byte indexes,
        bit masks)`` by the same identity-mod rule.

        Element-wise operator arithmetic, so this module imports no
        NumPy; the chunk scan's prober places a key column through it,
        and :meth:`insert_all` an integer build batch.  The per-value
        paths stay on :meth:`_position` (a nested call per value costs
        more than this second line), and ``tests/core/test_bitvector.py``
        pins the two together.
        """
        bucket = values % self.num_bits
        return bucket >> 3, 1 << (bucket & 7)

    def insert(self, value: Any) -> None:
        """Set the bit for a build-side join value (build phase)."""
        byte_index, bit_mask = self._position(value)
        self._bits[byte_index] |= bit_mask
        self.inserts += 1

    def insert_all(self, values: Sequence[Any]) -> None:
        """:meth:`insert` each value, as one build batch.

        A batch of plain integers is placed array-wide by
        :meth:`int_positions` — the rule the probe side places a key
        column by — through :mod:`repro.exec.vector`, which keeps NumPy
        optional; any other batch goes one value at a time.
        """
        from repro.exec import vector  # deferred: repro.exec imports this module

        keys = vector.int_column(values)
        if keys is not None:
            vector.set_bits(self._bits, *self.int_positions(keys))
        else:
            bits = self._bits
            position = self._position
            for value in values:
                byte_index, bit_mask = position(value)
                bits[byte_index] |= bit_mask
        self.inserts += len(values)

    def may_contain(self, value: Any) -> bool:
        """Probe for a probe-side join value (probe phase).

        ``False`` is definite (the value cannot join); ``True`` may be a
        collision.
        """
        byte_index, bit_mask = self._position(value)
        self.probes += 1
        return bool(self._bits[byte_index] & bit_mask)

    def first_hit(self, values: Sequence[Any]) -> int:
        """Index of the first value :meth:`may_contain` would accept, or
        ``len(values)`` when none would; NULL is never accepted.

        Counts no probes: the caller knows how many of the values it
        really probed and adds them to :attr:`probes` itself.
        """
        bits = self._bits
        position = self._position
        for index, value in enumerate(values):
            if value is not None:
                byte_index, bit_mask = position(value)
                if bits[byte_index] & bit_mask:
                    return index
        return len(values)

    @property
    def bits(self) -> bytearray:
        """The bit array itself, for zero-copy views — read-only."""
        return self._bits

    @property
    def bits_set(self) -> int:
        """How many bits are set, counted off the array itself (read when
        a run is reported, never per insert)."""
        return int.from_bytes(self._bits, "little").bit_count()

    @property
    def fill_ratio(self) -> float:
        return self.bits_set / self.num_bits

    def __repr__(self) -> str:
        return (
            f"BitVectorFilter({self.bits_set}/{self.num_bits} bits, "
            f"{self.inserts} inserts, {self.probes} probes)"
        )


class PartialBitVectorFilter(BitVectorFilter):
    """A bit-vector filter that is still being filled while probed.

    Used for Merge Joins without a blocking Sort on the outer: the join
    inserts outer values as it consumes them and the inner-side scan probes
    the *partial* vector.  Soundness relies on the merge property that the
    inner never advances past the outer's current key; :attr:`high_key`
    records the largest inserted key so tests can assert the discipline.
    """

    __slots__ = ("high_key",)

    def __init__(self, num_bits: int, seed: int = 0) -> None:
        super().__init__(num_bits, seed)
        self.high_key: Any = None

    def insert(self, value: Any) -> None:
        super().insert(value)
        if self.high_key is None or value > self.high_key:
            self.high_key = value

    def insert_all(self, values: Sequence[Any]) -> None:
        for value in values:
            self.insert(value)
