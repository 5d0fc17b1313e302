"""Per-execution I/O and CPU accounting contexts.

The paper measures each query's execution time and page counts in
isolation (cold cache, one query at a time).  Early versions of this
engine mirrored that literally: a single global ``SimulatedClock`` hung
off the database, and ``executor.execute`` diffed before/after snapshots
of it.  That protocol made per-query numbers *deltas of shared mutable
state*, so two in-flight queries corrupted each other's ``RunStats`` and
concurrent sessions were structurally impossible.

:class:`IOContext` replaces the global clock.  It is a private
accumulator owned by one execution: every layer that performs simulated
work — the buffer pool faulting a page, an operator hashing a join key, a
monitor checking a row — charges the context it was handed instead of a
global singleton.  ``RunStats`` are then read *directly* off the
context, making per-query attribution exact by construction rather than
by snapshot arithmetic.

Charge rates come from the same :class:`~repro.storage.disk.DiskParameters`
as before; the time model itself is unchanged (see ``disk.py`` for its
calibration).  What changed is ownership: parameters are shared and
immutable, counters are per-execution and private.

Buffer frames
-------------
A context also owns the execution's LRU buffer frames.  The database's
:class:`~repro.storage.buffer.BufferPool` keeps only the capacity and the
walk; ``access_sequence()`` takes the caller's context, looks pages up in
*its* frames and charges it.  A fresh context is therefore a cold cache
whatever ran before on the database, which is what makes N interleaved
queries produce physical read counts identical to N serial cold-cache
runs; a context carried into a second run (a reopt resume, a warm-cache
ablation) finds the first run's pages still resident.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage.disk import DiskParameters

if TYPE_CHECKING:
    from repro.common.types import FileId, PageId


@dataclass
class IOContext:
    """Accounting for one execution: time charges and read attribution.

    One context belongs to exactly one execution (one ``execute()`` call,
    one benchmark probe, one DPSample overhead measurement); create a
    fresh one per run, so counters start at zero and the frames cold.
    Reuse one only to continue an execution on a warm cache.
    Contexts are not thread-safe and never need to be — that is the whole
    point: nothing outside the owning execution ever touches one.
    """

    params: DiskParameters = field(default_factory=DiskParameters)

    io_ms: float = 0.0
    cpu_ms: float = 0.0
    random_reads: int = 0
    sequential_reads: int = 0
    pool_hits: int = 0
    evictions: int = 0

    #: The execution's resident pages, least recently used first; the
    #: pool's :meth:`~repro.storage.buffer.BufferPool.access_sequence`
    #: keeps them within its capacity.
    frames: "OrderedDict[tuple[FileId, PageId], None]" = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    # -- derived views --------------------------------------------------
    @property
    def elapsed_ms(self) -> float:
        """Total simulated time this execution accumulated."""
        return self.io_ms + self.cpu_ms

    @property
    def physical_reads(self) -> int:
        return self.random_reads + self.sequential_reads

    @property
    def logical_reads(self) -> int:
        """Every buffer-pool access this execution made (hit or miss)."""
        return self.pool_hits + self.physical_reads

    @property
    def warm_ratio(self) -> float:
        """Fraction of this execution's logical reads served from its
        buffer frames.  Defined as 0.0 when no logical reads happened (a
        context that never touched a page was trivially all-cold)."""
        if self.logical_reads == 0:
            return 0.0
        return self.pool_hits / self.logical_reads

    # -- I/O charges ----------------------------------------------------
    def charge_random_read(self, pages: int = 1) -> None:
        self.io_ms += self.params.random_read_ms * pages
        self.random_reads += pages

    def charge_sequential_read(self, pages: int = 1) -> None:
        self.io_ms += self.params.sequential_read_ms * pages
        self.sequential_reads += pages

    # -- CPU charges ----------------------------------------------------
    def charge_rows(self, rows: int = 1) -> None:
        self.cpu_ms += self.params.cpu_row_ms * rows

    def charge_predicates(self, evaluations: int = 1) -> None:
        self.cpu_ms += self.params.cpu_predicate_ms * evaluations

    def charge_hashes(self, hashes: int = 1) -> None:
        self.cpu_ms += self.params.cpu_hash_ms * hashes

    def charge_bitvector_probes(self, probes: int = 1) -> None:
        self.cpu_ms += self.params.cpu_bitvector_probe_ms * probes

    def charge_index_entries(self, entries: int = 1) -> None:
        self.cpu_ms += self.params.cpu_index_entry_ms * entries

    def charge_index_descent(self, descents: int = 1) -> None:
        self.cpu_ms += self.params.cpu_index_descent_ms * descents

    def charge_monitor_checks(self, checks: int = 1) -> None:
        self.cpu_ms += self.params.cpu_monitor_check_ms * checks

    def __repr__(self) -> str:
        return (
            f"IOContext({self.elapsed_ms:.3f} ms, "
            f"{self.physical_reads} physical / {self.logical_reads} logical, "
            f"{len(self.frames)} frames)"
        )
