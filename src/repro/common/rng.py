"""Deterministic random-number helpers.

Every stochastic component (Bernoulli page sampling, workload generation,
permutation families) takes an explicit seed so that experiments are exactly
reproducible.  This module centralises seed derivation: a single experiment
seed fans out into independent streams for each named component, as a
:class:`random.Random` (:func:`make_random`) or, for the data generators,
a NumPy ``Generator`` (:func:`make_numpy_rng`).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.common.hashing import mix64


def _stable_hash(text: str) -> int:
    """A process-independent 64-bit hash of ``text``.

    The builtin ``hash(str)`` is randomized per process (PYTHONHASHSEED),
    which would make "seeded" workloads differ across runs — exactly the
    nondeterminism the simulated engine is supposed to rule out.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    Stable across runs *and processes*: ``derive_seed(7, "synthetic",
    "C3")`` always yields the same value.  Uses the mix64 avalanche so
    sibling streams are statistically independent.
    """
    seed = mix64(root_seed)
    for name in names:
        seed = mix64(seed ^ _stable_hash(str(name)))
    return seed & 0x7FFFFFFF


def make_random(root_seed: int, *names: object) -> random.Random:
    """Return a :class:`random.Random` seeded from the derived seed path."""
    return random.Random(derive_seed(root_seed, *names))


def make_numpy_rng(root_seed: int, *names: object) -> np.random.Generator:
    """Return a numpy Generator seeded from the derived seed path."""
    return np.random.default_rng(derive_seed(root_seed, *names))
