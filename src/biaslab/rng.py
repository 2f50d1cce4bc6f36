"""Deterministic, splittable random streams.

A random stream is a numpy ``Generator``, keyed by a 64-bit ``(seed, i)`` pair.
Substreams of one master seed are independent and may be consumed in any order,
so replicated simulations are reproducible under any scheduling.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import ParameterError, ValidationError, shown

_U64 = 2**64


def check_seed(source: str, value: object) -> None:
    """Raise ``ValidationError`` naming ``source`` unless ``value`` is an
    integer (not a bool) in [0, 2^64)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 0 <= value < _U64:
        raise ValidationError(f"must be an integer in [0, 2^64), got {shown(value)}", source)


def derive_substream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Derive the replicate's independent stream from a master seed.

    The mapping is injective in ``replicate_index`` and does not depend on
    how many other substreams have been derived, so replicates may run in
    any order (or concurrently) with identical results.
    """
    check_seed("master_seed", master_seed)
    check_seed("replicate_index", replicate_index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, replicate_index])))


def sample_indices(rng: np.random.Generator, n_total: int, k: int) -> np.ndarray:
    """Sample ``k`` distinct row indices from ``range(n_total)``."""
    if n_total < 0 or k < 0:
        raise ParameterError("n_total and k must be non-negative")
    if k > n_total:
        raise ParameterError(f"cannot sample {k} of {n_total} without replacement")
    return rng.choice(n_total, size=int(k), replace=False)
