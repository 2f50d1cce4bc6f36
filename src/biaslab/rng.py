"""Deterministic, splittable random number generation.

Every stochastic operation in the package draws from an :class:`RngState`
keyed by a 64-bit ``(seed, stream_id)`` pair.  Substreams derived from one
master seed are statistically independent and can be consumed in any order,
which makes replicated simulations reproducible regardless of scheduling.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import ParameterError, ValidationError

_U64 = 2**64


def check_seed(source: str, value: object) -> None:
    """Raise ``ValidationError`` naming ``source`` unless ``value`` is an
    integer (not a bool) in [0, 2^64)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 0 <= value < _U64:
        raise ValidationError(f"{source}: must be an integer in [0, 2^64), got {value!r}")


class RngState:
    """A single-owner random stream keyed by ``(seed, stream_id)``.

    The same key always yields the same draw sequence.  Streams with
    distinct keys are independent.  Not safe to share across threads;
    derive one substream per worker instead.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= int(seed) < _U64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (0 <= int(stream_id) < _U64):
            raise ParameterError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=[self.seed, self.stream_id]))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream_id={self.stream_id})"


def derive_substream(master_seed: int, replicate_index: int) -> RngState:
    """Derive the replicate's independent stream from a master seed.

    The mapping is injective in ``replicate_index`` and does not depend on
    how many other substreams have been derived, so replicates may run in
    any order (or concurrently) with identical results.
    """
    return RngState(master_seed, stream_id=replicate_index)


def normal_draws(state: RngState, n: int, mean: float, sd: float) -> np.ndarray:
    """Draw ``n`` i.i.d. normal values with the given mean and sd."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not np.isfinite(sd) or sd < 0:
        raise ParameterError(f"sd must be finite and non-negative, got {sd}")
    return state.generator.normal(mean, sd, int(n))


def uniform_draw(state: RngState, lo: float, hi: float) -> float:
    """Draw one value uniformly from [lo, hi); lo == hi returns lo."""
    if lo > hi:
        raise ParameterError(f"uniform bounds reversed: lo={lo} > hi={hi}")
    if lo == hi:
        return float(lo)
    return float(state.generator.uniform(lo, hi))


def sample_indices(state: RngState, n_total: int, k: int, replace: bool = False) -> np.ndarray:
    """Sample ``k`` row indices from ``range(n_total)``.

    Without replacement the indices are distinct; with replacement they may
    repeat.
    """
    if n_total < 0 or k < 0:
        raise ParameterError("n_total and k must be non-negative")
    if not replace and k > n_total:
        raise ParameterError(f"cannot sample {k} of {n_total} without replacement")
    return state.generator.choice(n_total, size=int(k), replace=replace)
