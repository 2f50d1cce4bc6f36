"""Deterministic, splittable random streams.

A random stream is a numpy ``Generator``, keyed by a 64-bit ``(seed, i)`` pair.
Substreams of one master seed are independent and may be consumed in any order,
so replicated simulations are reproducible under any scheduling.
"""

from __future__ import annotations

import itertools
from numbers import Integral

import numpy as np

from .errors import ParameterError, ValidationError, shown

_U64 = 2**64
# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(source: str, value: object) -> None:
    """Raise ``ValidationError`` naming ``source`` unless ``value`` is an
    integer (not a bool) in [0, 2^64)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 0 <= value < _U64:
        raise ValidationError(f"must be an integer in [0, 2^64), got {shown(value)}", source)


def _seed_words(master_seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)`` for each
    uint64 ``i`` of ``ids``, as the columns of a 4 × len(ids) array.  The entropy
    is the seed's 32-bit words, then i's, low word first; i's high word, present
    only from 2^32 on, fills a pool word that would otherwise mix in as 0."""
    u32, h = np.uint32, _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal h
        v = (v ^ u32(h)) * u32(h := h * mult & 0xFFFFFFFF)
        return v ^ (v >> u32(16))

    seed = [master_seed & 0xFFFFFFFF, master_seed >> 32] if master_seed >> 32 else [master_seed]
    entropy = [np.full(ids.size, w, u32) for w in seed] + [ids.astype(u32), (ids >> np.uint64(32)).astype(u32)]
    pool = [hashmix(w) for w in (entropy + [np.zeros(ids.size, u32)])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        m = u32(_MIX_L) * pool[dst] - u32(_MIX_R) * hashmix(pool[src])
        pool[dst] = m ^ (m >> u32(16))
    h = _INIT_B
    out = [hashmix(pool[k % 4], _MULT_B).astype(np.uint64) for k in range(8)]
    return np.array([lo | (hi << np.uint64(32)) for lo, hi in zip(out[::2], out[1::2])])


class Substreams:
    """The streams of replicates ``ids`` of one master seed, served by one
    reused Generator from PCG64 states computed for up to 1024 ids at a time."""

    def __init__(self, master_seed: int, ids: range):
        check_seed("master_seed", master_seed)
        self.master_seed, self.ids, self._block = master_seed, ids, range(0)
        self._generator = np.random.Generator(np.random.PCG64(0))

    def generator(self, i: int) -> np.random.Generator:
        """The Generator, set to ``PCG64(SeedSequence([master_seed, i])).state``;
        this moves the Generator that the previous call returned."""
        if i not in self._block:
            if i not in self.ids:
                raise ParameterError(f"replicate {i} is not in {self.ids}")
            self._block = range(i, min(i + 1024, self.ids.stop))
            ids = np.uint64(i) + np.arange(len(self._block), dtype=np.uint64)
            self._words = _seed_words(self.master_seed, ids)
        s_hi, s_lo, q_hi, q_lo = self._words[:, i - self._block.start].tolist()
        # PCG64's seeding: inc = 2q + 1, then state = (inc + s) * mult + inc, mod 2^128
        inc = (q_hi << 65 | q_lo << 1 | 1) % 2**128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) % 2**128
        self._generator.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                               "has_uint32": 0, "uinteger": 0}
        return self._generator


def derive_substream(master_seed: int, replicate_index: int,
                     streams: Substreams | None = None) -> np.random.Generator:
    """Derive the replicate's independent stream from a master seed.

    The mapping is injective in ``replicate_index`` and does not depend on
    how many other substreams have been derived, so replicates may run in
    any order (or concurrently) with identical results.  Where ``streams``
    holds the replicate, its Generator comes back set to the same state.
    """
    if streams is not None and streams.master_seed == master_seed and replicate_index in streams.ids:
        return streams.generator(replicate_index)
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
