import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab.errors import ParameterError, ValidationError
from biaslab.rng import Substreams, derive_substream, sample_indices


def test_zero_sd_returns_mean_exactly():
    s = derive_substream(11, 0)
    assert np.all(s.normal(0.0, 0.0, 5) == 0.0)
    s = derive_substream(11, 0)
    assert np.all(s.normal(7.5, 0.0, 4) == 7.5)


def test_same_key_same_sequence():
    a = derive_substream(99, 3).normal(0, 1, 3)
    b = derive_substream(99, 3).normal(0, 1, 3)
    assert np.array_equal(a, b)


def test_normal_moments_within_4_sigma_over_20_seeds():
    # CLT bound: SE(mean) = sd/sqrt(n), SE(sd) ~ sd/sqrt(2n)
    n, mean, sd = 100_000, 12.0, 2.5
    for seed in range(20):
        x = derive_substream(seed, 0).normal(mean, sd, n)
        assert abs(x.mean() - mean) < 4 * sd / np.sqrt(n)
        assert abs(x.std(ddof=1) - sd) < 4 * sd / np.sqrt(2 * n)


def test_uniform_degenerate_and_bounds():
    assert derive_substream(5, 0).uniform(5.0, 5.0) == 5.0
    s = derive_substream(5, 0)
    draws = [s.uniform(-5, 5) for _ in range(200)]
    assert all(-5 <= d < 5 for d in draws)


def test_uniform_mean_mc_bound():
    s = derive_substream(1234, 0)
    x = np.array([s.uniform(1, 100) for _ in range(100_000)])
    assert abs(x.mean() - 50.5) < 1.0


def test_sample_indices_without_replacement_distinct():
    idx = sample_indices(derive_substream(2, 0), 5, 5)
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]
    idx = sample_indices(derive_substream(2, 0), 500_000, 1000)
    assert len(set(idx.tolist())) == 1000
    with pytest.raises(ParameterError):
        sample_indices(derive_substream(2, 0), 5, 6)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_total=st.sampled_from([5_000, 20_000, 500_000]),
       share=st.floats(0.0, 0.1))
@example(seed=0, n_total=500_000, share=0.002)  # numpy's Floyd's algorithm
@example(seed=0, n_total=20_000, share=0.06)  # numpy's tail shuffle
def test_sample_indices_is_the_shuffled_draws_set_in_order(seed, n_total, share):
    k = int(share * n_total)
    ours, numpys = derive_substream(seed, 0), derive_substream(seed, 0)
    idx = sample_indices(ours, n_total, k)
    assert idx.tolist() == sorted(numpys.choice(n_total, size=k, replace=False).tolist())
    # the stream goes on as after numpy's draw
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_substream_is_pcg64_of_seed_sequence():
    for seed, i in ((0, 0), (1992, 7), (2**64 - 1, 2**32)):
        own = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        assert derive_substream(seed, i).bit_generator.state == own.bit_generator.state


@pytest.mark.parametrize("seed, i", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (True, 0), (1.0, 0)])
def test_substream_refuses_a_key_outside_64_bits(seed, i):
    with pytest.raises(ValidationError, match="must be an integer in"):
        derive_substream(seed, i)


def test_substreams_distinct_and_stable():
    a = derive_substream(77, 0)
    b = derive_substream(77, 1)
    assert a.normal(0, 1, 1)[0] != b.normal(0, 1, 1)[0]
    x = derive_substream(77, 7).normal(0, 1, 3)
    y = derive_substream(77, 7).normal(0, 1, 3)
    assert np.array_equal(x, y)


def test_substream_first_draws_collision_scan():
    firsts = [derive_substream(123, i).normal(0, 1, 1)[0] for i in range(1000)]
    assert len(set(firsts)) == 1000


def test_substreams_order_independent():
    # consuming stream 5 heavily must not perturb stream 6
    s5 = derive_substream(9, 5)
    s5.normal(0, 1, 10_000)
    after = derive_substream(9, 6).normal(0, 1, 4)
    fresh = derive_substream(9, 6).normal(0, 1, 4)
    assert np.array_equal(after, fresh)


_U64 = st.integers(0, 2**64 - 1)


def _numpy_state(seed: int, i: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence([seed, i])).state


def _block(i: int, size: int) -> range:
    """``size`` ids around ``i``, within [0, 2^64)."""
    start = max(0, min(i - size // 2, 2**64 - size))
    return range(start, start + size)


@settings(max_examples=250, deadline=None)
@given(seed=_U64, i=_U64, size=st.integers(1, 6), other=_U64)
@example(seed=0, i=0, size=3, other=5)
@example(seed=2**32 - 1, i=2**32, size=4, other=2**64 - 1)
@example(seed=2**32, i=2**32 - 1, size=4, other=0)
@example(seed=2**64 - 1, i=2**64 - 1, size=4, other=2**32)
def test_loop_states_are_numpys_seed_sequence_states(seed, i, size, other):
    # NEP 19 makes SeedSequence's output stable; the loop computes the same
    # states by arithmetic, for ids on both sides of each entropy word-count
    # edge (0, 2^32 - 1, 2^32 and 2^64 - 1, which the examples pin)
    ids = _block(i, size)
    streams = Substreams(seed, ids)
    for j in ids:
        assert streams.generator(j).bit_generator.state == _numpy_state(seed, j)
    # the reused Generator, after other replicates drew from it, gives
    # replicate j the draws of a fresh derive_substream(seed, j)
    for j in ids:
        streams.generator(other if other in ids else ids[0]).normal(size=3)
        streams.generator(ids[-1]).integers(0, 2**31, size=5, dtype=np.int32)  # leaves a buffered word
        got = derive_substream(seed, j, streams)
        want = derive_substream(seed, j)
        assert got.normal(size=4).tobytes() == want.normal(size=4).tobytes()
        assert got.random(3).tobytes() == want.random(3).tobytes()
        assert got.integers(0, 2**31, size=3, dtype=np.int32).tobytes() == \
            want.integers(0, 2**31, size=3, dtype=np.int32).tobytes()


def test_loop_states_span_blocks_and_edge_ids():
    for seed in (0, 7, 1992, 2**63 + 11, 2**64 - 1):
        for ids in (range(3002), range(2**32 - 1500, 2**32 + 1502), range(2**64 - 3, 2**64)):
            streams = Substreams(seed, ids)
            for j in (*ids[::97], *ids[-2:]):
                assert streams.generator(j).bit_generator.state == _numpy_state(seed, j)


def test_a_stream_table_serves_only_its_own_seed_and_ids():
    streams = Substreams(5, range(10, 20))
    with pytest.raises(ParameterError, match="replicate 20 is not in range"):
        streams.generator(20)
    # derive_substream falls back to a fresh Generator outside the table
    for seed, i in ((6, 12), (5, 9), (5, 20)):
        got = derive_substream(seed, i, streams)
        assert got is not streams.generator(10)
        assert got.bit_generator.state == derive_substream(seed, i).bit_generator.state
    with pytest.raises(ValidationError, match="master_seed: must be an integer"):
        Substreams(-1, range(3))
