import numpy as np
import pytest

from biaslab.errors import ParameterError, ValidationError
from biaslab.rng import derive_substream, sample_indices


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
