"""Unit tests for the deterministic streams and the stable-law oracle."""

import math

import numpy as np
import pytest
from numpy.random import Philox

from ltfsm.oracle import sample_stable_oracle
from ltfsm.streams import (
    RandomStream,
    _cursor,
    _seek,
    _substream_heads,
    _uniform_in_place,
    poisson_arrivals,
    raw_to_uniform,
    uniform_to_exponential,
    uniform_to_gaussian,
    uniform_to_laplace_half,
    uniform_to_rademacher,
)

# E|G|**1.2 for a standard normal: 2**(0.6) * Gamma(1.1) / sqrt(pi).
ABS_GAUSS_MOMENT_12 = 0.8135490363898382


class StubUniforms:
    """Hands out a prescribed uniform sequence (for draw-order tests)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.cursor = 0

    def uniform(self, size):
        out = self.values[self.cursor : self.cursor + size]
        self.cursor += size
        return out


# -- determinism and splitting --------------------------------------------------


def test_same_seed_reproduces_bitwise():
    assert np.array_equal(RandomStream(123).raw(64), RandomStream(123).raw(64))
    assert np.array_equal(
        RandomStream(123).gaussian(64), RandomStream(123).gaussian(64)
    )


def test_different_seeds_differ():
    assert not np.array_equal(RandomStream(1).raw(16), RandomStream(2).raw(16))


def test_seed_is_reduced_mod_2_64():
    assert np.array_equal(RandomStream(1).raw(4), RandomStream(1 + 2**64).raw(4))


def test_raw_call_splitting_is_consistent():
    s = RandomStream(7)
    split = np.concatenate([s.raw(5), s.raw(3)])
    assert np.array_equal(split, RandomStream(7).raw(8))


def test_seek_reads_the_stream_from_any_word_offset():
    stream = RandomStream(23, 5)
    key, start = _cursor(stream)
    assert start == 0
    words = stream.raw(30)
    assert _cursor(stream) == (key, 30)
    bitgen = Philox(key=0)
    for offset in range(10):
        bitgen.random_raw(3)  # what the generator drew before does not matter
        seated = _seek(bitgen, key, offset)
        assert np.array_equal(seated.random_raw(20), words[offset : offset + 20])
    far = 4 * (2**64 + 12345)  # past the low counter word
    reference = Philox(key=key)
    reference.advance(far // 4)
    assert np.array_equal(_seek(bitgen, key, far + 3).random_raw(5), reference.random_raw(8)[3:])


def test_substreams_differ_and_are_reproducible():
    base = RandomStream(11)
    a = base.substream(0).raw(16)
    b = base.substream(1).raw(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, RandomStream(11).raw(16))
    assert np.array_equal(a, RandomStream(11).substream(0).raw(16))
    with pytest.raises(ValueError):
        base.substream(-1)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 2000, 4096])
def test_substream_words_rows_equal_the_per_substream_draws(width):
    # widths off a multiple of 4 would expose Philox buffer words leaking
    # from one row into the next; the all-ones seed and id with a start past
    # 2**32 check that the vectorized child ids wrap mod 2**64 as _mix64 does
    streams = (
        RandomStream(11),
        RandomStream(2**64 + 3, 5).substream(2).substream(7),
        RandomStream(2**64 - 1, 2**64 - 1),
    )
    for stream in streams:
        for start in (0, 9, 2**32 + 5):
            rows = [b.random_raw(width) for b in _substream_heads(stream, start, 6)]
            assert len(rows) == 6
            for r, words in enumerate(rows):
                assert words.dtype == np.uint64
                assert np.array_equal(words, stream.substream(start + r).raw(width))
    assert list(_substream_heads(RandomStream(11), 4, 0)) == []


def test_nested_substreams_depart_from_flat_ones():
    base = RandomStream(5)
    nested = base.substream(3).substream(3).raw(8)
    flat = base.substream(3).raw(8)
    assert not np.array_equal(nested, flat)


def test_scalar_calls_return_floats_matching_the_vector_head():
    for name in ("uniform", "exponential", "gaussian", "rademacher"):
        scalar = getattr(RandomStream(9), name)()
        vector = getattr(RandomStream(9), name)(4)
        assert isinstance(scalar, float)
        assert scalar == vector[0]


def test_transforms_are_the_single_source_of_truth():
    u = raw_to_uniform(RandomStream(17).raw(1000))
    assert np.array_equal(RandomStream(17).uniform(1000), u)
    assert np.array_equal(
        RandomStream(17).exponential(1000), uniform_to_exponential(u)
    )
    assert np.array_equal(RandomStream(17).gaussian(1000), uniform_to_gaussian(u))
    assert np.array_equal(
        RandomStream(17).rademacher(1000), uniform_to_rademacher(u)
    )


# -- marginal laws ---------------------------------------------------------------


def test_uniform_lies_strictly_inside_the_unit_interval():
    u = RandomStream(2024).uniform(200000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.003


def test_exponential_is_positive_with_unit_mean():
    n = 100000
    x = RandomStream(4).exponential(n)
    assert x.min() > 0.0
    assert abs(x.mean() - 1.0) < 4.0 / math.sqrt(n)
    assert abs(x.var() - 1.0) < 4.0 * math.sqrt(20.0 / n)


def test_gaussian_fractional_moment():
    n = 200000
    g = RandomStream(7).gaussian(n)
    emp = np.abs(g) ** 1.2
    se = emp.std(ddof=1) / math.sqrt(n)
    assert abs(emp.mean() - ABS_GAUSS_MOMENT_12) < 4.0 * se
    assert abs(g.mean()) < 4.0 / math.sqrt(n)


def test_laplace_half_moments_and_symmetry():
    n = 200000
    x = uniform_to_laplace_half(RandomStream(8).uniform(n))
    # density exp(-2|x|): Var = 1/2, E|X| = 1/2, median 0
    assert abs(x.var() - 0.5) < 0.01
    assert abs(np.abs(x).mean() - 0.5) < 0.005
    assert abs(x.mean()) < 0.005
    assert abs(np.mean(x < 0.0) - 0.5) < 0.005


def test_laplace_half_inverse_cdf_values():
    x = uniform_to_laplace_half(np.array([0.25, 0.5, 0.75]))
    assert x == pytest.approx([0.5 * math.log(0.5), 0.0, -0.5 * math.log(0.5)])


def test_rademacher_is_an_unbiased_sign():
    x = RandomStream(9).rademacher(100000)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert abs(x.mean()) < 0.013
    assert list(uniform_to_rademacher(np.array([0.49, 0.5, 0.51]))) == [-1.0, 1.0, 1.0]


def test_rademacher_sign_is_the_top_bit_of_the_raw_word():
    edges = np.array(
        [0, 2**63 - 2**11, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64
    )
    words = np.concatenate([edges, RandomStream(21).raw(100000)])
    expected = np.where(words >> np.uint64(63), 1.0, -1.0)
    assert np.array_equal(uniform_to_rademacher(raw_to_uniform(words)), expected)


def test_in_place_uniform_conversion_is_bitwise_raw_to_uniform():
    edges = np.array([0, 2**11 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    words = np.concatenate([edges, RandomStream(22).raw(100000)])
    expected = raw_to_uniform(words)
    for shape in ((len(words),), (2, len(words) // 2)):
        block = words.reshape(shape).copy()
        u = _uniform_in_place(block)
        assert u.dtype == np.float64 and u.shape == shape
        assert np.shares_memory(u, block)
        assert u.tobytes() == expected.tobytes()
    assert list(_uniform_in_place(edges[:3].copy())) == [2.0**-54, 2.0**-54, 0.5 + 2.0**-54]


# -- arrivals ----------------------------------------------------------------------


def test_poisson_arrivals_are_strictly_increasing():
    g = poisson_arrivals(50, RandomStream(10))
    assert g[0] > 0.0
    assert np.all(np.diff(g) > 0.0)


def test_poisson_arrival_mean_grows_linearly():
    # Gamma_5 has mean 5 and variance 5
    last = np.array(
        [poisson_arrivals(5, RandomStream(123).substream(j))[-1] for j in range(2000)]
    )
    assert abs(last.mean() - 5.0) < 4.0 * math.sqrt(5.0 / 2000.0)


def test_poisson_arrivals_consume_the_stream_exponentials():
    class Stub:
        def exponential(self, size):
            return np.ones(size)

    assert np.array_equal(poisson_arrivals(3, Stub()), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        poisson_arrivals(0, Stub())


# -- stable oracle ------------------------------------------------------------------


def test_stable_oracle_gaussian_endpoint_has_variance_two():
    x = sample_stable_oracle(2.0, RandomStream(10), 200000)
    se = np.std(x**2, ddof=1) / math.sqrt(len(x))
    assert abs(x.var() - 2.0) < 4.0 * se


def test_stable_oracle_cauchy_endpoint_has_unit_quartiles():
    x = sample_stable_oracle(1.0, RandomStream(11), 200000)
    q1, q2, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    assert abs(q2) < 0.01
    assert abs(q1 + 1.0) < 0.02
    assert abs(q3 - 1.0) < 0.02


def test_stable_oracle_draw_order_and_gaussian_identity():
    # 2n uniforms: the first n set the angle, the last n the exponential;
    # at alpha = 2 the variate reduces to 2 sin(U) sqrt(W)
    us = np.array([0.3, 0.6, 0.9, 0.2])
    x = sample_stable_oracle(2.0, StubUniforms(us), 2)
    angle = np.pi * (us[:2] - 0.5)
    w = -np.log(us[2:])
    assert x == pytest.approx(2.0 * np.sin(angle) * np.sqrt(w), rel=1e-12)


def test_stable_oracle_is_continuous_at_alpha_one():
    us = np.linspace(0.05, 0.95, 10)
    block = np.concatenate([us, np.full(10, 0.4)])
    near = sample_stable_oracle(1.0 + 1e-9, StubUniforms(block), 10)
    at = sample_stable_oracle(1.0, StubUniforms(block), 10)
    # at alpha = 1 the variate is tan(U) exactly
    assert at == pytest.approx(np.tan(np.pi * (us - 0.5)), rel=1e-12)
    assert near == pytest.approx(at, rel=1e-6)


def test_stable_oracle_is_symmetric():
    x = sample_stable_oracle(1.5, RandomStream(14), 100000)
    assert abs(np.mean(np.tanh(x))) < 0.01


def test_stable_oracle_domain_and_scalar_form():
    for alpha in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            sample_stable_oracle(alpha, RandomStream(1), 2)
    assert isinstance(sample_stable_oracle(1.2, RandomStream(15)), float)
