"""Unit tests for the validation statistics."""

import math

import numpy as np
import pytest

from ltfsm import (
    empirical_cf,
    fbm_path,
    fit_scale_by_cf,
    holder_exponent_estimate,
    ks_distance,
    linreg_r2,
    validation,
)
from ltfsm.oracle import sample_stable_oracle
from ltfsm.streams import RandomStream


# -- least squares -----------------------------------------------------------------


def test_linreg_hand_case():
    slope, intercept, r2 = linreg_r2([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
    assert slope == pytest.approx(0.6, rel=1e-14)
    assert intercept == pytest.approx(0.1, rel=1e-13)
    assert r2 == pytest.approx(0.9, rel=1e-13)


def test_linreg_perfect_and_constant_responses():
    x = np.array([0.0, 1.0, 2.0, 5.0])
    slope, intercept, r2 = linreg_r2(x, 3.0 * x - 1.0)
    assert slope == pytest.approx(3.0, rel=1e-13)
    assert intercept == pytest.approx(-1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-14)
    slope, intercept, r2 = linreg_r2(x, np.full(4, 2.5))
    assert slope == 0.0
    assert intercept == 2.5
    assert r2 == 1.0


def test_linreg_r2_is_affine_invariant():
    x = np.array([0.1, 0.7, 1.3, 2.0, 2.2])
    y = np.array([1.0, 0.4, 0.9, 1.7, 1.2])
    _, _, base = linreg_r2(x, y)
    _, _, moved = linreg_r2(4.0 * x - 3.0, 0.5 * y + 11.0)
    assert moved == pytest.approx(base, rel=1e-12)


def test_linreg_domain():
    with pytest.raises(ValueError):
        linreg_r2([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])  # constant regressor
    with pytest.raises(ValueError):
        linreg_r2([1.0], [2.0])
    with pytest.raises(ValueError):
        linreg_r2([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "x, y, name",
    [
        ([0.0, 1e155, 2e155], [0.0, 1.0, 2.0], "x"),
        ([0.0, 1.0, 2.0], [0.0, 1e155, 2e155], "y"),
        ([0.0, 1.0, np.nan], [0.0, 1.0, 2.0], "x"),
    ],
    ids=["x-overflows", "y-overflows", "nan"],
)
def test_linreg_refuses_a_sum_of_squares_that_is_not_finite(x, y, name):
    with pytest.raises(ValueError, match=f"sum of squares of {name} leaves the float range"):
        linreg_r2(x, y)


# -- empirical characteristic function --------------------------------------------------


def test_empirical_cf_two_point_hand_case():
    est = empirical_cf(np.array([1.0, 2.0]), math.pi / 2.0)
    # cos: (0, -1), sin: (1, 0) -> mean (-1/2, 1/2), modulus sqrt(2)/2
    assert est.re[0] == pytest.approx(-0.5, rel=1e-14)
    assert est.im[0] == pytest.approx(0.5, rel=1e-14)
    assert est.modulus[0] == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_empirical_cf_matches_the_gaussian_law():
    g = RandomStream(77).gaussian(50000)
    est = empirical_cf(g, 1.0)
    assert abs(est.modulus[0] - math.exp(-0.5)) < 4.0 * est.stderr[0]
    assert est.modulus[0] <= 1.0 + 1e-15


def test_empirical_cf_stderr_has_unit_coverage():
    # the delta-method stderr should normalize the modulus error across
    # independent replications
    target = math.exp(-0.5)
    z = []
    base = RandomStream(31)
    for j in range(200):
        g = base.substream(j).gaussian(500)
        est = empirical_cf(g, 1.0)
        z.append((est.modulus[0] - target) / est.stderr[0])
    spread = np.std(z, ddof=1)
    assert 0.75 < spread < 1.35
    assert abs(np.mean(z)) < 0.3


def test_empirical_cf_shapes_and_domain():
    samples = RandomStream(5).gaussian(300).reshape(100, 3)
    est = empirical_cf(samples, 0.7)
    assert est.re.shape == est.im.shape == est.stderr.shape == (3,)
    assert est.u == 0.7
    with pytest.raises(ValueError):
        empirical_cf(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        empirical_cf(np.zeros((2, 2, 2)), 1.0)


@pytest.mark.parametrize("paths, times", [(2, 1), (257, 7), (3000, 20)])
def test_empirical_cf_is_bitwise_the_var_formula_and_leaves_its_input(paths, times):
    x = np.random.default_rng(paths).standard_cauchy((paths, times))
    before = x.copy()
    u, n = 0.7, paths
    cos, sin = np.cos(u * x), np.sin(u * x)
    re, im = cos.mean(axis=0), sin.mean(axis=0)
    var_c = cos.var(axis=0, ddof=1) / n
    var_s = sin.var(axis=0, ddof=1) / n
    cov = ((cos - re) * (sin - im)).sum(axis=0) / (n - 1) / n
    stderr = np.sqrt(
        np.maximum(re**2 * var_c + im**2 * var_s + 2.0 * re * im * cov, 0.0)
    ) / np.maximum(np.hypot(re, im), 1e-300)
    est = empirical_cf(x, u)
    assert [a.tobytes() for a in (est.re, est.im, est.stderr)] == [
        a.tobytes() for a in (re, im, stderr)
    ]
    assert x.tobytes() == before.tobytes()


# -- Kolmogorov-Smirnov -------------------------------------------------------------------


def test_ks_distance_hand_case():
    # pooled CDF gaps of {1,2,3} vs {1.5,2.5} peak at 1/3
    assert ks_distance([1.0, 2.0, 3.0], [1.5, 2.5]) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_ks_distance_extremes_symmetry_and_invariance():
    a = RandomStream(1).gaussian(500)
    b = RandomStream(2).gaussian(800)
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 100.0) == 1.0
    assert ks_distance(a, b) == pytest.approx(ks_distance(b, a), rel=1e-14)
    # invariant under strictly increasing transforms
    assert ks_distance(np.exp(a), np.exp(b)) == pytest.approx(
        ks_distance(a, b), rel=1e-12
    )
    with pytest.raises(ValueError):
        ks_distance([], [1.0])


def test_ks_distance_shrinks_for_equal_laws():
    a = RandomStream(3).gaussian(4000)
    b = RandomStream(4).gaussian(4000)
    assert ks_distance(a, b) < 0.05


def _pooled_ks(a, b) -> float:
    """The KS statistic over the pooled sample, both CDFs evaluated at every
    point of both samples."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


_BLOCK = validation._KS_BLOCK


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, 1.0, 1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 4.0]),  # ties within and across
        (np.round(RandomStream(5).gaussian(300), 1), np.round(RandomStream(6).gaussian(517), 1)),
        ([-np.inf, 0.0, 1.0, np.inf, np.inf], [-np.inf, -np.inf, 0.5, 2.0]),
        ([0.25], RandomStream(7).gaussian(1000)),  # unequal sizes
        (np.round(RandomStream(8).gaussian(3 * _BLOCK + 5), 2),
         np.round(RandomStream(9).gaussian(_BLOCK + 1), 2)),  # above one block
    ],
    ids=["ties", "rounded", "inf", "unequal", "blocks"],
)
@pytest.mark.parametrize("block", [_BLOCK, 3])
def test_ks_distance_is_bitwise_the_pooled_formula(monkeypatch, a, b, block):
    monkeypatch.setattr(validation, "_KS_BLOCK", block)
    for x, y in ((a, b), (b, a)):
        assert ks_distance(x, y).hex() == _pooled_ks(x, y).hex()


# -- scale fitting -----------------------------------------------------------------------


def test_fit_scale_recovers_a_known_scaling():
    x = 2.0 * sample_stable_oracle(1.2, RandomStream(12), 100000)
    assert abs(fit_scale_by_cf(x, 1.2) - 2.0) < 0.1
    g = math.sqrt(2.0) * RandomStream(13).gaussian(100000)
    assert abs(fit_scale_by_cf(g, 2.0) - 1.0) < 0.05


def _list_fit(samples, alpha: float) -> float:
    """``fit_scale_by_cf`` with one fresh ``u * x`` per cosine and sine."""
    x = np.asarray(samples, dtype=float).ravel()
    base = float(np.median(np.abs(x)))
    u_grid = np.array([0.2, 0.4, 0.6, 0.8, 1.0]) / base
    mods = np.array(
        [float(np.hypot(np.cos(u * x).mean(), np.sin(u * x).mean())) for u in u_grid]
    )
    usable = (mods < 1.0 - 1e-12) & (mods > 1e-12)
    y = np.log(-np.log(mods[usable]))
    z = alpha * np.log(u_grid[usable])
    return float(np.exp(np.mean(y - z) / alpha))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("size", [2, 1001, 40000])  # even and odd medians
def test_fit_scale_is_bitwise_the_list_form_and_leaves_its_input(alpha, size):
    x = 3.0 * sample_stable_oracle(alpha, RandomStream(size), size)
    before = x.copy()
    assert fit_scale_by_cf(x, alpha).hex() == _list_fit(x, alpha).hex()
    assert x.tobytes() == before.tobytes()


def test_fit_scale_domain():
    with pytest.raises(ValueError):
        fit_scale_by_cf([1.0], 1.0)
    with pytest.raises(ValueError):
        fit_scale_by_cf([1.0, 2.0], 2.5)
    with pytest.raises(ValueError):
        fit_scale_by_cf(np.zeros(100), 1.0)  # degenerate median


# -- path-regularity diagnostic --------------------------------------------------------------


def test_holder_diagnostic_tracks_the_hurst_index():
    for hurst in (0.3, 0.5, 0.7):
        path = fbm_path(hurst, 1.0, 1024, RandomStream(21))
        est = holder_exponent_estimate(path.times, path.values)
        assert abs(est - hurst) < 0.15


def test_holder_diagnostic_is_exact_for_linear_drift():
    t = np.linspace(0.0, 1.0, 65)
    assert holder_exponent_estimate(t, 3.0 * t) == pytest.approx(1.0, rel=1e-9)


def test_holder_diagnostic_domain():
    t = np.linspace(0.0, 1.0, 65)
    with pytest.raises(ValueError):
        holder_exponent_estimate(t[:3], t[:3])
    with pytest.raises(ValueError):
        holder_exponent_estimate(t, np.zeros(65))  # constant path has no lags
