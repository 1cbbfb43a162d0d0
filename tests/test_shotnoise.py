"""Unit tests for the error budgets of the shot-noise series."""

import math

import numpy as np
import pytest

from ltfsm import (
    approximation_bound,
    approximation_bound_lp,
    bound_B_q,
    bound_H_nq,
    build_bound_report,
    truncation_bound,
    truncation_bound_lp,
)

# Frozen closed forms (independently recomputed with math.gamma):
#   B_4 = sqrt(2) * (Gamma(2.5)/sqrt(pi))**(1/4)
#   B_6 = sqrt(2) * (15/8)**(1/6)
B_4 = 1.3160740129524924
B_6 = 1.5704178024750197
# vol**(q/p) * 2 B_3**3 * (Gamma(2) 5**3 / Gamma(5)) / 5**1.5 at
# (N, q, alpha, M, p, vol) = (5, 3, 1, 1, 2, 2)
TRUNC_LP_53122 = 4.2052208700336
# vol**(q/p) * B_3**3 * (Gamma(3) 6**3 / Gamma(6)) * (1/5)**1.5, same setup
APPROX_LP_53122 = 1.4533243326836134


# -- moment constants ----------------------------------------------------------------


def test_gaussian_moment_constant_values():
    assert bound_B_q(2.0) == 1.0
    assert bound_B_q(4.0) == pytest.approx(B_4, rel=1e-14)
    assert bound_B_q(6.0) == pytest.approx(B_6, rel=1e-14)
    # continuous at q = 2 and increasing beyond it
    assert bound_B_q(2.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)
    qs = np.linspace(2.0, 8.0, 13)
    vals = [bound_B_q(float(q)) for q in qs]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        bound_B_q(1.9)


def test_gamma_ratio_factor_values_and_limit():
    assert bound_H_nq(5, 2.0, 1.0) == pytest.approx(50.0 / 24.0, rel=1e-12)
    assert bound_H_nq(10**6, 2.0, 1.0) == pytest.approx(1.0, abs=1e-5)
    # decreasing toward 1 past the first admissible index
    vals = [bound_H_nq(n, 2.0, 1.0) for n in (3, 4, 5, 6, 50, 500)]
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] > 1.0
    with pytest.raises(ValueError):
        bound_H_nq(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        bound_H_nq(5, 0.0, 1.0)
    with pytest.raises(ValueError):
        bound_H_nq(5, 2.0, 2.0)


# -- truncation budget ------------------------------------------------------------------


def test_truncation_bound_frozen_value():
    # A_2 = 2, H_{6,2} = Gamma(4) 36 / Gamma(6) = 1.8, N**-1 = 0.2
    assert truncation_bound(5, 2.0, 1.0, 1.0) == pytest.approx(0.72, rel=1e-12)
    # scales linearly in the moment
    assert truncation_bound(5, 2.0, 1.0, 3.0) == pytest.approx(2.16, rel=1e-12)


def test_truncation_bound_decreases_in_the_cutoff():
    vals = [truncation_bound(n, 2.0, 1.2, 1.0) for n in (2, 4, 8, 16, 64)]
    assert np.all(np.diff(vals) < 0.0)


def test_truncation_bound_domain():
    with pytest.raises(ValueError):
        truncation_bound(1, 2.5, 1.0, 1.0)  # (N + 1) alpha <= q
    with pytest.raises(ValueError):
        truncation_bound(0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_bound(5, 2.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        truncation_bound(5, 1.5, 1.0, 1.0)  # q < 2
    with pytest.raises(ValueError):
        truncation_bound(5, 2.0, 2.0, 1.0)


def test_truncation_bound_lp_frozen_value():
    assert truncation_bound_lp(5, 3.0, 1.0, 1.0, 2.0, 2.0) == pytest.approx(
        TRUNC_LP_53122, rel=1e-10
    )


def test_truncation_bound_lp_domain():
    with pytest.raises(ValueError):
        truncation_bound_lp(5, 3.0, 1.0, 1.0, 0.5, 2.0)  # p < 1
    with pytest.raises(ValueError):
        truncation_bound_lp(5, 2.0, 1.0, 1.0, 2.0, 2.0)  # q <= max(p, 2)
    with pytest.raises(ValueError):
        truncation_bound_lp(3, 3.0, 1.0, 1.0, 2.0, 2.0)  # N alpha <= q
    with pytest.raises(ValueError):
        truncation_bound_lp(5, 3.0, 1.0, 1.0, 2.0, 0.0)  # vol <= 0


# -- approximation budget ----------------------------------------------------------------


def test_approximation_bound_block_ladder():
    # N=5, q=2, alpha=1, beta=0: value is 1.8 * (1/5 - 1/P)
    args = (5, 2.0, 1.0, 0.0, 1.0)
    assert approximation_bound(args[0], 5.0, *args[1:]) == 0.0
    ladder = [
        approximation_bound(args[0], P, *args[1:])
        for P in (6.0, 10.0, 100.0, math.inf)
    ]
    assert ladder == pytest.approx([0.06, 0.18, 0.342, 0.36], rel=1e-9)
    assert np.all(np.diff(ladder) > 0.0)  # grows toward the supremum


def test_approximation_bound_domain():
    with pytest.raises(ValueError):
        approximation_bound(5, 7.5, 2.0, 1.0, 0.0, 1.0)  # non-integer P
    with pytest.raises(ValueError):
        approximation_bound(5, 4.0, 2.0, 1.0, 0.0, 1.0)  # P < N
    with pytest.raises(ValueError):
        approximation_bound(5, math.inf, 2.0, 1.0, 0.5, 1.0)  # beta >= 1/alpha - 1/2
    with pytest.raises(ValueError):
        approximation_bound(5, math.inf, 2.0, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        approximation_bound(1, math.inf, 2.5, 1.0, 0.0, 1.0)  # (N+1) alpha <= q


def test_approximation_bound_lp_frozen_value():
    assert approximation_bound_lp(
        5, math.inf, 3.0, 1.0, 0.0, 1.0, 2.0, 2.0
    ) == pytest.approx(APPROX_LP_53122, rel=1e-10)
    with pytest.raises(ValueError):
        approximation_bound_lp(5, math.inf, 3.0, 1.0, 0.0, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        approximation_bound_lp(5, math.inf, 2.0, 1.0, 0.0, 1.0, 2.0, 2.0)


# -- assembled report ------------------------------------------------------------------------


def test_bound_report_matches_the_standalone_functions():
    report = build_bound_report(N=5, q=2.0, alpha=1.0, moment_q=1.0, moment_qk=1.0)
    assert report.B_q == bound_B_q(2.0)
    assert report.H_Nplus1_q == bound_H_nq(6, 2.0, 1.0)
    assert report.truncation_bound == truncation_bound(5, 2.0, 1.0, 1.0)
    assert report.approximation_bound == approximation_bound(
        5, math.inf, 2.0, 1.0, 0.0, 1.0
    )
    assert report.A_q == pytest.approx(2.0, rel=1e-14)
    assert report.A_prime_q == pytest.approx(1.0, rel=1e-14)
    d = report.as_dict()
    assert d["truncation_bound"] == report.truncation_bound
    assert list(d) == [
        "q",
        "alpha",
        "B_q",
        "H_Nplus1_q",
        "A_q",
        "A_prime_q",
        "M_q",
        "M_qk",
        "truncation_bound",
        "approximation_bound",
    ]


NAN = math.nan


@pytest.mark.parametrize(
    "bound, args",
    [
        (bound_B_q, (NAN,)),
        (bound_H_nq, (6, NAN, 1.0)),
        (truncation_bound, (NAN, 2.0, 1.0, 1.0)),
        (truncation_bound, (5, NAN, 1.0, 1.0)),
        (truncation_bound, (5, 2.0, 1.0, NAN)),
        (truncation_bound_lp, (5, 3.0, 1.0, NAN, 2.0, 2.0)),
        (truncation_bound_lp, (5, 3.0, 1.0, 1.0, NAN, 2.0)),
        (truncation_bound_lp, (5, 3.0, 1.0, 1.0, 2.0, NAN)),
        (approximation_bound, (5, NAN, 2.0, 1.0, 0.0, 1.0)),
        (approximation_bound, (5, math.inf, NAN, 1.0, 0.0, 1.0)),
        (approximation_bound, (5, math.inf, 2.0, 1.0, NAN, 1.0)),
        (approximation_bound, (5, math.inf, 2.0, 1.0, 0.0, NAN)),
        (approximation_bound_lp, (5, math.inf, 3.0, 1.0, 0.0, 1.0, NAN, 2.0)),
        (approximation_bound_lp, (5, math.inf, 3.0, 1.0, 0.0, 1.0, 2.0, NAN)),
    ],
    ids=lambda x: x.__name__ if callable(x) else str(x.index(NAN) if NAN in x else ""),
)
def test_a_nan_argument_fails_the_domain_check(bound, args):
    with pytest.raises(ValueError):
        bound(*args)


INF = math.inf


@pytest.mark.parametrize(
    "bound, args, name",
    [
        (bound_B_q, (INF,), "q"),
        (bound_H_nq, (6, INF, 1.0), "q"),
        (bound_H_nq, (6, 2.0, INF), "alpha"),
        (truncation_bound, (5, INF, 1.0, 1.0), "q"),
        (truncation_bound, (5, 2.0, -INF, 1.0), "alpha"),
        (truncation_bound, (5, 2.0, 1.0, INF), "moment_q"),
        (truncation_bound_lp, (5, INF, 1.0, 1.0, 2.0, 2.0), "q"),
        (truncation_bound_lp, (5, 3.0, 1.0, INF, 2.0, 2.0), "moment_q"),
        (truncation_bound_lp, (5, 3.0, 1.0, 1.0, INF, 2.0), "p"),
        (truncation_bound_lp, (5, 3.0, 1.0, 1.0, 2.0, INF), "vol_k"),
        (approximation_bound, (5, INF, INF, 1.0, 0.0, 1.0), "q"),
        (approximation_bound, (5, INF, 2.0, INF, 0.0, 1.0), "alpha"),
        (approximation_bound, (5, INF, 2.0, 1.0, -INF, 1.0), "beta"),
        (approximation_bound, (5, INF, 2.0, 1.0, 0.0, INF), "moment_qk"),
        (approximation_bound_lp, (5, INF, 3.0, 1.0, 0.0, 1.0, INF, 2.0), "p"),
        (approximation_bound_lp, (5, INF, 3.0, 1.0, 0.0, 1.0, 2.0, INF), "vol_k"),
        (build_bound_report, (5, 2.0, 1.0, INF), "moment_q"),
        (build_bound_report, (5, 2.0, 1.0, 1.0, INF), "moment_qk"),
    ],
)
def test_an_infinite_argument_is_rejected_by_name(bound, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        bound(*args)


def test_an_infinite_block_end_stays_legal():
    assert math.isfinite(approximation_bound(5, INF, 2.0, 1.0, -1.0, 1.0))
    assert math.isfinite(build_bound_report(5, 2.0, 1.0, P=INF).approximation_bound)


def test_bound_report_with_finite_block():
    report = build_bound_report(N=5, q=2.0, alpha=1.0, P=10.0)
    assert report.approximation_bound == pytest.approx(0.18, rel=1e-9)


@pytest.mark.parametrize("value", [INF, NAN, 5.5])
@pytest.mark.parametrize(
    "bound, args, name",
    [
        (bound_H_nq, (2.0, 1.0), "n"),
        (truncation_bound, (2.0, 1.0, 1.0), "N"),
        (truncation_bound_lp, (3.0, 1.0, 1.0, 2.0, 2.0), "N"),
        (approximation_bound, (INF, 2.0, 1.0, 0.0, 1.0), "N"),
        (approximation_bound_lp, (INF, 3.0, 1.0, 0.0, 1.0, 2.0, 2.0), "N"),
        (build_bound_report, (2.0, 1.0), "N"),
    ],
    ids=lambda x: x.__name__ if callable(x) else "",
)
def test_a_term_count_that_is_not_a_finite_integer_is_rejected_by_name(
    bound, args, name, value
):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        bound(value, *args)
