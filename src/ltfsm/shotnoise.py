"""Error budgets of the truncated shot-noise (arrival-weighted) series.

The series sums ``Gamma_n**(-1/alpha) * V_n`` over Poisson arrival times
``Gamma_1 < Gamma_2 < ...`` (simulated in :mod:`ltfsm.process`).

With ``q >= 2``, ``B_q`` denotes the Gaussian-moment constant (``B_2 = 1``;
for larger ``q`` it is ``sqrt(2) * (Gamma((q+1)/2) / sqrt(pi))**(1/q)``), and

    H_{n,q} = Gamma(n - q/alpha) * n**(q/alpha) / Gamma(n),

which tends to 1 as n grows and, for n > q/alpha, decreases toward it, so the
first admissible index dominates the tail.  The budget functions below bound
the q-th moment of the tail left after truncating at N terms, and of the
inner-curve approximation error accumulated between terms N+1 and P.  All
Gamma-function ratios are evaluated in log space (``gammaln``) for stability
at large arguments.  :func:`bound_B_q` (for q != 2) and :func:`bound_H_nq`
take ``gammaln`` from :func:`ltfsm.streams._special_ufunc` when they first
need it, after their own argument checks, so importing this module loads
nothing of SciPy (see that function for what a bound loads).  Each public
budget returns a finite float, or raises ``ValueError`` naming itself when
its value leaves the float range (``bounds --Mq 1e308``, or ``--q 300`` at
alpha = 1.99), so the CLI exits 2 and writes nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

from .fbm import _check_alpha, _check_positive
from .streams import _special_ufunc

__all__ = [
    "bound_B_q",
    "bound_H_nq",
    "truncation_bound",
    "truncation_bound_lp",
    "approximation_bound",
    "approximation_bound_lp",
    "BoundReport",
    "build_bound_report",
]


def _in_float_range(bound):
    """Wrap the public budget ``bound`` so that it returns a finite float, or
    raises ``ValueError`` naming it when its value leaves the float range
    (an ``OverflowError``, ``inf`` or ``nan``)."""

    @functools.wraps(bound)
    def checked(*args, **kwargs) -> float:
        try:
            value = bound(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{bound.__name__} leaves the float range at these arguments")
        return value

    return checked


# -- moment constants ----------------------------------------------------------


@_in_float_range
def bound_B_q(q: float) -> float:
    """Gaussian q-th-moment constant; 1 at q = 2, increasing in q."""
    _check_q(q)
    if q == 2.0:
        return 1.0
    gammaln = _special_ufunc("gammaln")  # loaded on first use; see the module docstring
    log_val = 0.5 * math.log(2.0) + (
        gammaln((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    ) / q
    return float(math.exp(log_val))


@_in_float_range
def bound_H_nq(n: int, q: float, alpha: float) -> float:
    """Gamma-ratio factor ``Gamma(n - q/alpha) * n**(q/alpha) / Gamma(n)``."""
    _check_alpha(alpha)
    _check_positive("q", q)
    r = q / alpha
    if not (float(n).is_integer() and n > r):
        raise ValueError("n must be an integer that exceeds q / alpha")
    gammaln = _special_ufunc("gammaln")  # loaded on first use; see the module docstring
    # a float n: gammaln cannot take an integer past 2**64
    return float(math.exp(gammaln(n - r) + r * math.log(n) - gammaln(float(n))))


def _a_q(q: float, alpha: float, moment_q: float) -> float:
    return 2.0 * bound_B_q(q) ** q * moment_q * (alpha / (2.0 - alpha)) ** (q / 2.0)


def _a_prime_q(q: float, alpha: float, beta: float) -> float:
    denom = 2.0 - alpha * beta - alpha
    return bound_B_q(q) ** q * (alpha / denom) ** (q / 2.0)


def _check_q(q: float) -> None:
    if not 2.0 <= q < math.inf:
        raise ValueError("q must be finite and >= 2")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0")


def _check_bound_args(N: int, q: float, alpha: float, shift: int) -> None:
    """The rules of every budget whose H factor sits at index ``N + shift``
    (``shift`` 1, or 0 for :func:`truncation_bound_lp`), an index that must
    exceed ``q / alpha``."""
    if not (float(N).is_integer() and N >= 1):
        raise ValueError("N must be an integer >= 1")
    _check_alpha(alpha)
    _check_q(q)
    if not (N + shift) * alpha > q:
        raise ValueError(f"{'(N + 1)' if shift else 'N'} * alpha must exceed q")


def _check_lp_args(q: float, p: float, vol_k: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if not q > max(p, 2.0):
        raise ValueError("q must exceed max(p, 2)")
    _check_positive("vol_k", vol_k)


# -- truncation budget ----------------------------------------------------------


def _truncation(
    N: int, q: float, alpha: float, moment_q: float, shift: int, vol_k: float = 1.0, p: float = 1.0
) -> float:
    """``vol_k**(q/p) A_q H_{N+shift,q} / N**(q (2 - alpha) / (2 alpha))``; at
    the default ``vol_k`` and ``p`` the first factor is exactly 1."""
    _check_bound_args(N, q, alpha, shift)
    _check_nonnegative("moment_q", moment_q)
    h = bound_H_nq(N + shift, q, alpha)
    expo = q * (2.0 - alpha) / (2.0 * alpha)
    return vol_k ** (q / p) * _a_q(q, alpha, moment_q) * h / N**expo


@_in_float_range
def truncation_bound(N: int, q: float, alpha: float, moment_q: float) -> float:
    """Uniform-in-time bound on the q-th moment of the tail beyond N terms.

    ``moment_q`` is the q-th moment of the inner curve's sup norm.  Requires
    ``(N + 1) * alpha > q`` so the first tail arrival has the needed negative
    moment.
    """
    return _truncation(N, q, alpha, moment_q, 1)


@_in_float_range
def truncation_bound_lp(
    N: int, q: float, alpha: float, moment_q: float, p: float, vol_k: float
) -> float:
    """L^p-over-a-compact version of :func:`truncation_bound`.

    Uses the H factor at index N itself, so N must strictly exceed
    ``q / alpha`` (one step past the uniform version's requirement).
    """
    _check_lp_args(q, p, vol_k)
    return _truncation(N, q, alpha, moment_q, 0, vol_k, p)


# -- inner-curve approximation budget --------------------------------------------


def _check_approx_args(
    N: int, P: float, q: float, alpha: float, beta: float, moment_qk: float
) -> None:
    _check_bound_args(N, q, alpha, 1)
    if not -math.inf < beta < 1.0 / alpha - 0.5:
        raise ValueError("beta must be finite and < 1/alpha - 1/2")
    _check_nonnegative("moment_qk", moment_qk)
    if not (P == math.inf or (float(P).is_integer() and P >= N)):
        raise ValueError("P must be an integer >= N, or infinity")


@_in_float_range
def approximation_bound(
    N: int, P: float, q: float, alpha: float, beta: float, moment_qk: float
) -> float:
    """Bound on the q-th moment of the summed inner-curve errors, terms N+1..P.

    ``moment_qk`` bounds the per-term error moment growth ``n**(q beta)``.
    ``P`` may be ``math.inf`` (the supremum over block lengths); ``P = N``
    gives an empty block and a zero bound.
    """
    _check_approx_args(N, P, q, alpha, beta, moment_qk)
    expo = 2.0 / alpha - beta - 1.0
    gap = N ** (-expo) - float(P) ** (-expo)
    h = bound_H_nq(N + 1, q, alpha)
    return _a_prime_q(q, alpha, beta) * h * moment_qk * gap ** (q / 2.0)


@_in_float_range
def approximation_bound_lp(
    N: int,
    P: float,
    q: float,
    alpha: float,
    beta: float,
    moment_qk: float,
    p: float,
    vol_k: float,
) -> float:
    """L^p-over-a-compact version of :func:`approximation_bound`."""
    _check_lp_args(q, p, vol_k)
    return vol_k ** (q / p) * approximation_bound(N, P, q, alpha, beta, moment_qk)


# -- assembled report -------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Every budget constant for one (N, P, q, alpha, beta) configuration."""

    q: float
    alpha: float
    B_q: float
    H_Nplus1_q: float
    A_q: float
    A_prime_q: float
    M_q: float
    M_qk: float
    truncation_bound: float
    approximation_bound: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def build_bound_report(
    N: int,
    q: float,
    alpha: float,
    moment_q: float = 1.0,
    moment_qk: float = 1.0,
    P: float = math.inf,
    beta: float = 0.0,
) -> BoundReport:
    """Evaluate the full budget for one configuration.

    With ``P`` omitted the approximation entry is its supremum over block
    lengths.
    """
    trunc = truncation_bound(N, q, alpha, moment_q)
    approx = approximation_bound(N, P, q, alpha, beta, moment_qk)
    return BoundReport(
        q=q,
        alpha=alpha,
        B_q=bound_B_q(q),
        H_Nplus1_q=bound_H_nq(N + 1, q, alpha),
        A_q=_a_q(q, alpha, moment_q),
        A_prime_q=_a_prime_q(q, alpha, beta),
        M_q=moment_q,
        M_qk=moment_qk,
        truncation_bound=trunc,
        approximation_bound=approx,
    )
