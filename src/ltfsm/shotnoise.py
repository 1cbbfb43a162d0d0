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
at large arguments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from scipy.special import gammaln

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


# -- moment constants ----------------------------------------------------------


def bound_B_q(q: float) -> float:
    """Gaussian q-th-moment constant; 1 at q = 2, increasing in q."""
    if not 2.0 <= q < math.inf:
        raise ValueError("q must be finite and >= 2")
    if q == 2.0:
        return 1.0
    log_val = 0.5 * math.log(2.0) + (
        gammaln((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    ) / q
    return float(math.exp(log_val))


def bound_H_nq(n: int, q: float, alpha: float) -> float:
    """Gamma-ratio factor ``Gamma(n - q/alpha) * n**(q/alpha) / Gamma(n)``."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if not 0.0 < q < math.inf:
        raise ValueError("q must be finite and > 0")
    r = q / alpha
    if not (float(n).is_integer() and n > r):
        raise ValueError("n must be an integer that exceeds q / alpha")
    return float(math.exp(gammaln(n - r) + r * math.log(n) - gammaln(n)))


def _a_q(q: float, alpha: float, moment_q: float) -> float:
    return 2.0 * bound_B_q(q) ** q * moment_q * (alpha / (2.0 - alpha)) ** (q / 2.0)


def _a_prime_q(q: float, alpha: float, beta: float) -> float:
    denom = 2.0 - alpha * beta - alpha
    return bound_B_q(q) ** q * (alpha / denom) ** (q / 2.0)


def _check_bound_args(N: int, q: float, alpha: float) -> None:
    if not (float(N).is_integer() and N >= 1):
        raise ValueError("N must be an integer >= 1")
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if not 2.0 <= q < math.inf:
        raise ValueError("q must be finite and >= 2")


def _check_lp_args(q: float, p: float, vol_k: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if not q > max(p, 2.0):
        raise ValueError("q must exceed max(p, 2)")
    if not 0.0 < vol_k < math.inf:
        raise ValueError("vol_k must be finite and > 0")


# -- truncation budget ----------------------------------------------------------


def truncation_bound(N: int, q: float, alpha: float, moment_q: float) -> float:
    """Uniform-in-time bound on the q-th moment of the tail beyond N terms.

    ``moment_q`` is the q-th moment of the inner curve's sup norm.  Requires
    ``(N + 1) * alpha > q`` so the first tail arrival has the needed negative
    moment.
    """
    _check_bound_args(N, q, alpha)
    if not 0.0 <= moment_q < math.inf:
        raise ValueError("moment_q must be finite and >= 0")
    if not (N + 1) * alpha > q:
        raise ValueError("(N + 1) * alpha must exceed q")
    h = bound_H_nq(N + 1, q, alpha)
    return _a_q(q, alpha, moment_q) * h / N ** (q * (2.0 - alpha) / (2.0 * alpha))


def truncation_bound_lp(
    N: int, q: float, alpha: float, moment_q: float, p: float, vol_k: float
) -> float:
    """L^p-over-a-compact version of :func:`truncation_bound`.

    Uses the H factor at index N itself, so N must strictly exceed
    ``q / alpha`` (one step past the uniform version's requirement).
    """
    _check_lp_args(q, p, vol_k)
    _check_bound_args(N, q, alpha)
    if not N * alpha > q:
        raise ValueError("N * alpha must exceed q")
    if not 0.0 <= moment_q < math.inf:
        raise ValueError("moment_q must be finite and >= 0")
    h = bound_H_nq(N, q, alpha)
    return (
        vol_k ** (q / p)
        * _a_q(q, alpha, moment_q)
        * h
        / N ** (q * (2.0 - alpha) / (2.0 * alpha))
    )


# -- inner-curve approximation budget --------------------------------------------


def _check_approx_args(
    N: int, P: float, q: float, alpha: float, beta: float, moment_qk: float
) -> None:
    _check_bound_args(N, q, alpha)
    if not (N + 1) * alpha > q:
        raise ValueError("(N + 1) * alpha must exceed q")
    if not -math.inf < beta < 1.0 / alpha - 0.5:
        raise ValueError("beta must be finite and < 1/alpha - 1/2")
    if not 0.0 <= moment_qk < math.inf:
        raise ValueError("moment_qk must be finite and >= 0")
    if not (P == math.inf or (float(P).is_integer() and P >= N)):
        raise ValueError("P must be an integer >= N, or infinity")


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
