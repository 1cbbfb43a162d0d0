"""Reference sampler for symmetric alpha-stable marginals.

This is the comparison *oracle* used by the statistical checks and the
``stable-check`` command.  The series simulation never draws from it; the
random-walk baseline (``ltfsm.process._rwrr_row``) draws its site rewards
through the same transform, ``_stable_from_uniforms``, on its own raw words.

The variate is the Chambers-Mallows-Stuck transform for the symmetric case
(skewness 0, unit scale, characteristic function ``exp(-|u|**alpha)``):

    U ~ Uniform(-pi/2, pi/2),   W ~ Exponential(1),

    X = sin(alpha U) / cos(U)**(1/alpha)
        * ( cos((1 - alpha) U) / W )**((1 - alpha)/alpha).

The formula is continuous in alpha on (0, 2]: at alpha = 1 the second factor
has exponent 0 and X reduces to tan(U) (standard Cauchy); at alpha = 2 it
reduces to 2 sin(U) sqrt(W), a centered Gaussian with variance 2.

Draw order: ``2n`` uniforms, the first ``n`` mapped to U, the last ``n``
mapped to W.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_stable_oracle"]


def _check_stable_alpha(alpha: float) -> None:
    """Refuse a stability index outside (0, 2], the range of the symmetric
    stable laws (NaN fails the comparison too); the shot-noise series needs
    alpha < 2 (``fbm._check_alpha``)."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")


def sample_stable_oracle(alpha: float, stream, size: int) -> np.ndarray:
    """Draw ``size`` standard symmetric alpha-stable variates, ``alpha`` in
    (0, 2]."""
    _check_stable_alpha(alpha)
    return _stable_from_uniforms(alpha, stream.uniform(2 * int(size)))


def _stable_from_uniforms(alpha: float, u: np.ndarray) -> np.ndarray:
    """The transform above on ``2n`` uniforms: ``n`` variates, the first half
    of ``u`` giving the angles and the second half the exponentials.

    Leaves ``u`` as it is and works in three arrays of ``n`` floats: ``x``
    (the first factor, then the result), ``w`` (the first factor's
    denominator, then the exponentials) and ``angle`` (the angles, then the
    second factor).  Each factor runs the ufuncs of the formula above in its
    order, so the variates are bitwise those of the formula."""
    n = len(u) // 2
    angle = u[:n] - 0.5
    angle *= np.pi
    x = np.multiply(alpha, angle)
    np.sin(x, out=x)
    w = np.cos(angle)
    w **= 1.0 / alpha
    x /= w
    np.multiply(1.0 - alpha, angle, out=angle)
    np.cos(angle, out=angle)
    np.log(u[n:], out=w)
    np.negative(w, out=w)
    angle /= w
    angle **= (1.0 - alpha) / alpha
    x *= angle
    return x
