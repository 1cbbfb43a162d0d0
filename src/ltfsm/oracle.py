"""Reference sampler for symmetric alpha-stable marginals.

This is the comparison *oracle* used by the statistical checks and the
``stable-check`` command; the simulation engine itself never draws from it.

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


def sample_stable_oracle(alpha: float, stream, size: int | None = None):
    """Draw standard symmetric alpha-stable variates, ``alpha`` in (0, 2]."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    n = 1 if size is None else int(size)
    x = _stable_from_uniforms(alpha, stream.uniform(2 * n))
    return float(x[0]) if size is None else x


def _stable_from_uniforms(alpha: float, u: np.ndarray) -> np.ndarray:
    """The transform above on ``2n`` uniforms: ``n`` variates, the first half
    of ``u`` giving the angles and the second half the exponentials."""
    n = len(u) // 2
    angle = np.pi * (u[:n] - 0.5)
    w = -np.log(u[n:])
    x = np.sin(alpha * angle) / np.cos(angle) ** (1.0 / alpha)
    return x * (np.cos((1.0 - alpha) * angle) / w) ** ((1.0 - alpha) / alpha)
