"""Absolute-scale gates on the full series.

At alpha = 1 the occupation integrates to the time, ``int l(x, t) dx = t``,
so for every Hurst index the series at time t is symmetric 1-stable with
scale ``sigma(t) = sqrt(pi / 2) * t`` (``C_1 = 2 / pi``, standard normal
marks), and the log-modulus of its characteristic function at ``u`` falls
with slope ``-u * sqrt(pi / 2)`` in t.  The acceptance protocol's R^2 and
its comparison with the random walk are blind to a wrong scale; this gate
is not.
"""

import math

from test_acceptance import _cf_result

# The fitted slope over -sqrt(pi / 2) on the acceptance protocol (H = 1/2,
# u = 1, 1e4 paths, P = 64, k = 16, m = 256), over seeds 1-10: mean 0.9681,
# sd 0.0187 (min 0.929, max 0.989; the shortfall below 1 is truncation).
# The band is that mean +- 4 sd.  Seeds 11-20 confirm it: 0.946-0.980; the
# acceptance seed reads 0.982.  Every series weight multiplied by 1.2 reads
# 1.173 there.
_RATIO_BAND = (0.893, 1.043)


def test_series_cf_slope_has_the_exact_scale_at_alpha_1():
    result, _ = _cf_result("series")
    ratio = result.slope / -(result.u * math.sqrt(math.pi / 2.0))
    print(f"series CF slope {result.slope:.4f}, ratio to -u sqrt(pi/2) = {ratio:.4f} "
          f"(needs {_RATIO_BAND[0]} .. {_RATIO_BAND[1]})")
    assert _RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]
