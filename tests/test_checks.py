"""Each argument rule has one home, and every caller of it refuses the same
bad values with the same message, before anything is drawn."""

import math

import numpy as np
import pytest

from ltfsm import (
    FbmPath,
    SeriesConfig,
    approximation_bound_lp,
    bound_H_nq,
    fbm_path,
    fgn_from_noise,
    fit_scale_by_cf,
    increment_autocovariance,
    lepage_marginal_samples,
    occupation_oracle,
    rwrr_path_ensemble,
    sample_stable_oracle,
    series_path_ensemble,
    simulate_rwrr_baseline,
    tail_moment_sweep,
    truncation_bound,
    truncation_bound_lp,
)
from ltfsm.fbm import FbmPath, _grid_times
from ltfsm.streams import RandomStream, _cursor

# callers of the shot-noise range (0, 2), ``fbm._check_alpha``
_SERIES_ALPHA = {
    "series_path_ensemble": lambda a, s: series_path_ensemble(a, 0.7, 2, 1, 1, 4, s),
    "lepage_marginal_samples": lambda a, s: lepage_marginal_samples(a, 4, 2, s),
    "tail_moment_sweep": lambda a, s: tail_moment_sweep(a, [1], 2, s),
    "bound_H_nq": lambda a, s: bound_H_nq(10, 2.5, a),
    "truncation_bound": lambda a, s: truncation_bound(10, 2.5, a, 1.0),
}

# callers of the stable range (0, 2], ``oracle._check_stable_alpha``
_STABLE_ALPHA = {
    "sample_stable_oracle": lambda a, s: sample_stable_oracle(a, s, 2),
    "simulate_rwrr_baseline": lambda a, s: simulate_rwrr_baseline(a, 4, 2, s),
    "rwrr_path_ensemble": lambda a, s: rwrr_path_ensemble(a, 2, 4, s),
    "fit_scale_by_cf": lambda a, s: fit_scale_by_cf(np.array([1.0, -2.0, 3.0]), a),
}

# callers of ``fbm._check_positive``, by the name they refuse
_POSITIVE = {
    "horizon": {
        "fbm_path": lambda v, s: fbm_path(0.7, v, 4, s),
        "simulate_rwrr_baseline": lambda v, s: simulate_rwrr_baseline(1.0, 4, 2, s, v),
        "series_path_ensemble": lambda v, s: series_path_ensemble(1.0, 0.7, 2, 1, 1, 4, s, v),
    },
    "spacing": {
        "fgn_from_noise": lambda v, s: fgn_from_noise(0.7, 8, v, np.zeros(16)),
        "increment_autocovariance": lambda v, s: increment_autocovariance(0.7, [1], v),
    },
    "bin_width": {
        "occupation_oracle": lambda v, s: occupation_oracle(
            FbmPath(0.7, 1.0, np.zeros(5)), v, 0.0, 0.5),
    },
    "vol_k": {
        "truncation_bound_lp": lambda v, s: truncation_bound_lp(10, 2.5, 1.0, 1.0, 2.0, v),
        "approximation_bound_lp": lambda v, s: approximation_bound_lp(
            10, math.inf, 2.5, 1.0, 0.0, 1.0, 2.0, v),
    },
    "q": {
        "bound_H_nq": lambda v, s: bound_H_nq(10, v, 1.0),
    },
}


def _cases(callers, values, message):
    return [pytest.param(call, value, message, id=f"{name}-{value}")
            for name, call in callers.items() for value in values]


@pytest.mark.parametrize(
    "call, value, message",
    _cases(_SERIES_ALPHA, (0.0, 2.0, math.nan), r"alpha must lie in \(0, 2\)")
    + _cases(_STABLE_ALPHA, (0.0, 2.5, math.nan), r"alpha must lie in \(0, 2\]")
    + [case for name, callers in _POSITIVE.items()
       for case in _cases(callers, (0.0, -1.0, math.inf, math.nan),
                          f"{name} must be finite and > 0")],
)
def test_every_caller_of_a_rule_refuses_with_its_one_message(call, value, message):
    stream = RandomStream(5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value, stream)
    assert _cursor(stream)[1] == 0  # nothing drawn


@pytest.mark.parametrize("horizon, grid_points",
                         [(1.0, 200), (0.3, 7), (1e-3, 1), (123.456, 1000), (3.0, 20)])
def test_the_output_grid_is_bitwise_each_former_inline_grid(horizon, grid_points):
    grid = _grid_times(horizon, grid_points)
    assert grid.tobytes() == (np.arange(grid_points + 1) * (horizon / grid_points)).tobytes()
    positive = np.arange(1, grid_points + 1) * (horizon / grid_points)
    assert grid[1:].tobytes() == positive.tobytes()
    config = SeriesConfig(alpha=1.2, hurst=0.3, horizon=horizon, grid_points=grid_points)
    assert config.grid_times.tobytes() == grid.tobytes()
    path = FbmPath(0.7, horizon, np.zeros(grid_points + 1))  # its times were inline too
    assert path.times.tobytes() == grid.tobytes()
