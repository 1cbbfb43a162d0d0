"""The benchmark's rebuilt pipelines against the drivers they rebuild.

``bench/rebuild.py`` repeats each driver's pipeline stage by stage so that the
traced benchmark can time the stages; its results must stay bitwise equal to
the drivers'.  These tiny-size checks catch a drifted pipeline, or an import
the rebuild still needs, before a benchmark run does.
"""

import contextlib
import io
import os
import sys
import warnings

import pytest

from ltfsm import cf_linearity_experiment, series_path_ensemble, stable_marginal_check
from ltfsm.cli import main
from ltfsm.streams import RandomStream

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

import rebuild  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import same  # noqa: E402


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_series_ensemble_matches_its_rebuild(hurst):
    args = (1.2, hurst, 9, 6, 4, 32)
    driver = series_path_ensemble(*args, RandomStream(3), grid_points=7)
    rebuilt = rebuild.series_path_ensemble(Tracer(), *args, RandomStream(3), grid_points=7)
    assert same(driver, rebuilt)


@pytest.mark.parametrize("method", ["series", "rwrr"])
def test_cf_linearity_matches_its_rebuild(method):
    sizes = dict(u=1.0, n_times=5, terms=6, bandwidth=4, points=32, steps=200)
    r = cf_linearity_experiment(method, 1.0, 0.5, 20, RandomStream(4), **sizes)
    driver = (r.times, r.log_modulus, r.stderr, r.slope, r.intercept, r.r_squared)
    rebuilt = rebuild.cf_linearity_experiment(
        Tracer(), method, 1.0, 0.5, 20, RandomStream(4), **sizes
    )
    assert same(driver, tuple(rebuilt))


def test_stable_marginal_check_matches_its_rebuild():
    r = stable_marginal_check(1.2, 40, 300, RandomStream(5))
    rebuilt = rebuild.stable_marginal_check(Tracer(), 1.2, 40, 300, RandomStream(5))
    assert same((r.fitted_scale, r.ks), tuple(rebuilt))


def test_capped_tuned_simulate_csv_matches_its_rebuild(tmp_path):
    # the simulate_tuned workload's shape with a smaller cap
    options = {"alpha": 1.2, "hurst": 0.7, "epsilon": 0.4, "delta": 0.17,
               "delta-prime": 0.2, "max-points": 512, "seed": 9}
    argv = ["simulate"]
    for flag, value in options.items():
        argv += [f"--{flag}", str(value)]
    driver_out = tmp_path / "driver.csv"
    rebuilt_out = tmp_path / "rebuilt.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(driver_out)]) == 0
        rebuild.cli_simulate(Tracer(), {**options, "out": str(rebuilt_out)}, io.StringIO())
    assert any("capped at max_points=512" in str(w.message) for w in caught)
    assert driver_out.read_bytes() == rebuilt_out.read_bytes()
