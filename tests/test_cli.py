"""Unit tests for the command line interface."""

import re

import numpy as np
import pytest

from ltfsm import SeriesConfig, flat_params, process, simulate_ltfsm, tune
from ltfsm.cli import _COMMANDS, main
from ltfsm.streams import RandomStream

SIM_ARGS = [
    "simulate",
    "--alpha", "1.2",
    "--hurst", "0.5",
    "--epsilon", "0.8",
    "--seed", "42",
    "--grid", "20",
    "--max-points", "128",
]


def _simulate(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(SIM_ARGS + ["--out", str(out)] + list(extra))
    return code, out


# -- bounds -----------------------------------------------------------------------


def test_bounds_prints_the_frozen_budget(capsys):
    assert main(["bounds", "--alpha", "1", "--q", "2", "--N", "5", "--Mq", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = dict(line.split(" = ") for line in lines)
    assert float(report["truncation_bound"]) == pytest.approx(0.72, rel=1e-9)
    assert float(report["approximation_bound"]) == pytest.approx(0.36, rel=1e-9)
    assert float(report["B_q"]) == 1.0
    assert float(report["H_Nplus1_q"]) == pytest.approx(1.8, rel=1e-9)
    assert report["P"] == "inf"


def test_bounds_finite_block_and_lp_variants(capsys):
    code = main(
        ["bounds", "--alpha", "1", "--q", "3", "--N", "5", "--P", "10",
         "--p", "2", "--volK", "2"]
    )
    assert code == 0
    report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert "truncation_bound_lp" in report
    assert "approximation_bound_lp" in report
    assert float(report["P"]) == 10.0


def test_bounds_requires_both_lp_options(capsys):
    assert main(["bounds", "--alpha", "1", "--q", "3", "--N", "5", "--p", "2"]) == 2
    assert "volK" in capsys.readouterr().err


def test_bounds_rejects_a_fractional_block_end(capsys):
    assert main(["bounds", "--alpha", "1", "--q", "2", "--N", "5", "--P", "7.5"]) == 2


def test_bounds_writes_a_rerunnable_report(tmp_path, capsys):
    out = tmp_path / "budget.txt"
    assert main(["bounds", "--alpha", "1.2", "--q", "2.5", "--N", "4",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    capsys.readouterr()
    rerun = tmp_path / "budget2.txt"
    assert main(["bounds", "--config", str(out) + ".manifest", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == first


# -- simulate -----------------------------------------------------------------------


def test_simulate_writes_the_path_and_summary(tmp_path, capsys):
    code, out = _simulate(tmp_path, "path.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0,0"
    assert len(lines) == 22
    stdout = capsys.readouterr().out
    assert "holder_exponent_estimate = " in stdout
    assert "terms = " in stdout


def test_simulate_csv_round_trips_the_library_values(tmp_path):
    with pytest.warns(RuntimeWarning):
        code, out = _simulate(tmp_path, "path.csv")
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    cfg = SeriesConfig(
        alpha=1.2, hurst=0.5, epsilon=0.8, grid_points=20, max_points=128
    )
    with pytest.warns(RuntimeWarning):
        path = simulate_ltfsm(cfg, tune(cfg), RandomStream(42))
    assert np.array_equal(data[:, 0], path.times)
    assert np.array_equal(data[:, 1], path.values)


def test_simulate_manifest_reruns_byte_identically(tmp_path):
    _, first = _simulate(tmp_path, "a.csv")
    rerun = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(first) + ".manifest",
                 "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == first.read_bytes()
    manifest = (tmp_path / "a.csv.manifest").read_text()
    assert "command = simulate" in manifest
    assert "seed = 42" in manifest


def test_simulate_without_a_holder_diagnostic_still_succeeds(tmp_path, capsys):
    # 7 intervals leave a single dyadic lag: the diagnostic is undefined
    code, out = _simulate(tmp_path, "g7.csv", ["--grid", "7"])
    assert code == 0
    assert "holder_exponent_estimate = unavailable" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 9
    rerun = tmp_path / "g7b.csv"
    assert main(["simulate", "--config", str(out) + ".manifest",
                 "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_simulate_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("alpha = 1.2\nhurst = 0.5\nepsilon = 0.9\nseed = 7\n")
    out1 = tmp_path / "c1.csv"
    assert main(["simulate", "--config", str(cfg), "--epsilon", "0.8",
                 "--grid", "20", "--max-points", "128", "--out", str(out1)]) == 0
    _, direct = _simulate(tmp_path, "c2.csv", ["--seed", "7"])
    assert out1.read_bytes() == direct.read_bytes()
    manifest = (tmp_path / "c1.csv.manifest").read_text()
    assert "epsilon = 0.80000000000000004" in manifest


def test_simulate_gaussian_density_form(tmp_path):
    code, out = _simulate(tmp_path, "g.csv", ["--density", "gaussian"])
    assert code == 0
    _, lap = _simulate(tmp_path, "l.csv")
    assert out.read_bytes() != lap.read_bytes()


def test_simulate_rejects_bad_configurations(tmp_path, capsys):
    assert main(["simulate", "--alpha", "2", "--hurst", "0.5", "--epsilon", "0.5",
                 "--seed", "1"]) == 2
    assert "alpha" in capsys.readouterr().err
    assert main(["simulate", "--alpha", "1", "--hurst", "0.5", "--epsilon", "0.5",
                 "--seed", "1", "--density", "poisson"]) == 2
    assert main(["simulate", "--hurst", "0.5", "--epsilon", "0.5", "--seed", "1"]) == 2
    assert "missing required option --alpha" in capsys.readouterr().err


def test_simulate_rejects_an_unknown_density_before_writing(tmp_path, capsys):
    code, out = _simulate(tmp_path, "p.csv", ["--density", "poisson"])
    assert code == 2
    assert "density must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no CSV and no manifest


def test_simulate_refuses_a_term_larger_than_physical_memory_before_writing(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(process, "_physical_bytes", lambda: 1024)
    code, out = _simulate(tmp_path, "big.csv")
    assert code == 2
    assert "GiB of this machine" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no CSV and no manifest


def test_an_out_of_memory_handler_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def exhausted(vals):
        raise MemoryError("Unable to allocate 7.28 TiB")

    help_text, schema, _ = _COMMANDS["simulate"]
    monkeypatch.setitem(_COMMANDS, "simulate", (help_text, schema, exhausted))
    code, _ = _simulate(tmp_path, "oom.csv")
    assert code == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.28 TiB\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alpha = 1.2\nhurst = 0.5\nepsilon = 0.5\nseed = 1\nalpa = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "alpa" in capsys.readouterr().err


def test_manifests_refuse_to_cross_commands(tmp_path, capsys):
    _, out = _simulate(tmp_path, "x.csv")
    assert main(["stable-check", "--config", str(out) + ".manifest"]) == 2
    assert "simulate" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(capsys):
    assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 2


# -- validate-cf ----------------------------------------------------------------------


CF_ARGS = [
    "validate-cf",
    "--alpha", "1",
    "--hurst", "0.5",
    "--seed", "7",
    "--paths", "200",
    "--times", "6",
    "--terms", "8",
    "--bandwidth", "4",
    "--points", "32",
]


def test_validate_cf_passes_with_a_easy_threshold(tmp_path, capsys):
    out = tmp_path / "cf.csv"
    code = main(CF_ARGS + ["--threshold", "0.0", "--out", str(out)])
    assert code == 0
    report = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
    )
    assert report["status"] == "pass"
    assert report["method"] == "series"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,log_abs_cf,stderr"
    assert len(lines) == 7


def test_validate_cf_fails_below_threshold(tmp_path, capsys):
    out = tmp_path / "cf.csv"
    code = main(CF_ARGS + ["--threshold", "1.0", "--out", str(out)])
    assert code == 3
    assert "status = fail" in capsys.readouterr().out
    assert out.exists()  # the data is still written for inspection


def test_validate_cf_manifest_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "cf.csv"
    assert main(CF_ARGS + ["--out", str(out)]) in (0, 3)
    rerun = tmp_path / "cf2.csv"
    assert main(["validate-cf", "--config", str(out) + ".manifest",
                 "--out", str(rerun)]) in (0, 3)
    assert rerun.read_bytes() == out.read_bytes()


def test_validate_cf_requires_the_linear_regime(capsys):
    assert main(["validate-cf", "--alpha", "1.3", "--hurst", "0.5", "--seed", "1"]) == 2
    assert "alpha must be exactly 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--times", "0"),
        ("--times", "1"),
        ("--paths", "1"),
        ("--terms", "0"),
        ("--bandwidth", "0"),
        ("--points", "0"),
        ("--steps", "0"),
        ("--T", "0"),
        ("--T", "-1"),
        ("--T", "inf"),
        ("--T", "nan"),
    ],
)
def test_validate_cf_rejects_bad_sizes_before_running(tmp_path, capsys, flag, value):
    out = tmp_path / "cf.csv"
    assert main(CF_ARGS + [flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "cf.csv.manifest").exists()


def test_validate_cf_rwrr_method(tmp_path, capsys):
    out = tmp_path / "cfr.csv"
    code = main(["validate-cf", "--alpha", "1", "--hurst", "0.5", "--seed", "7",
                 "--paths", "150", "--times", "5", "--method", "rwrr",
                 "--steps", "500", "--threshold", "0.5", "--out", str(out)])
    assert code in (0, 3)
    assert "method = rwrr" in capsys.readouterr().out
    assert main(["validate-cf", "--alpha", "1", "--hurst", "0.5", "--seed", "7",
                 "--method", "fourier"]) == 2


# -- stable-check ------------------------------------------------------------------------


def test_stable_check_pass_and_fail_thresholds(tmp_path, capsys):
    args = ["stable-check", "--alpha", "1.5", "--terms", "400",
            "--samples", "400", "--seed", "3"]
    assert main(args + ["--threshold", "1.0"]) == 0
    assert "status = pass" in capsys.readouterr().out
    assert main(args + ["--threshold", "1e-9"]) == 3
    assert "status = fail" in capsys.readouterr().out


def test_stable_check_writes_a_rerunnable_report(tmp_path):
    out = tmp_path / "sc.txt"
    args = ["stable-check", "--alpha", "1.5", "--terms", "300", "--samples",
            "300", "--seed", "3", "--threshold", "0.5", "--out", str(out)]
    assert main(args) == 0
    rerun = tmp_path / "sc2.txt"
    assert main(["stable-check", "--config", str(out) + ".manifest",
                 "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_stable_check_names_a_bad_thread_variable_before_writing(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("LTFSM_THREADS", value)
    out = tmp_path / "sc.txt"
    args = ["stable-check", "--alpha", "1.5", "--terms", "300", "--samples", "300",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 2
    assert f"LTFSM_THREADS must be an integer >= 1, got '{value}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_names_a_bad_thread_variable_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LTFSM_THREADS", "abc")
    out = tmp_path / "path.csv"
    args = ["simulate", "--alpha", "1.2", "--hurst", "0.5", "--epsilon", "0.8",
            "--max-points", "64", "--grid", "10", "--seed", "3", "--out", str(out)]
    assert main(args) == 2
    assert "LTFSM_THREADS must be an integer >= 1, got 'abc'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value", [("--terms", "0"), ("--terms", "-3"), ("--samples", "1")]
)
def test_stable_check_rejects_bad_counts_before_running(tmp_path, capsys, flag, value):
    out = tmp_path / "sc.txt"
    args = ["stable-check", "--alpha", "1.5", "--terms", "300", "--samples", "300",
            "--seed", "3", "--out", str(out)]
    assert main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "sc.txt.manifest").exists()


def test_stable_check_rejects_the_gaussian_edge(capsys):
    assert main(["stable-check", "--alpha", "2", "--seed", "1"]) == 2
    assert "(0, 2)" in capsys.readouterr().err


# -- top level --------------------------------------------------------------------------------


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "simulate" in capsys.readouterr().out


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


# -- non-finite options ------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [CF_ARGS, ["stable-check", "--alpha", "1.5", "--terms", "300", "--samples", "300",
               "--seed", "3"]],
    ids=["validate-cf", "stable-check"],
)
def test_ensembles_refuse_a_replicate_larger_than_physical_memory_before_writing(
    tmp_path, capsys, monkeypatch, args
):
    monkeypatch.setattr(process, "_physical_bytes", lambda: 1024)
    assert main(args + ["--out", str(tmp_path / "big.csv")]) == 2
    assert "one replicate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no CSV and no manifest


@pytest.mark.parametrize(
    "args",
    [
        SIM_ARGS + ["--T", "inf"],
        SIM_ARGS + ["--T", "nan"],
        SIM_ARGS + ["--cp", "inf"],
        SIM_ARGS + ["--ck", "1e300"],
        SIM_ARGS + ["--delta", "nan"],
        CF_ARGS + ["--u", "inf"],
        CF_ARGS + ["--u", "nan"],
        CF_ARGS + ["--threshold", "inf"],
        ["stable-check", "--alpha", "1.5", "--terms", "30", "--samples", "30",
         "--seed", "3", "--threshold", "inf"],
        ["stable-check", "--alpha", "1.5", "--terms", "30", "--samples", "30",
         "--seed", "3", "--threshold", "nan"],
    ],
    ids=lambda args: "-".join([args[0], args[-2].lstrip("-"), args[-1]]),
)
def test_non_finite_and_overflowing_options_are_rejected_before_writing(
    tmp_path, capsys, args
):
    out = tmp_path / "run.out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "run.out.manifest").exists()


# base arguments per command; bounds sets every option, so the L^p variants run
BASE_ARGS = {
    "simulate": SIM_ARGS,
    "bounds": ["bounds", "--alpha", "1", "--q", "3", "--N", "5", "--P", "10",
               "--p", "2", "--volK", "2"],
    "validate-cf": CF_ARGS,
    "stable-check": ["stable-check", "--alpha", "1.5", "--terms", "30",
                     "--samples", "30", "--seed", "3"],
}

NON_FINITE_CASES = [
    (name, flag, value)
    for name, (_help, schema, _handler) in _COMMANDS.items()
    for flag, (typ, _default, _least) in schema.items()
    if typ is float
    for value in ("nan", "inf")
]


@pytest.mark.parametrize(
    "command, flag, value", NON_FINITE_CASES, ids=lambda x: x
)
def test_every_float_option_rejects_nan_and_inf_before_writing(
    tmp_path, capsys, command, flag, value
):
    out = tmp_path / "run.out"
    code = main(BASE_ARGS[command] + [f"--{flag}", value, "--out", str(out)])
    if (command, flag, value) == ("bounds", "P", "inf"):
        assert code == 0  # the supremum over block lengths
        return
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{flag} ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


HELP_FLAGS = {
    "simulate": ["alpha", "hurst", "epsilon", "seed", "eta", "T", "grid", "q", "p",
                 "delta", "delta-prime", "beta", "cp", "ck", "max-points", "density",
                 "out"],
    "bounds": ["alpha", "q", "N", "P", "beta", "Mq", "Mqk", "p", "volK", "out"],
    "validate-cf": ["alpha", "hurst", "paths", "seed", "method", "u", "times", "T",
                    "terms", "bandwidth", "points", "steps", "threshold", "out"],
    "stable-check": ["alpha", "terms", "samples", "seed", "threshold", "out"],
}


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_help_lists_each_commands_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = re.findall(r"^ +--([\w-]+)", capsys.readouterr().out, re.M)
    assert listed == ["config"] + HELP_FLAGS[command]


def test_simulate_refuses_to_write_a_non_finite_path(tmp_path, capsys):
    # a Laplace location with exp(2|x|/alpha) beyond the float range
    out = tmp_path / "nf.csv"
    args = ["simulate", "--alpha", "0.01", "--hurst", "0.5", "--epsilon", "0.9",
            "--max-points", "64", "--grid", "10", "--seed", "6", "--out", str(out)]
    with pytest.warns(RuntimeWarning):
        assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# -- string options and manifests ----------------------------------------------------


def test_an_output_name_with_a_hash_replays_from_its_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(SIM_ARGS + ["--out", "x#y.csv"]) == 0
    first = (tmp_path / "x#y.csv").read_bytes()
    assert "out = x#y.csv\n" in (tmp_path / "x#y.csv.manifest").read_text()
    (tmp_path / "x#y.csv").unlink()
    assert main(["simulate", "--config", "x#y.csv.manifest"]) == 0
    assert (tmp_path / "x#y.csv").read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x#y.csv", "x#y.csv.manifest"]


@pytest.mark.parametrize(
    "value", ["a\nb.csv", " lead.csv", "trail.csv ", "a #b.csv", "a\t#b.csv", "#a.csv"]
)
def test_string_options_a_manifest_cannot_carry_are_rejected(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.chdir(tmp_path)
    assert main(SIM_ARGS + ["--out", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
