"""Command-line front end.

Subcommands
-----------
* ``simulate``      one epsilon-tuned path of the flagship process -> CSV.
* ``bounds``        the truncation/approximation error budget -> report.
* ``validate-cf``   Monte Carlo characteristic-function linearity (alpha = 1).
* ``stable-check``  truncated-series marginal vs. the stable oracle (KS).

Every option can also come from a flat ``key = value`` config file
(``--config``); explicit flags win.  Each file output gets a manifest written
alongside it (``<output>.manifest``) holding the fully resolved configuration;
a manifest is itself a valid ``--config`` file, so

    ltfsm simulate --config run.csv.manifest --out rerun.csv

reproduces a run byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 a validation threshold failed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .fbm import EmbeddingError
from .experiments import cf_linearity_experiment, stable_marginal_check
from .io import RunManifest, config_value_problem, manifest_path, read_config, write_csv
from .process import ConfigError, SeriesConfig, simulate_ltfsm, tune
from .shotnoise import (
    approximation_bound_lp,
    bound_H_nq,
    build_bound_report,
    truncation_bound_lp,
)
from .streams import RandomStream
from .validation import holder_exponent_estimate

__all__ = ["main"]

# Bookkeeping keys a manifest carries beyond the resolved options.
_MANIFEST_KEYS = ("command", "version", "output")

# Option schemas: flag -> (type, default, required).  ``None`` default with
# required=True means the value must come from a flag or a config file.
_SIMULATE_SCHEMA = {
    "alpha": (float, None, True),
    "hurst": (float, None, True),
    "epsilon": (float, None, True),
    "seed": (int, None, True),
    "eta": (float, 1.5, False),
    "T": (float, 1.0, False),
    "grid": (int, 200, False),
    "q": (float, 2.5, False),
    "p": (float, 2.0, False),
    "delta": (float, 0.4, False),
    "delta-prime": (float, 0.25, False),
    "beta": (float, 0.0, False),
    "cp": (float, 1.0, False),
    "ck": (float, 1.0, False),
    "max-points": (int, 262144, False),
    "density": (str, "laplace", False),
    "out": (str, "ltfsm_path.csv", False),
}

_BOUNDS_SCHEMA = {
    "alpha": (float, None, True),
    "q": (float, None, True),
    "N": (int, None, True),
    "P": (float, math.inf, False),
    "beta": (float, 0.0, False),
    "Mq": (float, 1.0, False),
    "Mqk": (float, 1.0, False),
    "p": (float, None, False),
    "volK": (float, None, False),
    "out": (str, None, False),
}

_VALIDATE_CF_SCHEMA = {
    "alpha": (float, None, True),
    "hurst": (float, None, True),
    "paths": (int, 10000, False),
    "seed": (int, None, True),
    "method": (str, "series", False),
    "u": (float, 1.0, False),
    "times": (int, 20, False),
    "T": (float, 1.0, False),
    "terms": (int, 64, False),
    "bandwidth": (int, 16, False),
    "points": (int, 256, False),
    "steps": (int, 10000, False),
    "threshold": (float, None, False),
    "out": (str, "cf_linearity.csv", False),
}

_STABLE_CHECK_SCHEMA = {
    "alpha": (float, None, True),
    "terms": (int, 10000, False),
    "samples": (int, 10000, False),
    "seed": (int, None, True),
    "threshold": (float, 0.02, False),
    "out": (str, None, False),
}


def _dest(flag: str) -> str:
    return flag.replace("-", "_")


def _add_options(parser: argparse.ArgumentParser, schema: dict) -> None:
    parser.add_argument("--config", default=None, help="flat key = value file")
    for flag, (typ, _default, _required) in schema.items():
        parser.add_argument(f"--{flag}", dest=_dest(flag), type=typ, default=None)


def _resolve(args: argparse.Namespace, schema: dict, command: str) -> dict:
    """Merge flags over config-file values over schema defaults."""
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = read_config(args.config)
        if file_values.get("command", command) != command:
            raise ConfigError(
                f"config file was written by '{file_values['command']}', "
                f"not '{command}'"
            )
        unknown = set(file_values) - set(schema) - set(_MANIFEST_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for flag, (typ, default, required) in schema.items():
        value = getattr(args, _dest(flag))
        if value is None and flag in file_values:
            value = typ(file_values[flag])
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{flag}")
        problem = config_value_problem(value) if typ is str and value else None
        if problem:
            raise ConfigError(f"--{flag} {value!r} {problem}; a manifest cannot carry it")
        resolved[flag] = value
    return resolved


def _write_manifest(command: str, resolved: dict, outputs: list[str]) -> None:
    if not outputs:
        return
    manifest = RunManifest(
        command=command,
        version=__version__,
        config={key: value for key, value in resolved.items() if value is not None},
        outputs=tuple(outputs),
    )
    manifest.write(manifest_path(outputs[0]))


def _check_counts(vals: dict, least: dict) -> None:
    """Reject any count option below its smallest meaningful value."""
    for flag, low in least.items():
        if vals[flag] < low:
            raise ConfigError(f"--{flag} must be >= {low}, got {vals[flag]}")


def _check_finite(vals: dict, flags: tuple[str, ...]) -> None:
    """Reject a non-finite value of any of ``flags`` that is set."""
    for flag in flags:
        if vals[flag] is not None and not math.isfinite(vals[flag]):
            raise ConfigError(f"--{flag} must be finite, got {vals[flag]}")


def _print_report(lines: list[tuple[str, object]], out: str | None) -> None:
    text = "\n".join(
        f"{key} = {value if isinstance(value, str) else format(value, '.12g')}"
        for key, value in lines
    )
    print(text)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text + "\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    vals = _resolve(args, _SIMULATE_SCHEMA, "simulate")
    config = SeriesConfig(
        alpha=vals["alpha"],
        hurst=vals["hurst"],
        epsilon=vals["epsilon"],
        horizon=vals["T"],
        grid_points=vals["grid"],
        eta=vals["eta"],
        q=vals["q"],
        p=vals["p"],
        delta=vals["delta"],
        delta_prime=vals["delta-prime"],
        beta=vals["beta"],
        c_p=vals["cp"],
        c_k=vals["ck"],
        max_points=vals["max-points"],
    )
    params = tune(config)
    stream = RandomStream(vals["seed"])
    path = simulate_ltfsm(config, params, stream, density=vals["density"])
    if not all(map(math.isfinite, path.values)):
        raise ValueError(
            "the simulated path is not finite: its series coefficients overflow "
            f"the float range at alpha = {config.alpha:g}; nothing was written"
        )
    try:
        holder = format(holder_exponent_estimate(path.times, path.values), ".12g")
    except ValueError:
        # descriptive only: undefined below 8 intervals or with fewer than
        # two lags of nonzero increment, which is no reason to fail the run
        holder = "unavailable"
    write_csv(vals["out"], ["t", "value"], [path.times, path.values])
    _write_manifest("simulate", vals, [vals["out"]])
    lines: list[tuple[str, object]] = [
        ("terms", str(params.P)),
        ("head_terms", str(params.N)),
        ("bandwidth", str(params.k)),
        ("holder_exponent_estimate", holder),
        ("output", vals["out"]),
    ]
    _print_report(lines, None)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    vals = _resolve(args, _BOUNDS_SCHEMA, "bounds")
    report = build_bound_report(
        N=vals["N"],
        q=vals["q"],
        alpha=vals["alpha"],
        moment_q=vals["Mq"],
        moment_qk=vals["Mqk"],
        P=vals["P"],
        beta=vals["beta"],
    )
    lines: list[tuple[str, object]] = [
        ("N", float(vals["N"])),
        ("P", float(vals["P"])),
        ("beta", vals["beta"]),
    ]
    lines += list(report.as_dict().items())
    if (vals["p"] is None) != (vals["volK"] is None):
        raise ConfigError("the L^p bounds need both --p and --volK")
    if vals["p"] is not None:
        lines.append(("p", vals["p"]))
        lines.append(("volK", vals["volK"]))
        lines.append(("H_N_q", bound_H_nq(vals["N"], vals["q"], vals["alpha"])))
        lines.append(
            (
                "truncation_bound_lp",
                truncation_bound_lp(
                    vals["N"], vals["q"], vals["alpha"], vals["Mq"], vals["p"], vals["volK"]
                ),
            )
        )
        lines.append(
            (
                "approximation_bound_lp",
                approximation_bound_lp(
                    vals["N"],
                    vals["P"],
                    vals["q"],
                    vals["alpha"],
                    vals["beta"],
                    vals["Mqk"],
                    vals["p"],
                    vals["volK"],
                ),
            )
        )
    _print_report(lines, vals["out"])
    if vals["out"]:
        _write_manifest("bounds", vals, [vals["out"]])
    return 0


def _cmd_validate_cf(args: argparse.Namespace) -> int:
    vals = _resolve(args, _VALIDATE_CF_SCHEMA, "validate-cf")
    if vals["alpha"] != 1.0:
        raise ConfigError(
            "alpha must be exactly 1: the marginal scale grows linearly in t "
            "only at alpha = 1, which is what makes log |CF| linear and the "
            "R^2 check meaningful"
        )
    if vals["method"] not in ("series", "rwrr"):
        raise ConfigError("method must be 'series' or 'rwrr'")
    _check_counts(
        vals,
        {"paths": 2, "times": 2, "terms": 1, "bandwidth": 1, "points": 1, "steps": 1},
    )
    if not (math.isfinite(vals["T"]) and vals["T"] > 0.0):
        raise ConfigError(f"--T must be finite and > 0, got {vals['T']}")
    _check_finite(vals, ("u", "threshold"))
    threshold = vals["threshold"]
    if threshold is None:
        threshold = 0.99 if vals["method"] == "series" else 0.95
    result = cf_linearity_experiment(
        method=vals["method"],
        alpha=vals["alpha"],
        hurst=vals["hurst"],
        n_paths=vals["paths"],
        stream=RandomStream(vals["seed"]),
        u=vals["u"],
        n_times=vals["times"],
        horizon=vals["T"],
        terms=vals["terms"],
        bandwidth=vals["bandwidth"],
        points=vals["points"],
        steps=vals["steps"],
    )
    write_csv(
        vals["out"],
        ["t", "log_abs_cf", "stderr"],
        [result.times, result.log_modulus, result.stderr],
    )
    resolved = dict(vals)
    resolved["threshold"] = threshold
    _write_manifest("validate-cf", resolved, [vals["out"]])
    passed = result.r_squared >= threshold
    lines: list[tuple[str, object]] = [
        ("method", result.method),
        ("paths", float(result.n_paths)),
        ("u", result.u),
        ("slope", result.slope),
        ("intercept", result.intercept),
        ("r_squared", result.r_squared),
        ("threshold", threshold),
        ("status", "pass" if passed else "fail"),
    ]
    _print_report(lines, None)
    return 0 if passed else 3


def _cmd_stable_check(args: argparse.Namespace) -> int:
    vals = _resolve(args, _STABLE_CHECK_SCHEMA, "stable-check")
    if not 0.0 < vals["alpha"] < 2.0:
        raise ConfigError(
            "alpha must lie in (0, 2): the arrival series represents strictly "
            "stable laws below the Gaussian index"
        )
    _check_counts(vals, {"terms": 1, "samples": 2})
    _check_finite(vals, ("threshold",))
    result = stable_marginal_check(
        alpha=vals["alpha"],
        terms=vals["terms"],
        n_samples=vals["samples"],
        stream=RandomStream(vals["seed"]),
    )
    passed = result.ks <= vals["threshold"]
    lines: list[tuple[str, object]] = [
        ("alpha", result.alpha),
        ("terms", float(result.terms)),
        ("samples", float(result.n_samples)),
        ("fitted_scale", result.fitted_scale),
        ("ks_distance", result.ks),
        ("threshold", vals["threshold"]),
        ("status", "pass" if passed else "fail"),
    ]
    _print_report(lines, vals["out"])
    if vals["out"]:
        _write_manifest("stable-check", vals, [vals["out"]])
    return 0 if passed else 3


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltfsm",
        description="Shot-noise series simulation of symmetric alpha-stable "
        "processes (local-time fractional stable motion and friends).",
    )
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="simulate one tuned path -> CSV")
    _add_options(p_sim, _SIMULATE_SCHEMA)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="evaluate the error budget")
    _add_options(p_bounds, _BOUNDS_SCHEMA)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_cf = sub.add_parser(
        "validate-cf", help="characteristic-function linearity check (alpha = 1)"
    )
    _add_options(p_cf, _VALIDATE_CF_SCHEMA)
    p_cf.set_defaults(handler=_cmd_validate_cf)

    p_stable = sub.add_parser(
        "stable-check", help="truncated series marginal vs stable oracle"
    )
    _add_options(p_stable, _STABLE_CHECK_SCHEMA)
    p_stable.set_defaults(handler=_cmd_stable_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ConfigError, ValueError, EmbeddingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
