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

Each command's option schema is the one place its inputs are checked.  A row
``flag: (type, default, least)`` gives the value's type, its default
(``REQUIRED`` when a flag or the config file must supply it, ``None`` when it
may stay unset) and, for a count, the smallest value accepted (``None`` for no
bound).  A float must be finite unless it equals an infinite default: only
``bounds --P`` has one, ``inf`` for the supremum over block lengths.  A string
must read back unchanged from a manifest.  Checks that state a policy or a
reason (``validate-cf`` needs alpha = 1, ``bounds`` pairs ``--p`` with
``--volK``) stay in the handlers.

A handler returns ``(exit code, report lines, CSV or None)`` and writes
nothing; :func:`_run` then writes the CSV, or otherwise the report, to
``--out`` when it is set, prints the report, and writes the manifest.

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

# Default of an option a flag or the config file must supply.
REQUIRED = object()

_SIMULATE_SCHEMA = {
    "alpha": (float, REQUIRED, None),
    "hurst": (float, REQUIRED, None),
    "epsilon": (float, REQUIRED, None),
    "seed": (int, REQUIRED, None),
    "eta": (float, 1.5, None),
    "T": (float, 1.0, None),
    "grid": (int, 200, None),
    "q": (float, 2.5, None),
    "p": (float, 2.0, None),
    "delta": (float, 0.4, None),
    "delta-prime": (float, 0.25, None),
    "beta": (float, 0.0, None),
    "cp": (float, 1.0, None),
    "ck": (float, 1.0, None),
    "max-points": (int, 262144, None),
    "density": (str, "laplace", None),
    "out": (str, "ltfsm_path.csv", None),
}

_BOUNDS_SCHEMA = {
    "alpha": (float, REQUIRED, None),
    "q": (float, REQUIRED, None),
    "N": (int, REQUIRED, None),
    "P": (float, math.inf, None),
    "beta": (float, 0.0, None),
    "Mq": (float, 1.0, None),
    "Mqk": (float, 1.0, None),
    "p": (float, None, None),
    "volK": (float, None, None),
    "out": (str, None, None),
}

_VALIDATE_CF_SCHEMA = {
    "alpha": (float, REQUIRED, None),
    "hurst": (float, REQUIRED, None),
    "paths": (int, 10000, 2),
    "seed": (int, REQUIRED, None),
    "method": (str, "series", None),
    "u": (float, 1.0, None),
    "times": (int, 20, 2),
    "T": (float, 1.0, None),
    "terms": (int, 64, 1),
    "bandwidth": (int, 16, 1),
    "points": (int, 256, 1),
    "steps": (int, 10000, 1),
    "threshold": (float, None, None),
    "out": (str, "cf_linearity.csv", None),
}

_STABLE_CHECK_SCHEMA = {
    "alpha": (float, REQUIRED, None),
    "terms": (int, 10000, 1),
    "samples": (int, 10000, 2),
    "seed": (int, REQUIRED, None),
    "threshold": (float, 0.02, None),
    "out": (str, None, None),
}


def _resolve(args: argparse.Namespace, schema: dict, command: str) -> dict:
    """Merge flags over config-file values over schema defaults, and check
    every value against its schema row."""
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
    for flag, (typ, default, least) in schema.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is None and flag in file_values:
            value = typ(file_values[flag])
        if value is None:
            value = default
        if value is REQUIRED:
            raise ConfigError(f"missing required option --{flag}")
        finite = typ is not float or value is None or math.isfinite(value)
        if not (finite or value == default):
            raise ConfigError(f"--{flag} must be finite, got {value}")
        if least is not None and value < least:
            raise ConfigError(f"--{flag} must be >= {least}, got {value}")
        problem = config_value_problem(value) if typ is str and value else None
        if problem:
            raise ConfigError(f"--{flag} {value!r} {problem}; a manifest cannot carry it")
        resolved[flag] = value
    return resolved


# -- subcommand handlers -------------------------------------------------------


def _cmd_simulate(vals: dict):
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
    lines = [
        ("terms", str(params.P)),
        ("head_terms", str(params.N)),
        ("bandwidth", str(params.k)),
        ("holder_exponent_estimate", holder),
        ("output", vals["out"]),
    ]
    return 0, lines, (["t", "value"], [path.times, path.values])


def _cmd_bounds(vals: dict):
    report = build_bound_report(
        N=vals["N"],
        q=vals["q"],
        alpha=vals["alpha"],
        moment_q=vals["Mq"],
        moment_qk=vals["Mqk"],
        P=vals["P"],
        beta=vals["beta"],
    )
    lines = [
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
    return 0, lines, None


def _cmd_validate_cf(vals: dict):
    if vals["alpha"] != 1.0:
        raise ConfigError(
            "alpha must be exactly 1: the marginal scale grows linearly in t "
            "only at alpha = 1, which is what makes log |CF| linear and the "
            "R^2 check meaningful"
        )
    if not vals["T"] > 0.0:
        raise ConfigError(f"--T must be finite and > 0, got {vals['T']}")
    if vals["threshold"] is None:
        # the manifest records the method's default threshold
        vals["threshold"] = 0.99 if vals["method"] == "series" else 0.95
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
    passed = result.r_squared >= vals["threshold"]
    lines = [
        ("method", result.method),
        ("paths", float(result.n_paths)),
        ("u", result.u),
        ("slope", result.slope),
        ("intercept", result.intercept),
        ("r_squared", result.r_squared),
        ("threshold", vals["threshold"]),
        ("status", "pass" if passed else "fail"),
    ]
    table = (
        ["t", "log_abs_cf", "stderr"],
        [result.times, result.log_modulus, result.stderr],
    )
    return (0 if passed else 3), lines, table


def _cmd_stable_check(vals: dict):
    if not 0.0 < vals["alpha"] < 2.0:
        raise ConfigError(
            "alpha must lie in (0, 2): the arrival series represents strictly "
            "stable laws below the Gaussian index"
        )
    result = stable_marginal_check(
        alpha=vals["alpha"],
        terms=vals["terms"],
        n_samples=vals["samples"],
        stream=RandomStream(vals["seed"]),
    )
    passed = result.ks <= vals["threshold"]
    lines = [
        ("alpha", result.alpha),
        ("terms", float(result.terms)),
        ("samples", float(result.n_samples)),
        ("fitted_scale", result.fitted_scale),
        ("ks_distance", result.ks),
        ("threshold", vals["threshold"]),
        ("status", "pass" if passed else "fail"),
    ]
    return (0 if passed else 3), lines, None


# name -> (help, option schema, handler)
_COMMANDS = {
    "simulate": ("simulate one tuned path -> CSV", _SIMULATE_SCHEMA, _cmd_simulate),
    "bounds": ("evaluate the error budget", _BOUNDS_SCHEMA, _cmd_bounds),
    "validate-cf": (
        "characteristic-function linearity check (alpha = 1)",
        _VALIDATE_CF_SCHEMA,
        _cmd_validate_cf,
    ),
    "stable-check": (
        "truncated series marginal vs stable oracle",
        _STABLE_CHECK_SCHEMA,
        _cmd_stable_check,
    ),
}


def _run(args: argparse.Namespace) -> int:
    """Resolve the options, run the handler, then write its outputs."""
    _help, schema, handler = _COMMANDS[args.command]
    vals = _resolve(args, schema, args.command)
    code, lines, table = handler(vals)
    text = "\n".join(
        f"{key} = {value if isinstance(value, str) else format(value, '.12g')}"
        for key, value in lines
    )
    out = vals["out"]
    if table is not None:
        write_csv(out, *table)
    elif out:
        with open(out, "w", newline="") as fh:
            fh.write(text + "\n")
    print(text)
    if out:
        RunManifest(
            command=args.command,
            version=__version__,
            config={key: value for key, value in vals.items() if value is not None},
            outputs=(out,),
        ).write(manifest_path(out))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ltfsm",
        description="Shot-noise series simulation of symmetric alpha-stable "
        "processes (local-time fractional stable motion and friends).",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, schema, _handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", default=None, help="flat key = value file")
        for flag, (typ, _default, _least) in schema.items():
            command.add_argument(f"--{flag}", type=typ, default=None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _run(args)
    except (ConfigError, ValueError, EmbeddingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
