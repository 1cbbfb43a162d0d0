"""The four benchmark workloads: driver call, output checks, rebuilt
pipeline and reproducibility checks.

Every repetition ``rep`` of a run with seed ``seed`` simulates from seed
``seed * 1000 + rep``, so the inputs follow from ``--seed`` alone and each
repetition draws fresh replicates of the same shape.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import warnings

import numpy as np

from ltfsm import (
    SeriesConfig,
    cf_linearity_experiment,
    series_path_ensemble,
    stable_marginal_check,
    tune,
)
from ltfsm.cli import main as cli_main
from ltfsm.io import manifest_path
from ltfsm.streams import RandomStream

import rebuild

# Gates of the acceptance protocol (tests/test_acceptance.py).
SERIES_R2_MIN = 0.99
RWRR_R2_MIN = 0.95
KS_MAX = 0.02


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def _canonical(value) -> bytes:
    """Bytes that are equal exactly when two outputs are bitwise equal."""
    if isinstance(value, tuple):
        return b"(" + b",".join(_canonical(v) for v in value) + b")"
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, bytes):
        return value
    return repr(value).encode()


def same(a, b) -> bool:
    return _canonical(a) == _canonical(b)


def digest(output) -> str:
    return hashlib.sha256(_canonical(output)).hexdigest()[:16]


def _finite(values) -> bool:
    return all(bool(np.all(np.isfinite(v))) for v in values)


class Workload:
    name = ""
    threads = 1  # thread count of the timed driver call
    items = 0  # replicates per repetition
    shape: dict = {}

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def stream(self, rep: int) -> RandomStream:
        return RandomStream(rep_seed(self.seed, rep))

    def run(self, rep: int, threads: int | None = None):
        """One driver call; returns the output compared bitwise."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Failed output checks (empty when the output is correct)."""
        raise NotImplementedError

    def notes(self, output) -> dict:
        """Statistics recorded next to the digest, not gated."""
        return {}

    def rebuild(self, tr, rep: int):
        """The driver's pipeline rebuilt from public calls under ``tr``."""
        raise NotImplementedError

    def verify(self, rep: int, output) -> tuple[list[str], float | None]:
        """Reproducibility checks on ``output`` (the 1-thread driver output
        of ``rep``); returns the failures and the wall seconds of the same
        call at 2 threads, or None where the driver has no thread pool."""
        start = time.perf_counter()
        again = self.run(rep, threads=2)
        elapsed = time.perf_counter() - start
        if same(again, output):
            return [], elapsed
        return ["output at 2 threads differs from the output at 1 thread"], elapsed


class EnsembleH07(Workload):
    name = "ensemble_h07"
    threads = 1
    items = 700
    shape = dict(alpha=1.2, hurst=0.7, terms=128, points=128, bandwidth=8, grid_points=20)

    def run(self, rep, threads=None):
        s = self.shape
        return series_path_ensemble(
            s["alpha"], s["hurst"], self.items, s["terms"], s["bandwidth"], s["points"],
            self.stream(rep), grid_points=s["grid_points"], threads=threads or self.threads,
        )

    def check(self, output):
        bad = []
        if not _finite([output]):
            bad.append("non-finite path value")
        if np.any(output[:, 0] != 0.0):
            bad.append("t=0 column is not exactly 0")
        return bad

    def rebuild(self, tr, rep):
        s = self.shape
        return rebuild.series_path_ensemble(
            tr, s["alpha"], s["hurst"], self.items, s["terms"], s["bandwidth"], s["points"],
            self.stream(rep), grid_points=s["grid_points"],
        )


class CfProtocolH05(Workload):
    name = "cf_protocol_h05"
    threads = 2
    paths = 2500
    items = 2 * paths  # series paths plus random-walk paths
    shape = dict(
        alpha=1.0, hurst=0.5, u=1.0, n_times=20, terms=64, bandwidth=16, points=256,
        steps=10_000,
    )

    def _args(self, rep):
        s = self.shape
        return dict(
            alpha=s["alpha"], hurst=s["hurst"], n_paths=self.paths, stream=self.stream(rep),
            u=s["u"], n_times=s["n_times"], terms=s["terms"], bandwidth=s["bandwidth"],
            points=s["points"], steps=s["steps"],
        )

    def run(self, rep, threads=None):
        out = []
        for method in ("series", "rwrr"):
            r = cf_linearity_experiment(method, threads=threads or self.threads, **self._args(rep))
            out.append((r.times, r.log_modulus, r.stderr, r.slope, r.intercept, r.r_squared))
        return tuple(out)

    def check(self, output):
        series, rwrr = output
        bad = []
        if not _finite(series + rwrr):
            bad.append("non-finite CF estimate")
        if not series[5] >= SERIES_R2_MIN:
            bad.append(f"series R^2 {series[5]:.5f} < {SERIES_R2_MIN}")
        if not rwrr[5] >= RWRR_R2_MIN:
            bad.append(f"rwrr R^2 {rwrr[5]:.5f} < {RWRR_R2_MIN}")
        return bad

    def notes(self, output):
        series, rwrr = output
        return {
            "series_r2": series[5],
            "rwrr_r2": rwrr[5],
            "series_beats_rwrr": bool(series[5] >= rwrr[5]),
        }

    def rebuild(self, tr, rep):
        return tuple(
            rebuild.cf_linearity_experiment(tr, method, **self._args(rep))
            for method in ("series", "rwrr")
        )


class Marginal(Workload):
    name = "marginal"
    threads = 1
    items = 40_000  # samples
    shape = dict(alpha=1.2, terms=1000)

    def run(self, rep, threads=None):
        r = stable_marginal_check(self.shape["alpha"], self.shape["terms"], self.items,
                                  self.stream(rep), threads=threads or self.threads)
        return (r.fitted_scale, r.ks)

    def check(self, output):
        scale, ks = output
        bad = []
        if not (math.isfinite(scale) and scale > 0.0 and math.isfinite(ks)):
            bad.append("non-finite or non-positive fitted scale")
        if not ks <= KS_MAX:
            bad.append(f"KS {ks:.5f} > {KS_MAX}")
        return bad

    def notes(self, output):
        return {"fitted_scale": output[0], "ks": output[1]}

    def rebuild(self, tr, rep):
        return rebuild.stable_marginal_check(tr, self.shape["alpha"], self.shape["terms"],
                                             self.items, self.stream(rep))


class SimulateTuned(Workload):
    name = "simulate_tuned"
    threads = 1
    items = 1
    shape = dict(alpha=1.2, hurst=0.7, epsilon=0.4, delta=0.17, delta_prime=0.2)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.out = os.path.join(workdir, "path.csv")
        s = self.shape
        config = SeriesConfig(alpha=s["alpha"], hurst=s["hurst"], epsilon=s["epsilon"],
                              delta=s["delta"], delta_prime=s["delta_prime"])
        self.terms = tune(config).P

    def _options(self, rep):
        s = self.shape
        return {"alpha": s["alpha"], "hurst": s["hurst"], "epsilon": s["epsilon"],
                "delta": s["delta"], "delta-prime": s["delta_prime"],
                "seed": rep_seed(self.seed, rep), "out": self.out}

    def _clear(self):
        for path in (self.out, manifest_path(self.out)):
            if os.path.exists(path):
                os.remove(path)

    def _read(self, path):
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            return fh.read()

    def _call(self, argv):
        """Run ``ltfsm`` in-process; returns (exit code, stdout text)."""
        report = io.StringIO()
        # cap warnings are recorded, not printed, as in rebuild()
        with warnings.catch_warnings(record=True), contextlib.redirect_stdout(report):
            warnings.simplefilter("always")
            code = cli_main(argv)
        return code, report.getvalue()

    def run(self, rep, threads=None):
        self._clear()
        argv = ["simulate"]
        for flag, value in self._options(rep).items():
            argv += [f"--{flag}", str(value)]
        code, text = self._call(argv)
        return (code, self._read(self.out), self._read(manifest_path(self.out)), text)

    def check(self, output):
        code, csv, manifest, report = output
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if f"terms = {self.terms}\n" not in report:
            bad.append(f"report does not give the tuned {self.terms} terms")
        if not manifest:
            bad.append("no manifest next to the output")
        lines = csv.decode().splitlines()
        if not lines or lines[0] != "t,value":
            bad.append("CSV header missing")
            return bad
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if rows.shape != (201, 2) or not _finite([rows]):
            bad.append("CSV rows missing or non-finite")
        elif rows[0, 0] != 0.0 or rows[0, 1] != 0.0:
            bad.append("t=0 value is not exactly 0")
        return bad

    def rebuild(self, tr, rep):
        self._clear()
        report = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rebuild.cli_simulate(tr, self._options(rep), report)
        capped = sum("capped at max_points" in str(w.message) for w in caught)
        tr.count("process.cap_warnings", capped)
        return (0, self._read(self.out), self._read(manifest_path(self.out)), report.getvalue())

    def verify(self, rep, output):
        replay = os.path.join(self.workdir, "replay.csv")
        code, _ = self._call(["simulate", "--config", manifest_path(self.out), "--out", replay])
        if code == 0 and self._read(replay) == output[1]:
            return [], None
        return [f"manifest replay differs (exit code {code})"], None


WORKLOADS = {w.name: w for w in (EnsembleH07(), CfProtocolH05(), Marginal(), SimulateTuned())}
