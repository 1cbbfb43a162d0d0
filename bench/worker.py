"""One fresh interpreter running one workload; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes:

* ``setup``: import ltfsm and set the workload up, report the seconds.
* ``time``: after one untimed warm-up repetition, time driver repetitions
  until ``S`` seconds are used; report every time, the checks and the peak
  RSS of this interpreter.
* ``trace``: check reproducibility, alternate an untraced driver repetition
  and a traced rebuilt repetition until ``S`` seconds are used, then record
  per-stage memory peaks in one more rebuilt pass.

Run from the root of a checkout: ltfsm is imported from ``src/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# set-up time: from here to the end of the workload's set-up
_START = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402

import ltfsm  # noqa: E402
from tracing import FftCounter, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, same  # noqa: E402

# Stages with a self-time metric ``<stage>_s``.
STAGES = (
    "streams.substream", "streams.raw", "streams.uniform", "streams.ndtri",
    "streams.transform", "fbm.fgn", "fbm.cumsum", "localtime.kernel_prefix",
    "process.tune", "process.weights", "shotnoise.sum", "oracle.stable",
    "experiments.rwrr", "validation.cf", "validation.ks", "validation.holder",
    "io.write_csv", "io.manifest",
)
# Layers with a ``<layer>.peak_mb`` metric.
LAYERS = (
    "streams", "fbm", "localtime", "process", "shotnoise", "oracle",
    "experiments", "validation", "io",
)
COUNTS = (
    "streams.words", "streams.substreams", "fbm.increments", "fbm.fft_bytes",
    "process.terms", "process.capped_terms", "process.cap_warnings",
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class Tally:
    """Checked outputs: how many, how many failed, and the first problems."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.extend(bad[: 10 - len(self.problems)])

    def result(self, metrics: dict, detail: dict) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "metrics": metrics, "detail": detail}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def time_mode(wl, seconds):
    tally = Tally()
    output, warm = _timed(wl.run, 0)
    tally.record(wl.check(output))
    times, digests, notes = [], [], []
    rep = 1
    while len(times) < 3 or sum(times) + statistics.median(times) <= seconds:
        output, elapsed = _timed(wl.run, rep)
        tally.record(wl.check(output))
        times.append(elapsed)
        digests.append(digest(output))
        notes.append(wl.notes(output))
        rep += 1
    q1, med, q3 = _quartiles(times)
    metrics = {
        "run_s": med,
        "items_per_s": wl.items / med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    return tally.result(metrics, {
        "warmup_s": warm,
        "run_s": {"samples": len(times), "q1": q1, "median": med, "q3": q3, "all": times},
        "digests": digests,
        "notes": notes,
    })


def trace_mode(wl, seconds):
    tally = Tally()
    begin = time.perf_counter()
    # reproducibility and thread scaling, on the warm-up repetition
    warm = wl.run(0, threads=1)
    tally.record(wl.check(warm))
    bad, t2 = wl.verify(0, warm)
    tally.record(bad)

    driver_times, traced_times, tracers = [], [], []
    rep = 1
    while not tracers or time.perf_counter() - begin < seconds:
        output, elapsed = _timed(wl.run, rep, threads=1)
        tally.record(wl.check(output))
        driver_times.append(elapsed)
        tr = Tracer()
        with FftCounter(tr):
            rebuilt, elapsed = _timed(wl.rebuild, tr, rep)
        tally.record([] if same(rebuilt, output) else ["rebuilt output differs from the driver"])
        traced_times.append(elapsed)
        tracers.append(tr)
        rep += 1

    # per-stage memory peaks, in a pass of its own after the timed pairs
    mem = Tracer(memory=True)
    tracemalloc.start()
    try:
        rebuilt = wl.rebuild(mem, 0)
    finally:
        tracemalloc.stop()
    tally.record([] if same(rebuilt, warm) else ["memory-pass rebuild differs from the driver"])

    run_s = statistics.median(driver_times)
    traced_s = statistics.median(traced_times)
    metrics = {}
    for stage in STAGES:
        metrics[f"{stage}_s"] = statistics.median(tr.self_seconds(stage) for tr in tracers)
    metrics["cli.self_s"] = statistics.median(tr.self_seconds("cli") for tr in tracers)
    metrics["driver.glue_s"] = statistics.median(
        t - tr.top_level for t, tr in zip(traced_times, tracers)
    )
    metrics["trace.overhead_s"] = traced_s - run_s
    for layer in LAYERS:
        metrics[f"{layer}.peak_mb"] = mem.layer_peak_mb(layer)
    metrics["trace.peak_mb"] = max((e[3] for e in mem.stages.values()), default=0) / 2**20
    metrics["experiments.thread_speedup"] = 1.0 if t2 is None else run_s / t2
    first = tracers[0]
    for name in COUNTS:
        metrics[name] = first.counts[name]
    return tally.result(metrics, {
        "driver_s": driver_times,
        "traced_s": traced_times,
        "two_thread_s": t2,
        "stages": first.summary(),
        "memory_stages": {k: v["peak_mb"] for k, v in mem.summary().items()},
        "computed_counts": {name: first.counts[name] for name in COUNTS},
    })


def environment(wl):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": wl.threads,
        "items_per_rep": wl.items,
        "shape": wl.shape,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "time", "trace"))
    args = parser.parse_args()
    if not os.path.dirname(os.path.abspath(ltfsm.__file__)).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"ltfsm imported from {ltfsm.__file__}, not from {ROOT}/src")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload]
        wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "time":
            result = time_mode(wl, args.seconds)
        else:
            result = trace_mode(wl, args.seconds)
        if args.mode != "setup":
            result["detail"]["environment"] = environment(wl)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
