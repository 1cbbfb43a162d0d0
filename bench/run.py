"""ltfsm benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ltfsm is imported from ``src/`` there.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: the timed repetitions run in one fresh interpreter, and
the set-up time is the median over six more, three before and three after.  With
``--trace 1`` it reports the per-layer metrics from the traced, rebuilt
pipeline.  The last line of standard output is the result; the line before
it holds the details (quartiles, digests, environment).  See
``bench/README.md`` for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Fresh interpreters timed for set-up before, and again after, the timed
# repetitions; the median of all of them is reported.
SETUP_RUNS = 3
# Per worker, so that a whole run ends within 180 s.
WORKER_TIMEOUT_S = 150


def worker(workload, seed, seconds, mode):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"worker {mode} failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="ltfsm benchmark, one run")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ltfsm", "__init__.py")):
        sys.exit(f"no ltfsm sources under {ROOT}/src: run from the root of a checkout")

    if args.trace:
        result = worker(args.workload, args.seed, args.seconds, "trace")
        wanted = spec["per_layer"]
    else:
        def setup_times():
            return [worker(args.workload, args.seed, 0, "setup")["setup_s"]
                    for _ in range(SETUP_RUNS)]

        setups = setup_times()
        result = worker(args.workload, args.seed, args.seconds, "time")
        setups += setup_times()
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["detail"]["setup_s"] = setups
        wanted = spec["end_to_end"]

    measured = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(measured):
        sys.exit(f"metrics {sorted(measured)} do not match BENCHMARK.json {sorted(names)}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "problems": result["problems"],
        **result["detail"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
