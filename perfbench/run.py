"""doalab benchmark: one command for every workload.

    python3 perfbench/run.py --workload detect|estimate|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh interpreters
(``workload.py``) with BLAS and OpenMP pinned to one thread.  Without
tracing the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {
        "trials_per_s": ..., "setup_s": ..., "peak_rss_mib": ...}}

where ``setup_s`` is the median over several fresh interpreters; with
``--trace 1`` the metrics are the per-layer ones.  Metric names and units
are read from ``BENCHMARK.json`` beside this directory.  The exit code is 0
only when every output passed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# fresh interpreters timed to the first trial, per run; sweep's set-up
# builds the codebooks and takes about 6 s, the others' about 0.5 s
SETUP_SAMPLES = {"detect": 9, "estimate": 9, "sweep": 5}
TIMEOUT_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, result_path, deadline):
    """Run workload.py; returns its result and the seconds from its launch
    to its first trial."""
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args,
           "--result", result_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload process exceeded {TIMEOUT_S:.0f} s")
    if code != 0:
        raise SystemExit(f"workload process exited with code {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["ready"] - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("detect", "estimate", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "doalab", "harness.py")):
        print(f"no doalab sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            setups.append(run_child(["--workload", args.workload, "--setup-only"],
                                    result_path, deadline)[1])
    result, setup = run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        result_path, deadline)
    setups.append(setup)

    problems = result["setup_problems"] + result["problems"]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} "
          f"operations attempted, {result['failed']} failed, "
          f"{result['trials']} trials in {result['busy_s']:.3f} s")
    if args.trace:
        listed = spec["per_layer"]
        measured = result["per_layer"]  # a layer the run never entered reads 0
    else:
        listed = spec["end_to_end"]
        measured = {"trials_per_s": result["trials"] / result["busy_s"],
                    "setup_s": statistics.median(setups),
                    "peak_rss_mib": result["peak_rss_mib"]}
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
