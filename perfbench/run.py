#!/usr/bin/env python3
"""Build locapd and the perfbench client from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --stability K --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The first form prints the client's report and, as its last line, one JSON
object with the run's metrics. The second runs the workload K times with
seeds N, N+1, ... and prints each metric's median, quartiles and
quartile spread (as a share of the median), from which the regression
bounds in BENCHMARK.json are set.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build). locapd is
built by the repository's own workspace and release profile; the client
is built by perfbench/Cargo.toml.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 1500
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build both binaries; return (locapd, client) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        fail(f"{ROOT} is not a locap checkout (no Cargo.toml or crates/serve)")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "locap-serve", "--bin", "locapd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release" / "locapd", target / "release" / "perfbench"


def client_cmd(binaries, workload, seed, seconds, trace):
    locapd, client = binaries
    return [str(client), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--locapd", str(locapd), "--profile", "release"]


def run_client(cmd, capture):
    """Run the client in its own process group, so that a timeout stops the
    daemons it started too. Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    return proc.returncode, out


def stability(binaries, args):
    runs = []
    for k in range(args.stability):
        seed = args.seed + k
        code, out = run_client(client_cmd(binaries, args.workload, seed, args.seconds, args.trace),
                               capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stderr.write(out)
            fail(f"run with seed {seed} exited {code}")
        result = json.loads(lines[-1])
        runs.append(result)
        steal = re.search(r"machine: ([0-9.]+)% of all CPU time", out)
        print(f"seed {seed}: failed {result['failed']} of {result['attempted']}, " + ", ".join(
            f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
            + (f", machine steal {steal.group(1)}%" if steal else ""), flush=True)
    print(f"{args.workload}: {len(runs)} runs, seconds {args.seconds}, trace {args.trace}")
    print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}  {first['unit']}")
    if not all(r["correct"] for r in runs):
        fail("a run reported wrong answers")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--stability", type=int, default=0, metavar="K",
                   help="run K seeds and print medians and quartiles")
    args = p.parse_args()
    binaries = build()
    if args.stability > 0:
        stability(binaries, args)
        return
    code, _ = run_client(client_cmd(binaries, args.workload, args.seed, args.seconds, args.trace),
                         capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
