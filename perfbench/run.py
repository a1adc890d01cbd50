#!/usr/bin/env python3
"""Build and run the mapping-system benchmark.

One run:
    python3 perfbench/run.py --workload direct --seed 1 --seconds 20 --trace 0

builds the benchmark (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), runs one workload and prints its
JSON result as the last line of stdout. Build output and progress go to
stderr. The exit code is non-zero when the build fails, a correctness
check fails or the run overstays its time limit.

Steadiness mode:
    python3 perfbench/run.py --steady 10 [--workload all] [--seed 1] [--seconds 20] [--trace 0]

runs each workload N times back to back with seeds seed, seed+1, ...
and prints, per metric, the median, the quartiles and their spread
(interquartile range over median) against the bound in BENCHMARK.json.
Run it twice (for example with --seed 1 and --seed 101) to check that
two sets of runs agree within the bounds. --seconds defaults to
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["direct", "multilevel", "service", "link-failure"]
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return None
    if done.returncode != 0:
        log("run.py: build failed")
        return None
    binary = os.path.join(target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    spans = os.path.join(ROOT, ".bench_tmp", "spans")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp-dir", tmp]
    if trace:
        cmd += ["--trace-out", os.path.join(spans, f"{workload}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: {workload} overstayed {RUN_LIMIT_S} s")
        return 1, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    return proc.returncode, (lines[-1] if lines else None)


def steady(binary, args, bench):
    defs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {d["name"]: d.get("bound") for d in defs}
    names = WORKLOADS if args.workload in (None, "all") else [args.workload]
    for w in names:
        values = {d["name"]: [] for d in defs}
        took = []
        for k in range(args.steady):
            t0 = time.monotonic()
            code, line = run_once(binary, w, args.seed + k, args.seconds, args.trace)
            took.append(time.monotonic() - t0)
            if code != 0 or line is None:
                print(f"{w}: run {k} failed (exit {code})")
                return 1
            res = json.loads(line)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}, "
              f"{statistics.mean(took):.1f} s per run (longest {max(took):.1f} s)")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("wide" if spread <= bound else "FAIL")
            btxt = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {btxt:>6} {flag}")
            if args.verbose:
                print("    " + " ".join(f"{x:.5g}" for x in xs))
        sys.stdout.flush()
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run each workload this many times and print spreads")
    p.add_argument("--verbose", action="store_true", help="steadiness mode: print every value")
    args = p.parse_args()
    if not args.steady and args.workload in (None, "all"):
        p.error("--workload must name one workload")
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    if args.steady:
        return steady(binary, args, bench)
    code, line = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if line is not None:
        print(line)
    return code if code != 0 else (0 if line is not None else 1)


if __name__ == "__main__":
    sys.exit(main())
