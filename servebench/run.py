#!/usr/bin/env python3
"""Builds and runs the rfx serving benchmark.

One run, from the root of the repository:

    python3 servebench/run.py --workload singles-light --seed 1 --seconds 30 --trace 0

builds the benchmark package (servebench/Cargo.toml) in release mode,
trains or verifies the two cached forest fixtures, runs the workload and
prints its report; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Steadiness report:

    python3 servebench/run.py --steadiness 10 --seconds 30 [--trace 0] [--workloads a,b]

runs every workload BENCHMARK.json lists that many times, rotating the
order each round and using a new seed per round, then prints each
metric's median, quartiles and quartile spread as a share of the median,
beside the bound BENCHMARK.json gives it.

Build output, fixtures and span files go under $CARGO_TARGET_DIR when it
is set, else under servebench/target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["singles-light", "singles-heavy"]
BUILD_TIMEOUT_S = 600
FIXTURE_TIMEOUT_S = 240
RUN_TIMEOUT_S = 170


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(configured) if configured else os.path.join(HERE, "target")


def build():
    """Builds the benchmark binary and makes sure its fixtures exist."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    binary = os.path.join(target, "release", "rfx-servebench")
    cache = os.path.join(target, "servebench-cache")
    subprocess.run([binary, "fixtures", "--cache", cache],
                   check=True, stdout=sys.stderr, timeout=FIXTURE_TIMEOUT_S)
    return binary, cache, os.path.join(target, "servebench-traces")


def run_once(binary, cache, out, workload, seed, seconds, trace, echo):
    """Runs one workload; returns the result line, its parsed form and the
    host steal the run reported."""
    proc = subprocess.run(
        [binary, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--cache", cache, "--out", out],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    steal = next((l.split(":", 1)[1].strip() for l in lines if "host steal:" in l), "n/a")
    return lines[-1], result, steal


def steadiness(binary, cache, out, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    gated = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else gated
    values = {w: {} for w in workloads}
    for r in range(args.steadiness):
        seed = args.first_seed + r
        for w in workloads[r % len(workloads):] + workloads[:r % len(workloads)]:
            _, result, steal = run_once(binary, cache, out, w, seed, args.seconds, args.trace,
                                        False)
            summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                               if k in bounds and bounds[k] is not None)
            print(f"round {r} {w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {summary} "
                  f"(host steal {steal})",
                  flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    print()
    print(f"{'workload':<14} {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound else "WIDE")
            print(f"{w:<14} {name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6} {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS")
    parser.add_argument("--workloads", help="comma-separated subset for --steadiness")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("give --workload or --steadiness")
    try:
        binary, cache, out = build()
        if args.steadiness is not None:
            steadiness(binary, cache, out, args)
        else:
            line, _, _ = run_once(binary, cache, out, args.workload, args.seed, args.seconds,
                                  args.trace, True)
            print(line, flush=True)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as e:
        print(f"servebench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
