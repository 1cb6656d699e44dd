#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

One run:

    python3 perfbench/run.py --workload hot-sql --seed 1 --seconds 30 --trace 0

builds `perfbench/` in release mode (offline; `CARGO_TARGET_DIR` is
honoured, default `perfbench/target`), runs one workload in its own
process, and passes its output through: the last stdout line is the
result JSON. Exit code 0 only when every output check passed.

Steadiness report:

    python3 perfbench/run.py --workload range-miss --seconds 30 --repeat 10 [--seed 1]

repeats one workload N times with seeds seed..seed+N-1 and prints, per
metric, the median, the quartiles (`statistics.quantiles(n=4)`), the
spread (Q3-Q1)/median and the metric's bound from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def src_digest():
    """SHA-1 over the sources the benchmark builds from (checkouts are
    not git repositories, so this stands in for the revision)."""
    h = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml", ".lock", ".py"))]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none"


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            os.path.join(HERE, "target")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev(),
               PERFBENCH_SRC_DIGEST=src_digest())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3, None
    return done.returncode, done.stdout


def spread_report(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(binary, args.workload, seed, args.seconds,
                             args.trace, capture=True)
        if code != 0 or not out:
            log(f"seed {seed}: run failed (exit {code})")
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        log(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{args.workload}: {args.repeat} runs of {args.seconds} s")
    print(f"{'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(k)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
        print(f"{k:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["hot-sql", "range-miss", "maintain-mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report over this many seeds")
    args = p.parse_args()
    binary = build()
    if binary is None:
        return 2
    if args.repeat > 0:
        return spread_report(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
