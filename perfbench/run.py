#!/usr/bin/env python3
"""Build and run the azoo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
perfbench CMake package (the azoo library, azoo_serve and the benchmark)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --selftest runs the arithmetic
self-test and a small-scale smoke run of every workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["scan-literal", "scan-automaton", "serve-snort"]
# A run takes --seconds plus a few seconds of preparation; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True)
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sources-" + h.hexdigest()[:16]


def bench_cmd(out, workload, seed, seconds, trace, extra=()):
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    return [os.path.join(out, "azoo_perfbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--serve-bin", os.path.join(out, "azoo_serve"),
            "--workdir", work, "--commit", source_id()] + list(extra)


def selftest():
    out = build(["azoo_perfbench", "azoo_serve", "perfbench_selftest"])
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        return 1
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            r = subprocess.run(
                bench_cmd(out, w, 7, 2, trace, ["--scale", "0.01"]),
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = r.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = {}
            ok = (r.returncode == 0 and res.get("correct") is True and
                  res.get("failed") == 0 and res.get("attempted", 0) > 0)
            print(f"smoke {w} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} (error_rate "
                  f"{res.get('failed', '?')}/{res.get('attempted', '?')})")
            if not ok:
                sys.stderr.write(r.stderr)
                bad += 1
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tools/azoo_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} is missing; run from a full checkout")
            return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    out = build(["azoo_perfbench", "azoo_serve"])
    try:
        return subprocess.run(
            bench_cmd(out, args.workload, args.seed, args.seconds,
                      args.trace),
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(1)
