#!/usr/bin/env python3
"""Measured training benchmark: build, run one workload, print the result.

Usage (from the repository root):

    python3 trainbench/run.py --workload gcn-tcp-1t --seed 1 \
        --seconds 45 --trace 0

Builds the library and the benchmark binary (trainbench/CMakeLists.txt) in
.bench_build/, then runs one workload (trainbench/trainbench.cpp documents
what a run does). Artifacts — traced spans and the library's metrics
report — go to .bench_out/. The last line of standard output is the result
object {correct, attempted, failed, metrics}; the line before it, starting
with "stamp", records host threads, ADAQP_THREADS, ISA, transport, source
revision and the sample count behind every metric. The exit code is non-zero
when the build fails, the binary fails, or a correctness check failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("gcn-tcp-1t", "sage-dense-1t")


def build():
    """Configure once, then build only the benchmark target and its library."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "trainbench",
                    "-j", "4"], check=True, stdout=sys.stderr, timeout=800)
    return os.path.join(BUILD_DIR, "trainbench")


def source_rev():
    """git revision when the checkout is a repository, plus a digest of the
    library sources, which identifies the code when it is not."""
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    rev = "src:" + digest.hexdigest()[:12]
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            rev = "git:" + git.stdout.strip() + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        sys.exit(f"trainbench: build failed: {err}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # The binary selects threads and transport itself; inherited ADAQP_* knobs
    # (metrics, tracing, fault injection, ISA) would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADAQP_")}
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", OUT_DIR, "--rev", source_rev()],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])  # refuse to pass on a malformed result
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
