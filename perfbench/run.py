#!/usr/bin/env python3
"""Builds the pcpc end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim_web, thread_web, thread_flood, ipc_burst (perfbench/README.md).
The library and the benchmark program are built with CMake into
.bench_build/perfbench (configured once, then rebuilt incrementally on every
call); build output goes to stderr.  The program's stdout is passed through unchanged: its last
line is the JSON result, the line before it the host fingerprint.
Traced runs (--trace 1) write their spans to .bench_build/spans/NAME.jsonl.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim_web", "thread_web", "thread_flood", "ipc_burst")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    binary_dir = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", binary_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(binary_dir, "perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'none'."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "none"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "include", "pcpc")):
        fail(f"library sources (src/, include/) not found under {ROOT}")
    binary = build()

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--span-out", os.path.join(spans, f"{args.workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
