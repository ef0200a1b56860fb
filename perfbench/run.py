#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it once.

    python3 perfbench/run.py --workload vault|sync|share --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark is configured and built with
CMake in .bench_build at the repository root; the first run compiles src/
and takes about a minute, later runs only rebuild what changed. The last
line of stdout is the benchmark's JSON result. A failed build, or a run
that does not finish within 170 seconds, ends with a non-zero exit code and
no result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(out_dir):
    """Configures (once) and builds the benchmark, logging to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_identity():
    """Commit (when this is a git checkout) and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unavailable"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    out_dir = os.path.join(ROOT, ".bench_build")
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    commit, digest = source_identity()
    print(f"# source commit={commit} digest={digest}", flush=True)
    try:
        proc = subprocess.run(
            [os.path.join(out_dir, "perfbench")] + sys.argv[1:],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
