#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload langmuir-dense --seed 1 --seconds 15 --trace 0

Run from the repository root. The C++ benchmark is configured and built
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then run with the same arguments; its stdout passes through, and its last
line is the JSON result. Build failures exit non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    path = os.path.join(out, target)
    return path if os.path.exists(path) else None


def main(argv):
    binary = build("perfbench")
    if binary is None:
        return 1
    work_dir = os.path.join(build_dir(), "work")
    proc = subprocess.run([binary, "--work-dir", work_dir] + argv)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
