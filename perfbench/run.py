#!/usr/bin/env python3
"""Builds the LineFS benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: seqwrite_idle, syncwrite_busy, metadata_openloop. The build goes
to $CARGO_TARGET_DIR when set (relative paths are taken from the current
directory), else to .bench_build/ under the repository root; the first run
configures and compiles it, later runs only rebuild what changed. Build logs
go to stderr, so the last line of stdout is perfbench's JSON result. The exit
code is perfbench's: nonzero when a correctness check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(target) if target else os.path.join(ROOT, ".bench_build")


def build(out):
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: LineFS sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
