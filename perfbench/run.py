#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The simulator (src/) and the benchmark program are compiled in Release mode
into .bench_build/perfbench; a rebuild is incremental. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Every
argument is passed on to the program (see perfbench/main.cc); span files of
traced runs land in .bench_build/perfbench/spans.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    # Configure once; the build step re-runs CMake when its inputs change.
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main() -> int:
    binary = build()
    cmd = [str(binary), *sys.argv[1:], "--spans-dir", str(BUILD / "spans")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
