#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run it.

    python3 perfbench/run.py --workload <crooked-pipe|server-mix|server-cold>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The build goes to .bench_build/perfbench
(CMake, Release) and its output to stderr, so the last line of standard
output is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        exe, args = "perfbench_selftest", []
    else:
        exe = "perfbench"
    proc = subprocess.run([os.path.join(BUILD, exe)] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
