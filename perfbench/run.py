#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one measurement.

    python3 perfbench/run.py --workload <pair_long|serve_small|routed_mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The harness (perfbench/CMakeLists.txt) compiles the library under src/
together with the benchmark's own sources into the build directory named by
CARGO_TARGET_DIR (default .bench_build at the repository root). Build output
goes to stderr; the harness's stdout passes through unchanged, so its last
line is the result object. The exit code is the harness's, or 4 when the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target", target]]
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"perfbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = build_dir
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_selftest" if selftest else "flsa_perfbench"
    if not build(build_dir, target):
        return 4
    command = [os.path.join(build_dir, target)]
    if not selftest:
        command += sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
