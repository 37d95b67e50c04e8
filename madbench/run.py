#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 madbench/run.py --workload lr_train|bootstrap|serve_mixed \
        --seed N --seconds S --trace 0|1

The library and the benchmark are built in Release into .bench_build/madbench/ at
the checkout root (an incremental no-op after the first run). The
workload runs with every inherited MADFHE_* variable cleared and
MADFHE_THREADS=1 pinned: key switching races on the lazily filled
basis-converter caches at two or more threads (see README.md). Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "madbench")
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MADFHE_")}
    env["MADFHE_THREADS"] = "1"
    return env


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "madbench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)


def main(argv):
    env = clean_env()
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([os.path.join(BUILD, "madbench")] + argv,
                              stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: madbench did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
