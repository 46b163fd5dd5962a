#!/usr/bin/env python3
"""Builds and runs the xupdate end-to-end benchmark.

    python3 perfbench/run.py --workload reason|history|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the xupdate libraries from src/ plus the harness,
always optimized) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the result object the harness prints. Scratch stores, data directories
and sockets live under <build dir>/tmp/<pid> and are removed when the
run ends;
a traced run writes its spans to <build dir>/results.

--self-test runs the harness's unit tests and checks that the metric
names the harness reports are exactly those BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no xupdate sources next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", out, "-j", jobs, "--target",
                   "perfbench", "perfbench_selftest"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def self_test(out):
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        fail("harness unit tests failed")
    listed = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    reported = [tuple(line.split()) for line in listed.stdout.splitlines()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [("end_to_end", m["name"], m["unit"])
                for m in spec["end_to_end"]]
    declared += [("per_layer", m["name"], m["unit"])
                 for m in spec["per_layer"]]
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        fail("BENCHMARK.json and the harness disagree: declared but not "
             "reported %s; reported but not declared %s" % (missing, extra))
    print("self-test ok: %d metrics match BENCHMARK.json" % len(reported))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["reason", "history", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    out = build_dir()
    build(out)
    if args.self_test:
        self_test(out)
        return 0
    # Relative to the checkout root (the harness's working directory):
    # Unix socket paths under it must stay short.
    scratch = os.path.relpath(os.path.join(out, "tmp", str(os.getpid())),
                              ROOT)
    results = os.path.join(out, "results")
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-root", scratch, "--out-dir", results]
    # A terminated run.py takes the harness down with it (subprocess.run
    # kills and reaps the child when the wait is interrupted), and the
    # scratch directory goes either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
