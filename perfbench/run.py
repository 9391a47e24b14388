#!/usr/bin/env python3
"""Builds and runs the benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is refactor, retrieve, session or learned. The first run configures and
builds the benchmark together with the library sources in src/ under
.bench_build/perfbench; later runs reuse that build. Each run writes its full
result (header, metrics, details) to .bench_build/results/ (or --results DIR)
and prints one JSON line last on stdout with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. compare.py diffs two result directories.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    (compilers under a build tool included) and waits. Returns
    (returncode or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    code, _ = run_group(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr)
    return code == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # Concurrent runs in one checkout share the build; one builds at a time.
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if not run_logged(configure, BUILD_TIMEOUT_S):
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configure failed")
        jobs = str(os.cpu_count() or 1)
        if not run_logged(["cmake", "--build", BUILD_DIR, "--target",
                           "perfbench", "-j", jobs],
                          max(1.0, deadline - time.monotonic())):
            fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["refactor", "retrieve", "session", "learned"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--results", default=os.path.join(BUILD_ROOT, "results"),
                        help="directory for the full result files")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(args.results, exist_ok=True)
    out = os.path.join(args.results, "%s-trace%d-seed%d-%d.json" % (
        args.workload, args.trace, args.seed, int(time.time() * 1000)))
    env = dict(os.environ)
    env.pop("MGARDP_TRACE", None)  # the library's own tracer stays off
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    code, out_text = run_group(cmd, RUN_TIMEOUT_S, env=env,
                               stdout=subprocess.PIPE, text=True)
    if code is None:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 3)
    sys.stdout.write(out_text)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
