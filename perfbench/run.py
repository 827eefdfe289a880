#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library, `mnc_tool` and the
driver (Release, into .bench_build/), records provenance, then runs one
workload through the driver, which starts `mnc_tool serve --listen` in its
own process, drives it over the socket, checks every reply and prints the
metrics. The last line of standard output is the JSON result. Exit codes:
0 all replies correct, 1 a reply failed its check (result still printed),
2 the benchmark could not build or set up (no result printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("estimate-optimizer", "exec-hypersparse-churn", "exec-densify")
# Repository files the build needs; without them the benchmark cannot run.
REQUIRED = ("CMakeLists.txt", "src/CMakeLists.txt", "examples/mnc_tool.cc")
# Variables that would change the configuration under test.
SCRUBBED_ENV = ("MNC_FAILPOINTS", "MNC_PROFILE", "MNC_SIMD")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(deadline):
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1, deadline - time.time())).returncode:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "perfbench_driver",
           "mnc_tool", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=max(1, deadline - time.time())).returncode:
        fail("build failed")


def cache_value(key):
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def find_binary(name):
    for sub in ("", "mnc/examples"):
        path = os.path.join(CMAKE_DIR, sub, name)
        if os.path.isfile(path):
            return path
    fail("built binary %s not found" % name)


def provenance():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    # The checkout the driver measures is not a git repository; a digest of
    # the sources identifies the code under test either way.
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            digest.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
        "nproc": os.cpu_count(),
    }


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test: corrupt one reference; the run must then report failure.
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("repository sources missing: " + ", ".join(missing))
    first_build = not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt"))
    build(start + (850 if first_build else 170))
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail("refusing to measure a non-optimized build (%r)" % build_type)
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    sys.stdout.flush()

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    home = os.path.join(work, "home")
    os.makedirs(home, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["HOME"] = env["XDG_CACHE_HOME"] = home
    cmd = [find_binary("perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tool", find_binary("mnc_tool"), "--work", work,
           "--reports", os.path.join(BUILD, "reports")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # The driver and the server it starts share a process group, so a
    # timeout stops both.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    budget = (start + 890 if first_build else start + 175) - time.time()
    try:
        out, _ = proc.communicate(timeout=max(1, budget))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:  # anything the driver left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("driver exited with %d and no valid result" % proc.returncode)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
