#!/usr/bin/env python3
"""Build and run the heteroprio benchmark from the root of a checkout.

    python3 perfbench/run.py --workload indep_k2 --seed 1 --seconds 15 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) against the checkout's
crates, prints a host stamp line, then runs the benchmark binary with the
same arguments. The binary's last output line is the result JSON object.
The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset.
"""

import json
import os
import platform
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The benchmark itself stops after --seconds plus set-up; this only guards
# against a hung run.
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    # Only this checkout's own repository counts, not one that encloses it.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def host_stamp():
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "git_commit": git_commit(),
    }


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile(MANIFEST) or not build(target_dir):
        print("error: the benchmark did not build", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "heteroprio-perfbench")
    print("host: " + json.dumps(host_stamp()), flush=True)
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
