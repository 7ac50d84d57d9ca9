#!/usr/bin/env python3
"""Builds hammerbench from this checkout's sources and runs one workload.

    python3 hammerbench/run.py --workload taxonomy|cloud|pattern \
        --seed N --seconds S --trace 0|1 [--width N]

The build goes to .bench_build/hammerbench under the checkout root (the
first run configures and compiles; later runs are no-op builds). Build
logs go to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's: 0 only when every output check
passed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "hammerbench"

# Knobs that change what the simulator runs (HT_BENCH_SMOKE caps cycle
# budgets) or how it runs (thread pool size, profiler, shard window,
# sanitizer builds). The benchmark never inherits them.
FORBIDDEN_ENV = ("HT_BENCH_SMOKE", "HT_THREADS", "HT_PROFILE",
                 "HT_SHARD_MIN_WINDOW", "HT_SANITIZE")


def fail(message):
    print(f"hammerbench/run.py: {message}", file=sys.stderr)
    return 1


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "hammerbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "hammerbench"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env, check=False).returncode != 0:
            return False
    command = ["cmake", "--build", str(BUILD_DIR), "--target", "hammerbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, env=env, check=False).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--width")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no simulator sources under {ROOT / 'src'}")
    env = dict(os.environ)
    for name in FORBIDDEN_ENV:
        if env.pop(name, None) is not None:
            print(f"hammerbench/run.py: ignoring {name} from the environment", file=sys.stderr)
    if not build(env):
        return fail("build failed")

    command = [str(BUILD_DIR / "hammerbench"), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--commit", source_id()]
    if args.width:
        command += ["--width", args.width]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
