#!/usr/bin/env python3
"""The repository benchmark's command (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds perfbench/ (and with it the photon
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the measuring program and passes its output
through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Exits nonzero, without a
result, when the build fails or the program dies; exits 1 with a result
whose "correct" is false when an output check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interior-bake", "cornell-dist", "service-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(target):
    """Configures once, then builds `target`; a no-op when up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no photon sources next to {HERE.name}/ (expected ../CMakeLists.txt and ../src)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", "4"])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step failed: {e}")
        if done.returncode != 0:
            die(f"build step failed ({done.returncode}): {' '.join(step)}")
    return out / target


def commit_id():
    """The git commit when the checkout is a repository, else a digest of the
    sources the program is built from."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10, check=False)
            if head.returncode == 0:
                return "git:" + head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT, check=False).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    # Relative to the checkout root (the program's working directory): the
    # service socket lives here, and socket paths are limited to 107 bytes.
    work_dir = f".bench_build/runs/{args.workload}-s{args.seed}-t{args.trace}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--commit", commit_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        for line in lines:
            print(line, file=sys.stderr)
        die(f"{args.workload} exited {run.returncode} without a result", 3)
    print("\n".join(lines))
    sys.exit(run.returncode if run.returncode in (0, 1) else 3)


if __name__ == "__main__":
    main()
