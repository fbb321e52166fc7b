#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <flat_day|chaos_soak> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --short      # the benchmark's own tests

Run from the repository root. The benchmark program (perfbench/main.cc) is built
Release with CMake into $CARGO_TARGET_DIR (default .bench_build) on the first
run and rebuilt incrementally after that; build output goes to stderr so the
last line of stdout stays the program's JSON result. Traced runs also write
their spans as JSONL next to the build. Exits non-zero, printing no result,
when the build fails (for instance when the controller sources are missing).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()
    if not args.short and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.short:
        cmd = [binary, "--short"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
