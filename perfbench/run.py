#!/usr/bin/env python3
"""Build and run the dynsched benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload ilp_study|dynp_sim|serve_mix \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the library sources of this checkout plus
the harness, Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload. The harness prints a
readable report and, as its last line, the JSON result; its exit code is
passed through (1 = a correctness check failed). Without the library
sources next to perfbench/ the build cannot start and this exits 2.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; the lock serialises
    concurrent runs sharing one build directory."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "dynbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return build_dir / "dynbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ilp_study", "dynp_sim", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dynsched").is_dir():
        fail("library sources not found at %s; run from a dynsched checkout"
             % (ROOT / "src"))
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    binary = build(target / "perfbench")
    workdir = target / "perfbench-run"
    workdir.mkdir(parents=True, exist_ok=True)

    # Relative, so the server's Unix socket path stays short.
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", os.path.relpath(workdir)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
