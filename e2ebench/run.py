#!/usr/bin/env python3
"""Builds and runs the pam end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness in e2ebench/harness and the pam
libraries it links from src/ are configured as one Release build in
$CARGO_TARGET_DIR (default .bench_build), then pam_e2e runs with the same
arguments and scratch files under .bench_work. Build output goes to
stderr; the harness's last stdout line is the JSON result, and the exit
code is the harness's (non-zero when a check failed or nothing could be
built).
"""
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(source, build_dir):
    """Configures (once) and builds pam_e2e; returns the binary or None."""
    generated = [os.path.join(build_dir, f) for f in ("build.ninja",
                                                       "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "pam_e2e",
                       "-j", jobs], stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(build_dir, "pam_e2e")


def main():
    source = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(source, build_dir)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"pam_e2e did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
