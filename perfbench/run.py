#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs the benchmark.

    python3 perfbench/run.py --workload agent-stream --seed 1 --seconds 30 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); build logs go to stderr. The benchmark's last
line of stdout is its result as one JSON object. Exits nonzero, without
a result, if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    built = build(os.path.join(ROOT, "Cargo.toml"), "-p", "pmc-serve", "-p", "pmc-router", "--bins") and build(
        os.path.join(HERE, "Cargo.toml")
    )
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
