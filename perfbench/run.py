#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--git-rev <rev>] [--out-dir <dir>]

Builds `perfbench/` in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`), pins the process to one CPU and runs the benchmark binary
with the given arguments. The binary's standard output is passed through;
its last line is the JSON result. The exit code is the binary's, or the
build's if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.path.dirname(HERE)
    # A relative target directory is taken relative to the repository root.
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "dlrm-perfbench")
    # The sequential executor runs one rank at a time; keeping all its
    # threads on one CPU makes the rank hand-offs same-core switches and
    # steadies the timing.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
