#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relay --seed 1 --seconds 10 --trace 0

It builds the release `taxd` daemon and the `perfbench` load generator
from the checked-out sources (into $CARGO_TARGET_DIR, default
`.bench_build`), then replaces itself with the generator, which prints
the metrics and, as its last line, the JSON result. Workloads:
`relay`, `durable-door`, `webbot-tour`. Scratch files (journal
directories, the traced run's spans) go under `.bench_run/`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("relay", "durable-door", "webbot-tour")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo reports on stderr; standard output stays the generator's.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", os.path.join("src", "bin", "taxd.rs")):
        if not os.path.isfile(needed):
            fail(f"run from the repository root: {needed} not found")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, "--bin", "taxd")
    build(target, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))

    release = os.path.join(target, "release")
    generator = os.path.join(release, "perfbench")
    argv = [
        generator,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--taxd", os.path.join(release, "taxd"),
        "--repo", ".",
        "--out", ".bench_run",
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(generator, argv)


if __name__ == "__main__":
    main()
