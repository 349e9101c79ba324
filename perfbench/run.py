#!/usr/bin/env python3
"""Build the benchmark crate and run one workload in its own process.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|serve|lint|fuzz \
        --seed N --seconds S --trace 0|1 [--short]

The crate builds offline into $CARGO_TARGET_DIR (default `.bench_build`).
The last stdout line is the result object; the line before it holds the
details (spread of every metric, counts, host facts). See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "serve", "lint", "fuzz")
# The run must end within 180 s; leave room to stop the child.
RUN_TIMEOUT_S = 170


def command_output(cmd, cwd=None):
    # Keep git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true", help="small inputs, for tests")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", os.path.join(target, "perfbench-scratch"),
    ]
    if args.short:
        cmd.append("--short")
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit("perfbench: the workload did not finish in time")
    if child.returncode != 0:
        sys.exit(f"perfbench: the workload exited with code {child.returncode}")

    lines = out.strip().splitlines()
    if len(lines) < 2:
        sys.exit("perfbench: the workload printed no result")
    details = json.loads(lines[-2])
    result = json.loads(lines[-1])
    details["details"]["host"].update(
        {
            "rustc": command_output(["rustc", "--version"]),
            "commit": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT),
        }
    )
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
