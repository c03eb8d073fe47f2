#!/usr/bin/env python3
"""Build the McCuckoo benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a
result line, if the build fails, an answer is wrong, or the run does not
finish in time. Span files of traced runs go to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embedded_read", "serve_churn", "serve_dram", "grow_logged")
# The benchmark binary must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def git_sha():
    # Only ask git when this checkout is itself a repository: asking in
    # an exported tree would make git search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    # Any integer is a seed; the binary takes it as an unsigned 64-bit one.
    seed = args.seed % 2**64
    cmd = [exe, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--out-dir", os.path.join(HERE, "out")]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"perfbench: cannot start {exe}: {e}", file=sys.stderr)
        return 1
    return 1 if run.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
