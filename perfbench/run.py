#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled in release
mode (offline) into $CARGO_TARGET_DIR, `.bench_build` by default, then
run from the checkout root with the arguments given here plus the rustc
version and git commit for its run metadata. Its standard output, whose
last line is the JSON result, and its exit code are passed through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def probe(cmd):
    """First line of `cmd`'s output, or "unknown" when it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # Cargo's progress goes to stderr; nothing but the benchmark's own
    # output may reach stdout.
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    meta = [
        "--rustc",
        probe(["rustc", "--version"]),
        "--commit",
        probe(["git", "rev-parse", "HEAD"]),
    ]
    exe = os.path.join(target, "release", "neo-perfbench")
    return subprocess.run([exe] + sys.argv[1:] + meta, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
