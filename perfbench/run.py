#!/usr/bin/env python3
"""Build and run the SMORE open-loop benchmark.

    python3 perfbench/run.py --workload <serve_steady|serve_adapt|train_infer> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `smore_serve` binary from the
workspace and the `perfbench` package, both in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Exits non-zero, without a result, when either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "smore_serve", "--bin", "smore_serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(release, "smore_serve"),
        "--run-dir",
        os.path.join(root, ".perfbench"),
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
