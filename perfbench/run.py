#!/usr/bin/env python3
"""Build the memres host-time benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_shuffle|scale_dispatch|all> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark package is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Build output goes to stderr;
stdout is the benchmark's own, ending in one JSON line. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "memres-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
