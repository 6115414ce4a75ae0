#!/usr/bin/env python3
"""Build the server under test and the load generator, then run one
benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold_uniform --seed 1 --seconds 10 --trace 0

Both programs are built from source with `cargo --offline` into
$CARGO_TARGET_DIR (default `.bench_build`): `inano-serve` from the
repository's workspace and `perfbench` from its own package in this
directory. Every argument is passed on to `perfbench`, whose last line
of standard output is the run's JSON summary. Build output goes to
standard error. Exits non-zero if either build or the run fails.
"""

import os
import subprocess
import sys


def build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
        env=env,
    )
    return done.returncode == 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: no workspace at %s" % root, file=sys.stderr)
        return 2
    if not build(["--manifest-path", os.path.join(root, "Cargo.toml"),
                  "-p", "inano-net", "--bin", "inano-serve"], target_dir):
        return 3
    if not build(["--manifest-path", os.path.join(here, "Cargo.toml")], target_dir):
        return 3
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--serve-bin", os.path.join(release, "inano-serve"),
        "--out-dir", os.path.join(root, "perfbench-out"),
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
