#!/usr/bin/env python3
"""Build the program and the benchmark harness, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 10 --trace 0

Workloads: corpus-batch, dtl-symbolic, serve-mixed.

Builds the `textpres` binary (the daemon `serve-mixed` talks to) from the
repository's workspace and the `perfbench` harness from its own package, both
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the harness in a
fresh child process, so the builds' memory never counts towards its peak RSS
(the daemon's is read from the harness's own waited-for children). Build
output goes to standard error, so the last line of standard output is always
the harness's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.exit(f"perfbench: no workspace manifest at {root_manifest}; "
                 "run from a checkout of the repository")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(root_manifest, "-p", "textpres", "--bin", "textpres")
    build(os.path.join(HERE, "Cargo.toml"))
    harness = os.path.join(target, "release", "perfbench")
    textpres = os.path.join(target, "release", "textpres")
    done = subprocess.run([harness, *sys.argv[1:], "--textpres", textpres], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
