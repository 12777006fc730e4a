#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sim-rw --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files, the binary and traced runs' span dumps
all stay under .bench_build/ in the repository root (or under
$CARGO_TARGET_DIR when it is set, taken relative to the root). Arguments
are passed to the binary unchanged; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed (the benchmark builds the program from the checkout around it)",
              file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if not any(a == "--out" or a.startswith("--out=") for a in args):
        args += ["--out", out]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
