#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary, the Go build cache and each
run's scratch files live under $CARGO_TARGET_DIR (default .bench_build)
in the checkout, so nothing is written outside it. A failed build exits
non-zero without printing a result. Arguments are passed to the
benchmark unchanged; see perfbench/main.go for them.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
binary = os.path.join(out, "perfbench")

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(out, "gocache"),
    GOMODCACHE=os.path.join(out, "gomodcache"),
    GOTMPDIR=os.path.join(out, "tmp"),
    XDG_CONFIG_HOME=os.path.join(out, "config"),
    GOENV="off",
    GOFLAGS="",
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOWORK="off",
)
os.makedirs(env["GOTMPDIR"], exist_ok=True)
build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode)
os.execv(binary, [binary, "--scratch", out] + sys.argv[1:])
