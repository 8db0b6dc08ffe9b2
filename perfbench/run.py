#!/usr/bin/env python3
"""Build the benchmark and cmd/adcpsim from this checkout, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, temporary files and binaries live in the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the repository
root. A traced run (--trace 1) also writes its spans there as a Chrome
trace, trace-<workload>-<seed>.json. The last line of standard output is
the benchmark's JSON result; build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def go_env(build):
    """Environment that keeps every Go tool write inside the build directory."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOTMPDIR": "gotmp",
        "GOPATH": "gopath",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="", GOENV="off")
    return env


def find_go():
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    return go


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--trace", default="0")
    known, _ = ap.parse_known_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    go = find_go()
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = go_env(build)
    bench = os.path.join(build, "perfbench")
    adcpsim = os.path.join(build, "adcpsim")
    for out, pkg in ((bench, "."), (adcpsim, "repro/cmd/adcpsim")):
        proc = subprocess.run([go, "build", "-o", out, pkg], cwd=HERE, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print(f"run.py: building {pkg} failed", file=sys.stderr)
            return 1

    args = sys.argv[1:] + ["--adcpsim", adcpsim]
    if known.trace == "1":
        args += ["--trace-out", os.path.join(build, f"trace-{known.workload}-{known.seed}.json")]
    sys.stdout.flush()
    return subprocess.run([bench] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
