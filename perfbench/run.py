#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-route --seed 1 --seconds 20 --trace 0

It builds the Go module in this directory (which compiles the library
from the repository's source), runs one workload, and passes the
program's output through. The last line of standard output is the JSON
result. Build outputs, the Go build cache and the spans of traced runs
go under $CARGO_TARGET_DIR, or .bench_build at the repository root.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_id():
    """Identify the source measured: the git commit when there is one,
    and always a digest of the Go sources, which also covers a checkout
    without git metadata or with uncommitted edits."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=True).stdout.strip()
            ident = "git:" + head + " " + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    # Everything the go command writes (build cache, temporary files, its
    # config and telemetry directory, GOPATH) stays under the build dir.
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOTMPDIR=os.path.join(build, "tmp"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOPATH=os.path.join(build, "gopath"),
               GOTOOLCHAIN="local",
               GOWORK="off",
               GOFLAGS="-buildvcs=false",
               CGO_ENABLED="0")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        done = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-commit", source_id()]
    if args.trace:
        cmd += ["-spans", os.path.join(build, "spans", f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
