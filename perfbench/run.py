#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig4-pvfs-30 --seed 1 --seconds 60 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache and temporary files, the binary, and the traced
run's CPU profiles and Chrome Trace Event files. The program's last output line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def commit():
    """The git commit of the checkout, or a digest of its Go sources when
    the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOENV="off",
        GOTMPDIR=os.path.join(BUILD, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    bench = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.terminate()
            bench.wait()


def stop(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main())
