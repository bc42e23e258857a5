#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Arguments are passed to the driver unchanged (see main.go); without
--workload every workload runs. The driver and the Go build cache live
in .bench_build/ at the checkout root, and a traced run writes its
spans to .bench_build/spans/. The exit code is the driver's, or 2 when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
        # The go command keeps its settings and telemetry counters under
        # the user config directory; keep them inside the build directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    return env


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["go", "build", "-trimpath", "-buildvcs=false", "-o", BINARY, "."]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=go_env(), timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if out.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main(argv):
    if not build():
        return 2
    args = [BINARY, "--commit", commit(), "--spans-dir", os.path.join(BUILD, "spans")] + argv
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
