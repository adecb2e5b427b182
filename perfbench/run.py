#!/usr/bin/env python3
"""Build and run spmap's benchmark.

    python3 perfbench/run.py --workload paper-spff --seed 1 --seconds 20 --trace 0

Builds the Go benchmark in perfbench/ against the spmap sources one
directory up, then runs it in its own process at GOMAXPROCS=1 with the
given arguments. The build cache, the binary and a traced run's spans go
to .bench_build/ in the checkout (or to $CARGO_TARGET_DIR when set), so
nothing is read or written outside the checkout. The benchmark's last
line of output is its JSON result; on any failure the exit code is not 0
and no result is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; it measures for --seconds and then checks
# its outputs, so the child gets a little less than that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        # Build offline with the installed toolchain and no user config.
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-trimpath", "-o", binary, "."],
                       cwd=HERE, env=env, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    env["GOMAXPROCS"] = "1"
    args = [binary, "--spans-dir", os.path.join(build, "spans")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
