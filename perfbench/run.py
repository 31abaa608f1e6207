#!/usr/bin/env python3
"""Build tilevm's benchmark and daemon from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec_solo --seed 1 --seconds 15 --trace 0

Every build product, the Go build cache, the native guest binaries and
the span files go to .bench_build/ in the checkout (or to
$CARGO_TARGET_DIR when it is set), so the benchmark writes nothing
outside the checkout. The arguments are passed on to the benchmark
binary; its last line of standard output is the result.
"""

import os
import shutil
import signal
import subprocess
import sys

# The benchmark binary itself must end within this; builds are not
# counted against it.
RUN_TIMEOUT_S = 175


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = go_env(out)
    bench = os.path.join(out, "perfbench")
    daemon = os.path.join(out, "tilevmd")
    build([go, "build", "-o", daemon, "./cmd/tilevmd"], root, env)
    build([go, "build", "-o", bench, "."], here, env)

    cmd = [bench, "--out", out, "--tilevmd", daemon] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %ds, killed\n" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
