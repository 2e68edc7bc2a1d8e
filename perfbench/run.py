#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: suite-cold, wide-cold, serve-mixed, sim-emit. The binary is
built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision, or a hash of the source tree outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(cmd, env, timeout, stdout):
    """Runs `cmd`, killing it (and waiting for it) on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout) as proc:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 1
        return proc.returncode


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if run(build, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_REVISION"] = revision()
    binary = os.path.join(ROOT, target, "release", "perfbench")
    out_dir = os.path.join(HERE, "out")
    code = run([binary, *sys.argv[1:], "--out-dir", out_dir], env, RUN_TIMEOUT_S, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
