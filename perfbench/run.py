#!/usr/bin/env python3
"""Builds the benchmark package from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Traced runs write their spans under
<target>/perfbench-traces/. The benchmark's own output passes through
unchanged; its last line is the JSON result. The exit code is the
benchmark's, or the build's when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_id():
    """The git commit when the tree is a git checkout, else a digest of
    the sources the benchmark builds from."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs"))
    files += sorted((ROOT / "crates").rglob("Cargo.toml"))
    files += sorted(HERE.rglob("*.rs")) + [HERE / "Cargo.toml"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_SOURCE"] = source_id()
    trace_dir = target / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    exe = target / "release" / "perfbench"
    run = subprocess.run([str(exe), *sys.argv[1:], "--trace-dir", str(trace_dir)], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
