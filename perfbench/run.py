#!/usr/bin/env python3
"""Builds and runs the ANC benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_pair --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs `perfbench` (`--trace 0`: end-to-end
metrics) or `perfbench_traced` (`--trace 1`: per-layer metrics). Standard
output carries the binary's `report` line, a `host` line, and, last, the
result line `{"correct", "attempted", "failed", "metrics"}`. The same
three objects, plus the spans of a traced run, are also written under
`perfbench/out/`.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_pair", "mc_x_impaired", "city_100k")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Release build of both benchmark binaries from this checkout."""
    for needed in ("Cargo.toml", "crates/sim/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repository", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--bins"]
    try:
        # Cargo's output goes to stderr; stdout is reserved for results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / ".cargo" / "config.toml"]
    for sub in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py"))
    for f in files:
        if f.is_file() and "out" not in f.relative_to(ROOT).parts:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def target_cpu():
    """The `target-cpu` the build used: `RUSTFLAGS` replaces the
    repository's `.cargo/config.toml` flags when set."""
    flags = os.environ.get("RUSTFLAGS")
    source = "RUSTFLAGS"
    if flags is None:
        cfg = ROOT / ".cargo" / "config.toml"
        text = cfg.read_text() if cfg.is_file() else ""
        flags = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        source = ".cargo/config.toml"
    m = re.search(r"target-cpu=([A-Za-z0-9_.-]+)", flags)
    return f"{m.group(1)} ({source})" if m else "default"


def host():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "rustc": command_output(["rustc", "--version"]),
        "target_cpu": target_cpu(),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    args = parse_args()
    build()
    binary = target_dir() / "release" / ("perfbench_traced" if args.trace else "perfbench")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{stem}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"benchmark exited with status {done.returncode}")
    try:
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"benchmark printed no result: {e}")
    fingerprint = {"host": host()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**fingerprint, **report, "result": result}, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(fingerprint))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
