#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload synth|coverage|diagnose \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the `perfbench` package
(release) into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload, and relays the workload's output; the last stdout line is the
result object.  Everything it writes stays inside the checkout: the build
directory, a private CARGO_HOME under it, and the run records in
`.bench_runs/`.  It exits non-zero without a result when the sources are
missing, the build fails, or the workload fails or overruns its time.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The repository crates the benchmark builds against.
REQUIRED = ["crates/core/Cargo.toml", "crates/serve/Cargo.toml"]
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175
COLD_BUILD_S = 30


def source_digest():
    """sha256 over the benchmark's and the program's source files."""
    digest = hashlib.sha256()
    roots = [ROOT / "crates", HERE]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file() and "target" not in path.relative_to(root).parts:
                files.append(path)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        commit = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return f"{commit}+src:{source_digest()}"


def stop(proc):
    """Kills the workload and every process it started, then reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth", "coverage", "diagnose"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    started = time.monotonic()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    env["CARGO_HOME"] = str(target / "cargo-home")
    (target / "cargo-home").mkdir(parents=True, exist_ok=True)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), "--bins"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    built = time.monotonic()

    binary = target / "release" / "perfbench"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", commit_id(),
        "--out-dir", str(ROOT / ".bench_runs"),
    ]
    # A cold build (the first run in a checkout) does not count against
    # the workload's deadline; an up-to-date check does.
    clock_start = built if built - started > COLD_BUILD_S else started
    deadline = RUN_DEADLINE_S - (time.monotonic() - clock_start)
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline, 1))
    except subprocess.TimeoutExpired:
        stop(proc)
        print("run.py: workload overran its time", file=sys.stderr)
        return 1
    except BaseException:
        stop(proc)
        raise
    text = out.decode()
    if proc.returncode != 0:
        sys.stderr.write(text)
        print(f"run.py: workload exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(text)
        print("run.py: workload printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
