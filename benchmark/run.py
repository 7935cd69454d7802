#!/usr/bin/env python3
"""Build and run the symbreak benchmark for one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload sparse-1e5 --seed 1 --seconds 20 --trace 0

Builds the benchmark package (``benchmark/Cargo.toml``) in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then runs the workload in a
fresh process with a pinned engine configuration: ``CONGEST_THREADS=1`` and
every other ``CONGEST_*`` and ``*_SMOKE`` variable cleared. The process is
pinned to the CPU on which a short memory-bound probe runs fastest, since
other tenants of a shared machine slow one CPU's memory accesses at a time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
untraced and then with the traced binary, writes the spans under
``$CARGO_TARGET_DIR/perfbench-spans/`` and prints the per-layer metrics,
including the traced-over-untraced time ratio of each end-to-end timing.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it carry
the configuration, the output digest and each workload's own
per-operation figures. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170
# The first run in a checkout also builds.
BUILD_LIMIT_S = 850
OVERHEAD_METRICS = ("setup_s", "pass_ref_s")


def pinned_env():
    """The environment of the benchmark process: one engine thread, no
    other engine or smoke knobs."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not (k.startswith("CONGEST_") or k.endswith("_SMOKE"))
    }
    env["CONGEST_THREADS"] = "1"
    return env


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"benchmark build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"benchmark build failed with exit code {done.returncode}")


def pinned_to(cpu):
    """A preexec_fn pinning the child to `cpu`, where the system allows it."""

    def pin():
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass

    return pin


def quietest_cpu():
    """The CPU on which a memory-bound probe runs fastest right now."""
    exe = os.path.join(target_dir(), "release", "perfbench")
    best = None
    for cpu in sorted(os.sched_getaffinity(0)):
        try:
            out = subprocess.run(
                [exe, "--memory-probe"],
                stdout=subprocess.PIPE,
                text=True,
                timeout=60,
                preexec_fn=pinned_to(cpu),
                check=True,
            )
            secs = float(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError) as e:
            sys.exit(f"memory probe on CPU {cpu} failed: {e}")
        if best is None or secs < best[1]:
            best = (cpu, secs)
    return best


def run_binary(name, args, deadline, cpu):
    """Runs one benchmark binary; returns its output lines and the parsed
    result line."""
    exe = os.path.join(target_dir(), "release", name)
    try:
        done = subprocess.run(
            [exe] + args,
            env=pinned_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            preexec_fn=pinned_to(cpu),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"{name} failed: {e}")
    if done.returncode != 0:
        sys.exit(f"{name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{name} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{name} printed a malformed result: {lines[-1]}")
    return lines[:-1], result


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    cpu, probe = quietest_cpu()
    config = {
        "rustc": rustc_version(),
        "CONGEST_THREADS": "1",
        "cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "memory_probe_s": probe,
    }
    print(json.dumps({"config": config}))
    detail, result = run_binary("perfbench", args, deadline, cpu)
    if opts.trace:
        untraced = result
        spans = os.path.join(target_dir(), "perfbench-spans", f"{opts.workload}-seed{opts.seed}.json")
        detail, result = run_binary("perfbench-traced", args + ["--spans", spans], deadline, cpu)
        traced_e2e = json.loads(detail[-1])["detail"]["end_to_end"]
        for name in OVERHEAD_METRICS:
            base = untraced["metrics"][name]["value"]
            traced = traced_e2e[name]["value"]
            ratio = traced / base if base and traced is not None else None
            result["metrics"]["trace.overhead." + name] = {"value": ratio, "unit": "ratio"}
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["correct"] = result["correct"] and untraced["correct"]
    for line in detail:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
