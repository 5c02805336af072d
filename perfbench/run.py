#!/usr/bin/env python3
"""Build and run the genome-net benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds `perfbench/` (a Cargo package of its own that calls
the repository's crates through their public APIs) and runs one workload;
the last line of standard output is the result object. The second form
checks the benchmark itself: see `self_test`. Run from the repository root;
everything the benchmark writes goes under `.perfbench/` and the Cargo
target directory (`$CARGO_TARGET_DIR`, default `.bench_build`).
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates/ are missing: nothing to benchmark")
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
        return None
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_bench(exe, args, capture=False):
    """Run the binary from the repository root; the child is killed (and
    reaped) if it outlives the timeout."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, out.decode() if capture else None


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(exe):
    """The benchmark's own checks: the metric names are a closed world
    matching BENCHMARK.json, counts repeat exactly across two runs and
    agree with the shapes, and digests are recorded for the default and
    the held-out seed (the package's unit tests)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    name_re = re.compile(r"^[A-Za-z0-9_.-]+$")
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for names in declared.values():
        problems += [f"bad metric name {n!r}" for n in names if not name_re.match(n)]
    shape_counts = {
        "batch-exact": {"mi.joints_per_pair": 31, "core.update.frontier_pairs": 540,
                        "cluster.messages": 5},
        "ring-tcp-2": {"mi.joints_per_pair": 11, "core.update.frontier_pairs": 540,
                       "cluster.messages": 5},
    }
    repeat = ["mi.joints_per_pair", "core.update.frontier_pairs", "cluster.messages",
              "cluster.bytes_sent", "graph.edges"]
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1, 1):
            code, out = run_bench(exe, ["--workload", name, "--seed", "1", "--seconds", "1",
                                        "--trace", str(trace)], capture=True)
            if code != 0:
                problems.append(f"{name} trace {trace}: exit code {code}")
                continue
            res = result_of(out)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {res['attempted']} attempted, "
                                f"{res['failed']} failed, correct={res['correct']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: emitted names/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
            runs.setdefault(trace, []).append(res["metrics"])
        traced = runs.get(1, [])
        if len(traced) == 2:
            for k in repeat:
                a, b = (r.get(k, {}).get("value") for r in traced)
                if a != b:
                    problems.append(f"{name}: {k} differs across runs: {a} vs {b}")
            for k, want in shape_counts[name].items():
                got = traced[0].get(k, {}).get("value")
                if got != want:
                    problems.append(f"{name}: {k} = {got}, the shape says {want}")
    target = os.path.dirname(os.path.dirname(exe))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", MANIFEST], cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    if unit.returncode != 0:
        problems.append("unit tests failed")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        return 2
    if args == ["--self-test"]:
        return self_test(exe)
    code, _ = run_bench(exe, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
