#!/usr/bin/env python3
"""End-to-end serving benchmark: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload churn-swap --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository. The driver (perfbench/serve.cc) is built
in Release mode together with the library sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Its standard
output is passed through; the last line is the JSON result. --trace 1 also
writes the spans of one traced repetition as Chrome trace-event JSON to
<build dir>/spans-<workload>.json.

Host times are scaled to a nominal host speed. The driver times a fixed
reference job (an LRU cache simulation in serve.cc that uses no library code)
before the first repetition and after each, and multiplies each repetition's
host times -- timed phase, ticks, set-ups, span self times -- by 50 ms over
the geometric mean of the reference times around it. On a shared 4-vCPU VM
the program's speed drifted by a third over minutes; unscaled, ten 45 s runs
spread by 0.28-0.47 of their median. A slower program still reads slower in
full, since the reference does not run its code. The unscaled firings/s and
the scale of every repetition are printed above the result.

Workloads (the seed sets arrival phases, burst sizes, the churn trace and the
dag; the default seed is 1):
  churn-swap     5000 logical sessions, 256 open at once, 64 live, swap tier
                 on, adaptive placement, virtual time. Loads admit/close/adapt
                 and the swap codec; bypasses threads and large graphs.
  graph-scale    two sessions of one 2002-actor layered homogeneous dag on 2
                 workers, virtual time, no LLC. Loads per-firing engine work
                 and per-step replanning; bypasses threads, swap and the LLC.
  serve-threads  16 tenants on 4 real worker threads, sharded LLC, affinity
                 placement with a rebalance every 8 ticks, llc-shared costs.
                 Loads WorkerPool threading, the LLC and per-tick coordination.
                 Not in BENCHMARK.json: on a shared virtual machine its
                 wall-clock figures follow how many host cores are free (they
                 halved for minutes at a time), so runs do not repeat within
                 the bounds. The self-test still runs it and its checks.
"""

import argparse
import ctypes
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn-swap", "graph-scale", "serve-threads")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_serve; returns its path or exits."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("perfbench: the library sources are missing; run from a full checkout")
        sys.exit(2)
    out = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_serve", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out, os.path.join(out, "perfbench_serve")


def disable_aslr():
    """Starts the driver without address-space randomization. With it, where
    the heap lands changed churn-swap's firings/s by more than half from one
    process to the next (4-vCPU Xeon VM), which no number of repetitions
    inside a run averages out."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        log("perfbench: cannot disable address-space randomization; timings will spread more")


def run(exe, out, workload, seed, seconds, trace, quick=False, capture=False):
    cmd = [exe, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        cmd.append("--spans=" + os.path.join(out, f"spans-{workload}.json"))
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    return done.returncode, done.stdout


def self_test(exe, out):
    """Runs every workload at a size that takes seconds and checks the output
    against BENCHMARK.json: every metric printed with its unit and direction,
    the checks pass, and model_* metrics repeat bit-for-bit across processes.
    Tracing changing no count is checked by the driver itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if not set(names) <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} are not among {list(WORKLOADS)}")
    for workload in WORKLOADS:
        model = None
        for trace in (0, 1, 0):
            code, stdout = run(exe, out, workload, 7, 1, trace, quick=True, capture=True)
            last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                problems.append(f"{workload} trace={trace}: last line is not JSON: {last!r}")
                continue
            tag = f"{workload} trace={trace}"
            if code != 0 or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{tag}: exit {code}, correct {result['correct']}, failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, unexpected {extra}, wrong units {units}")
            printed = {}
            for line in stdout.splitlines()[:-1]:
                m = re.fullmatch(r"metric (\S+) = \S+ (\S+) \((\w+) is better\)", line)
                if m:
                    printed[m.group(1)] = m.group(2), m.group(3)
            for name, unit in expected[trace].items():
                if printed.get(name) != (unit, direction[name]):
                    problems.append(f"{tag}: {name} printed as {printed.get(name)}, "
                                    f"expected ({unit!r}, {direction[name]!r})")
            if trace == 0:
                now = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("model_")}
                if model is not None and now != model:
                    problems.append(f"{tag}: model_* metrics differ between runs: {model} vs {now}")
                model = now
        log(f"self-test {workload}: done")
    for p in problems:
        log("self-test FAILED: " + p)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    out, exe = build()
    disable_aslr()
    if args.self_test:
        return self_test(exe, out)
    code, _ = run(exe, out, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
