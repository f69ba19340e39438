#!/usr/bin/env python3
"""PSPC benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload build|serve_read \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the library
from src/) in $CARGO_TARGET_DIR, or else .bench_build, then runs the
workload as separate processes of perfbench/pspcbench.cc:

    gen    seeded inputs: graph file, read keys
    build  graph file -> index, timed; saves the index file
    serve  index file -> DynamicSpcIndex -> ServingEngine; reads

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced and then traced, and prints the per-layer metrics, with the
tracing overhead on every end-to-end metric. Both lists of metrics are
read from BENCHMARK.json. The line before the result records the
machine, the build, and the untraced and traced runs in full.
perfbench/DESIGN.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = len(os.sched_getaffinity(0))
DEADLINE_S = 170  # per run, after the build

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
# Gated on every workload; BENCHMARK.json holds their bounds.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# The traced run's report. A layer that a workload does not run reports
# 0 there.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer numbers taken from the untraced run, as the end-to-end ones
# are.
UNTRACED = ("read_p90_us", "read_p99_us")


def workload_plan(name, seconds):
    """The fixed work of one run. It depends on --seconds only, never on
    how fast the machine is, so two runs of one program do identical
    work; on 4 cores the measured phase takes about `seconds`. Both
    workloads build the FB shape on every CPU."""
    plans = {
        # Graph file -> index; one thread reads 64-pair requests from the
        # new indexes.
        "build": dict(builds=max(1, seconds // 3), read_requests=200 * seconds,
                      serve_requests=0),
        # The index deployed; one client sends uniform 64-pair reads in a
        # closed loop.
        "serve_read": dict(builds=max(1, seconds // 3), read_requests=0,
                           serve_requests=1500 * seconds),
    }
    return plans[name]


def child_env():
    env = dict(os.environ)
    # The program picks its own merge kernel and runs its inputs at full
    # scale; the thread counts are the benchmark's own.
    for key in ("PSPC_MERGE_KERNEL", "PSPC_BENCH_SCALE_DIVISOR",
                "OMP_NUM_THREADS", "OMP_THREAD_LIMIT", "OMP_DYNAMIC"):
        env.pop(key, None)
    return env


def build_binary(build_dir):
    """Configures once, then (re)builds the pspcbench target."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pspcbench",
                    "-j", str(NPROC)], stdout=sys.stderr, check=True,
                   timeout=840)
    return os.path.abspath(os.path.join(build_dir, "pspcbench"))


def run_step(binary, command, args, deadline):
    """Runs one pspcbench subcommand and returns its report and exit
    code. The child is killed if it outlives the run's deadline."""
    argv = [binary, command] + [str(a) for a in args]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(),
                          text=True, timeout=max(1.0, deadline - time.time()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{command} exited {proc.returncode}, no report")
    return json.loads(lines[-1]), proc.returncode


def pipeline(binary, plan, workdir, trace, deadline):
    """Runs build, then serve if the workload has it, on the inputs in
    `workdir`. Returns the workload's report and whether every oracle
    check passed."""
    tracing = ["--trace"] if trace else []
    report, code = run_step(binary, "build", [
        "--dir", workdir, "--builds", plan["builds"],
        "--read-requests", plan["read_requests"]] + tracing, deadline)
    ok = code == 0
    if plan["serve_requests"]:
        served, code = run_step(binary, "serve", [
            "--dir", workdir, "--requests", plan["serve_requests"]] + tracing,
            deadline)
        ok = ok and code == 0
        # A serve workload is measured in the serving process; the build
        # process deployed its index and timed that build.
        for key, value in served.items():
            if key in ("attempted", "failed"):
                report[key] += value
            else:
                report[key] = value
    return report, ok


def cpu_times():
    with open("/proc/stat") as stat:
        return [int(f) for f in stat.readline().split()[1:9]]  # .. steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve_read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    plan = workload_plan(args.workload, max(1, args.seconds))
    # Stopped from outside, a run still stops the child it waits for:
    # the exception kills and reaps it inside subprocess.run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build_binary(build_dir)
    deadline = time.time() + DEADLINE_S
    info, _ = run_step(binary, "info", [], deadline)

    workdir = os.path.abspath(os.path.join(
        build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        before = cpu_times()
        inputs, code = run_step(binary, "gen", [
            "--dir", workdir, "--seed", args.seed, "--key-batches",
            max(plan["read_requests"], plan["serve_requests"])], deadline)
        if code != 0:
            raise RuntimeError("gen failed")
        untraced, ok = pipeline(binary, plan, workdir, False, deadline)
        if args.trace:
            traced, traced_ok = pipeline(binary, plan, workdir, True,
                                         deadline)
            ok = ok and traced_ok
        after = cpu_times()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    delta = [b - a for a, b in zip(before, after)]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, inputs=inputs,
                steal_pct=100.0 * delta[7] / max(1, sum(delta)),
                warmup="each process: 1 untimed build or 200-2000 untimed "
                       "reads before timing",
                untraced=untraced, traced=traced if args.trace else None)
    print(json.dumps({"info": info}), flush=True)

    if args.trace:
        values = {name: float((untraced if name in UNTRACED else traced)
                              .get(name, 0.0)) for name in PER_LAYER}
        for name in END_TO_END:
            values["trace.overhead_pct." + name] = (
                100.0 * (traced[name] - untraced[name]) / untraced[name])
        # The traced layers against the untraced build time: what they
        # leave out, plus the tracing overhead.
        parts = sum(traced[k] for k in
                    ("order.s", "core.ll_s", "core.lc_s", "label.finalize_s"))
        values["trace.build_unaccounted_pct"] = (
            100.0 * (untraced["build_s"] - parts) / untraced["build_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(untraced[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = int(untraced["failed"])
    correct = ok and failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(untraced["attempted"]),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
