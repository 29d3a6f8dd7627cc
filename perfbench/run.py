#!/usr/bin/env python3
"""StreamPIM benchmark: three closed-loop workloads over the timed and
functional simulator paths (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds perfbench_harness from
source (optimized) under .bench_build, or under $CARGO_TARGET_DIR
when that is set, runs the workload with one client in one process,
checks every op's output, and prints one JSON object as the last
line of standard output: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# Set-up samples per run: the window process's own set-up plus fresh
# --setup-only processes, half before the window and half after, so
# the median spans the run's host-speed phases.
SETUP_SAMPLES = {
    "timed_bert": 3,
    "timed_mlp": 3,
    "functional_matmul": 7,
}

# Every process this script starts must end well inside the 180 s a
# run may take.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_build_step(cmd, timeout, log):
    """Run one build command in its own process group, logging to
    @p log. On timeout the group gets SIGTERM first: ninja moves each
    compiler into a group of its own and stops them only when it is
    allowed to clean up."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                            stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if code != 0:
        log.flush()
        tail = Path(log.name).read_text()[-4000:]
        fail(f"exit {code}: {' '.join(cmd)}\n{tail}")


def build():
    """Configure and build the harness; return its path."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    start = time.monotonic()
    with open(build_dir / "build.log", "w") as log:
        run_build_step(configure, BUILD_DEADLINE_S, log)
        run_build_step(["cmake", "--build", str(build_dir), "-j", jobs],
                       BUILD_DEADLINE_S - (time.monotonic() - start), log)
    return build_dir / "perfbench_harness"


def harness_env():
    """Engine jobs are pinned per workload, never taken from here."""
    env = dict(os.environ)
    for knob in ("STREAMPIM_JOBS", "STREAMPIM_DEVICE_JOBS"):
        env.pop(knob, None)
    return env


def run_harness(harness, args, deadline, setup_only=False):
    cmd = [str(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the next harness process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=harness_env(),
                              timeout=timeout, text=True,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"harness exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SETUP_SAMPLES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main():
    args = parse_args()
    strict = os.environ.get("STREAMPIM_STRICT_GATES", "")
    if strict not in ("", "0"):
        fail("refusing to run under STREAMPIM_STRICT_GATES: the gate "
             "netlist oracle is a correctness mode, not a fast path")

    # The build precedes the run's deadline: the first run in a
    # checkout may spend most of its time here.
    harness = build()
    deadline = time.monotonic() + RUN_DEADLINE_S

    # A traced run reports no set-up time, so it takes no extra samples.
    extra = 0 if args.trace else SETUP_SAMPLES[args.workload] - 1
    docs = [run_harness(harness, args, deadline, setup_only=True)
            for _ in range(extra // 2)]
    main_doc = run_harness(harness, args, deadline)
    docs.append(main_doc)
    docs += [run_harness(harness, args, deadline, setup_only=True)
             for _ in range(extra - extra // 2)]

    with open(HERE / "expected.json") as f:
        expected = json.load(f)
    attempted = failed = 0
    for k, doc in enumerate(docs):
        failures = metrics.check_ops(args.workload, doc["ops"], expected)
        attempted += len(doc["ops"])
        failed += len(failures)
        for i, reasons in sorted(failures.items()):
            for why in reasons:
                print(f"perfbench: process {k} op {i} failed: {why}",
                      file=sys.stderr)

    print("env: " + json.dumps(main_doc["env"], sort_keys=True))
    if args.trace:
        values = metrics.per_layer(args.workload, main_doc)
        units = metrics.PER_LAYER_UNITS
    else:
        values, tail = metrics.end_to_end(
            [d["setup_s"] for d in docs], main_doc)
        units = metrics.END_TO_END_UNITS
        window = len(main_doc["ops"]) - 1
        if tail:
            print(f"{tail[0]} {tail[1]!r} ms (of {window} ops)")
        else:
            print(f"op tail: none ({window} ops, fewer than ten beyond "
                  "the 90th percentile)")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
