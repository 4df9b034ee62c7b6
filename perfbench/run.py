#!/usr/bin/env python3
"""Run one benchmark workload end to end and print its result.

    python3 perfbench/run.py --workload train-netflix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the library, tuckerd and
the htbench program from source into .bench_build/perfbench (CMake, Release),
generates the workload's inputs from --seed into a scratch directory,
measures for --seconds, and removes the inputs again. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics from a
separate traced run, with the spans written to
.bench_build/traces/<workload>-s<seed>.jsonl.

Standard output ends with two lines: the full record (host stamp, sample
counts, notes), then the result object with exactly the keys correct,
attempted, failed and metrics. Build and progress output go to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["train-netflix", "complete-planted", "serve-zipf"]
GEN_TIMEOUT_S = 60
RUN_SLACK_S = 90


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group,
    so a tuckerd that htbench spawned cannot outlive the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[0]} {cmd[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out.decode() if capture else None


def build():
    for need in ("src", os.path.join("tools", "tuckerd.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} next to perfbench/: nothing to build")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    call(["cmake", "--build", BUILD, "-j", "4"], timeout=850)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def complete_metrics(record, trace):
    """Check the record's metrics against BENCHMARK.json. Every end-to-end
    metric must be measured; a layer a workload does not exercise (TTMc on
    serve-zipf, say) reads 0."""
    expected = expected_metrics(trace)
    got = record["metrics"]
    names = {m["name"] for m in expected}
    unknown = sorted(set(got) - names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in expected:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                raise BenchError(f"{m['name']} has unit {got[m['name']]['unit']}")
            out[m["name"]] = got[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            raise BenchError(f"end-to-end metric {m['name']} not measured")
        if out[m["name"]]["value"] is None:
            raise BenchError(f"{m['name']} is not a finite number")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", choices=["fit", "answer"],
                    help="deliberately corrupt one result (the benchmark's own test)")
    args = ap.parse_args()

    try:
        build()
        exe = os.path.join(BUILD, "htbench")
        data = os.path.join(".bench_build", "data",
                            f"{args.workload}-s{args.seed}-{os.getpid()}")
        shutil.rmtree(os.path.join(ROOT, data), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, data))
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--data", data]
        run = [exe, "run"] + common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            trace_out = os.path.join(traces, f"{args.workload}-s{args.seed}.jsonl")
            if os.path.exists(trace_out):
                os.remove(trace_out)
            run += ["--trace-out", trace_out]
        if args.inject:
            run += ["--inject", args.inject]
        try:
            call([exe, "gen"] + common, timeout=GEN_TIMEOUT_S)
            out = call(run, timeout=args.seconds + RUN_SLACK_S, capture=True)
        finally:
            shutil.rmtree(os.path.join(ROOT, data), ignore_errors=True)
        record = json.loads(out.strip().splitlines()[-1])
        metrics = complete_metrics(record, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2

    print(json.dumps(record))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
