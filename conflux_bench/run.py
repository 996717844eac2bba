#!/usr/bin/env python3
"""Build and run the conflux benchmark (README.md in this directory).

Run from the repository root:

  python3 conflux_bench/run.py --workload lu-n2048-p64 --seed 1 --seconds 20 --trace 0
  python3 conflux_bench/run.py --workload all --seed 1 --out runs.jsonl

The script builds conflux_bench from source with CMake (into the directory
named by CARGO_TARGET_DIR, default .bench_build), then runs each workload in
fresh child processes with a cleaned environment, checks their outputs, and
prints one line per metric. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics and
one unified Chrome trace per workload under <build dir>/traces/.
The exit code is 0 only when the build succeeded and every output was correct.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Measuring processes per --trace 0 run. Each process sets up once (the
# set-up time is the median over processes) and times samples for
# seconds / processes; pooling several processes keeps one slow process
# from setting a run's numbers.
PROCESSES = {
    "lu-n2048-p64": 8,
    "chol-n2048-p64": 8,
    "lu-n1024-p64": 8,
    "serve-zipf": 4,
}
# Share of --seconds the traced process gets with --trace 1; the rest goes
# to the one-thread process behind sched.speedup_vs_1thread.
TRACED_SHARE = 0.7
# A child that outlives its budget by this much is killed and fails the run.
CHILD_SLACK_S = 60.0
CLEARED_ENV_PREFIXES = ("OMP_", "XBLAS_", "CONFLUX_")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure (a no-op when nothing changed), then build incrementally;
    tool output goes to stderr."""
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "conflux_bench")


def child_env(bdir, extra=None):
    """The environment minus every OMP_*, XBLAS_* and CONFLUX_* variable, so
    program knobs stay at their defaults; the tuning file path points at a
    file that does not exist, so no persisted autotune entry is read."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(CLEARED_ENV_PREFIXES)}
    tuning_file = os.path.join(bdir, "no-tuning-file.json")
    if os.path.exists(tuning_file):
        raise BenchError(tuning_file + " must not exist")
    env["XBLAS_TUNING_FILE"] = tuning_file
    env.update(extra or {})
    return env


def run_child(binary, env, role, workload, seed, index, budget, trace_file=None):
    args = [binary, "--role=" + role, "--workload=" + workload, "--seed=%d" % seed,
            "--index=%d" % index, "--budget=%r" % budget]
    if trace_file:
        args.append("--trace-file=" + trace_file)
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=budget + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s timed out" % (workload, role))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s %s exited with %d" % (workload, role, proc.returncode))
    return json.loads(lines[-1])


def as_number(v):
    """JSON null stands for +inf (a refused or failed request)."""
    return math.inf if v is None else v


def times(report, key):
    return [as_number(v) for v in report[key]]


def quantile(values, q):
    """Linear-interpolation quantile, the same rule the C++ side uses."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return v[lo] if frac == 0 or v[lo] == v[hi] else v[lo] + frac * (v[hi] - v[lo])


HEADER_KEYS = ("git_describe", "isa", "tuning_source", "pool_width", "nproc")


def measure(binary, bdir, workload, seed, seconds):
    env = child_env(bdir)
    k = PROCESSES[workload]
    reports = [run_child(binary, env, "measure", workload, seed, i, seconds / k)
               for i in range(k)]
    tts = [t for r in reports for t in times(r, "tts_s")]
    values = {
        "tts_ms_p50": 1e3 * quantile(tts, 0.5),
        "tts_ms_p90": 1e3 * quantile(tts, 0.9),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    note = "%d samples over %d processes" % (len(tts), k)
    return reports, values, note


def traced(binary, bdir, workload, seed, seconds):
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, workload + ".trace.json")
    report = run_child(binary, child_env(bdir), "traced", workload, seed, 0,
                       TRACED_SHARE * seconds, trace_file)
    one_thread = child_env(bdir, {"OMP_NUM_THREADS": "1", "CONFLUX_POOL_THREADS": "1"})
    serial = run_child(binary, one_thread, "measure", workload, seed, 0,
                       (1.0 - TRACED_SHARE) * seconds)
    values = dict(report["layers"])
    untraced_p50 = quantile(times(report, "untraced_tts_s"), 0.5)
    values["trace.overhead_ratio"] = quantile(times(report, "traced_tts_s"), 0.5) / untraced_p50
    values["sched.speedup_vs_1thread"] = quantile(times(serial, "tts_s"), 0.5) / untraced_p50
    log("wrote unified trace " + os.path.relpath(trace_file, ROOT))
    note = "%d traced samples" % len(report["traced_tts_s"])
    return [report, serial], values, note


def run_workload(binary, bdir, spec, workload, seed, seconds, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    reports, values, note = (traced if trace else measure)(binary, bdir, workload, seed, seconds)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise BenchError("%s: no value for %s" % (workload, ", ".join(missing)))
    header = {k: reports[0][k] for k in HEADER_KEYS}
    if header["tuning_source"] != "default":
        raise BenchError("tuning source is %r, expected 'default'" % header["tuning_source"])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A refused or failed request reads as +inf; JSON has no infinity.
        "metrics": {m["name"]: {"value": min(as_number(values[m["name"]]), sys.float_info.max),
                                "unit": m["unit"]} for m in metrics},
    }
    print("# %s seed=%d seconds=%g trace=%d | %s | %s" % (
        workload, seed, seconds, trace,
        " ".join("%s=%s" % kv for kv in header.items()), note))
    for name, m in result["metrics"].items():
        print("%-16s %-36s %14.6g %s" % (workload, name, m["value"], m["unit"]))
    if failed:
        print("%-16s FAILED %d of %d checked operations" % (workload, failed, attempted))
    return header, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="append one JSON record per workload to this file")
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        bdir = build_dir()
        binary = build(bdir)
        ok = True
        for workload in names if args.workload == "all" else [args.workload]:
            header, result = run_workload(binary, bdir, spec, workload, args.seed,
                                          args.seconds, args.trace)
            ok = ok and result["correct"]
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": args.seed,
                                        "seconds": args.seconds, "trace": args.trace,
                                        "header": header, "result": result}) + "\n")
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("run.py: error: %s" % e)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
