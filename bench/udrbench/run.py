#!/usr/bin/env python3
"""udrbench: builds the UDR simulator's benchmark harness and runs it.

One workload (the last line of stdout is the JSON result):

  python3 bench/udrbench/run.py --workload fe_inline --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, written to udrbench_result.json:

  python3 bench/udrbench/run.py [--seed S] [--seconds S] [--repeat N] [--trace]
  python3 bench/udrbench/run.py --smoke     # 1/50 scale, every check, ~10 s

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off);
--trace 1 reports its per-layer metrics from a separate traced run plus a
replay of the workload's op stream through every public boundary. The build
lives in .bench_build/udrbench; build output goes to stderr.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "udrbench")
BINARY = os.path.join(BUILD, "udrbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ["fe_inline", "storm_coalesced", "provision_rebalance", "sharded"]
SMOKE_SCALE = 0.02
RUN_TIMEOUT_S = 170

# Layer self-time share (of end-to-end host time) that each workload is
# built to emphasize, against one it is built to leave light: the heavy
# share must be at least EMPHASIS_RATIO times the light one.
EMPHASIS = [
    ("udr.per_op", "fe_inline", "storm_coalesced"),
    ("location", "fe_inline", "storm_coalesced"),
    ("coalescer", "storm_coalesced", "fe_inline"),
    ("routing", "storm_coalesced", "fe_inline"),
    ("migration", "provision_rebalance", "fe_inline"),
    ("replication.write", "provision_rebalance", "fe_inline"),
    ("exec", "sharded", "fe_inline"),
]
EMPHASIS_RATIO = 3.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(ROOT, "src", "scenario", "engine.h")):
        raise BenchError("simulator sources not found under " + ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet([cmake, "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_quiet([cmake, "--build", BUILD, "--target", "udrbench",
               "-j", str(os.cpu_count() or 1)])


def run_workload(workload, seed, seconds, trace, scale=1.0, spans=None,
                 check_stream=False):
    """Runs one workload in its own process; returns its detail JSON."""
    os.makedirs(OUT, exist_ok=True)
    detail_path = os.path.join(
        OUT, "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    if os.path.exists(detail_path):
        os.remove(detail_path)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scale", str(scale), "--json", detail_path]
    if spans:
        cmd += ["--spans", spans]
    if check_stream:
        cmd.append("--check-stream")
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    if result.returncode not in (0, 1) or not os.path.exists(detail_path):
        raise BenchError("%s exited with %d" % (workload, result.returncode))
    with open(detail_path) as f:
        detail = json.load(f)
    detail["seed"] = seed
    detail["trace"] = int(trace)
    return detail


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(detail, trace, spec):
    """The result object of one run: exactly the BENCHMARK.json metrics."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        row = detail["metrics"].get(m["name"])
        if row is None:
            raise BenchError("metric %s was not reported" % m["name"])
        if row["unit"] != m["unit"]:
            raise BenchError("metric %s reported in %s, BENCHMARK.json says %s"
                             % (m["name"], row["unit"], m["unit"]))
        if not math.isfinite(row["value"]):
            raise BenchError("metric %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": row["value"], "unit": row["unit"]}
    return {"correct": bool(detail["correct"]),
            "attempted": int(detail["attempted"]),
            "failed": int(detail["failed"]),
            "metrics": metrics}


def check_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        raise BenchError("host span file %s is empty" % path)


def host_meta():
    meta = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "machine": platform.machine(), "build_type": "Release",
            "compiler": "unknown", "git_sha": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    version = subprocess.run([compiler, "--version"],
                                             capture_output=True, text=True)
                    meta["compiler"] = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if sha.returncode == 0:
        meta["git_sha"] = sha.stdout.strip()
    return meta


def emphasis_rows(traced):
    """Checks the layer x workload emphasis matrix of the traced runs."""
    rows = []
    for layer, heavy, light in EMPHASIS:
        h = traced[heavy]["shares"].get(layer, 0.0)
        l = traced[light]["shares"].get(layer, 0.0)
        ok = h > 0 and h >= EMPHASIS_RATIO * l
        rows.append({"layer": layer, "heavy": heavy, "light": light,
                     "heavy_share": h, "light_share": l, "pass": ok})
    return rows


def print_summary(runs, spec):
    names = [m["name"] for m in spec["end_to_end"]]
    print("\n== udrbench summary (median over repeats) ==")
    print("  %-20s" % "workload" + "".join("%18s" % n for n in names))
    for w in WORKLOADS:
        rows = [r for r in runs if r["workload"] == w and r["trace"] == 0]
        cells = []
        for n in names:
            values = [r["metrics"][n]["value"] for r in rows]
            cells.append("%18.4f" % statistics.median(values))
        print("  %-20s" % w + "".join(cells))


def run_all(args):
    spec = benchmark_spec()
    runs = []
    failures = []
    for w in WORKLOADS:
        digests = set()
        for _ in range(args.repeat):
            detail = run_workload(w, args.seed, args.seconds, trace=False)
            result_line(detail, False, spec)
            runs.append(detail)
            digests.add(detail["model_digest"])
            if not detail["correct"]:
                failures.append("%s: incorrect output" % w)
        if len(digests) != 1:
            failures.append("%s: model digest differs across repeats" % w)
    emphasis = []
    if args.trace:
        traced = {}
        for w in WORKLOADS:
            spans = os.path.join(ROOT, "udrbench_trace_%s.json" % w)
            detail = run_workload(w, args.seed, args.seconds, trace=True,
                                  spans=spans)
            result_line(detail, True, spec)
            check_spans(spans)
            runs.append(detail)
            traced[w] = detail
            if not detail["correct"]:
                failures.append("%s: incorrect traced output" % w)
            untraced = [r for r in runs if r["workload"] == w and r["trace"] == 0]
            if untraced and untraced[0]["model_digest"] != detail["model_digest"]:
                failures.append("%s: traced model digest differs" % w)
        emphasis = emphasis_rows(traced)
        print("\n== emphasis matrix (self-time share of end-to-end host time) ==")
        for row in emphasis:
            print("  %-18s heavy %-20s %.5f  light %-16s %.5f  %s" % (
                row["layer"], row["heavy"], row["heavy_share"], row["light"],
                row["light_share"], "PASS" if row["pass"] else "FAIL"))
            if not row["pass"]:
                failures.append("emphasis %s does not hold" % row["layer"])
    print_summary(runs, spec)

    meta = host_meta()
    meta.update({"seed": args.seed, "sim_duration_us": 0,
                 "seconds": args.seconds, "repeat": args.repeat})
    for r in runs:
        for key in ("bench", "meta", "pass"):
            r.pop(key, None)
    result = {"bench": "udrbench", "meta": meta, "runs": runs,
              "emphasis": emphasis, "pass": not failures}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("\nudrbench: wrote %s" % args.out)
    for failure in failures:
        print("  FAIL " + failure)
    return 0 if not failures else 1


def smoke():
    start = time.time()
    spec = benchmark_spec()
    for w in WORKLOADS:
        untraced = run_workload(w, 1, 0, trace=False, scale=SMOKE_SCALE,
                                check_stream=(w == "sharded"))
        spans = os.path.join(OUT, "smoke_trace_%s.json" % w)
        traced = run_workload(w, 1, 0, trace=True, scale=SMOKE_SCALE,
                              spans=spans)
        for detail, trace in ((untraced, False), (traced, True)):
            result_line(detail, trace, spec)
            if not detail["correct"]:
                raise BenchError("%s (trace %d): %s" % (
                    w, trace, "; ".join(detail["failures"]) or "failed ops"))
        if untraced["model_digest"] != traced["model_digest"]:
            raise BenchError("%s: traced model digest differs" % w)
        check_spans(spans)
    print("\nudrbench smoke: PASS (%.1f s)" % (time.time() - start))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, "udrbench_result.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if args.workload is None:
            return run_all(args)
        detail = run_workload(args.workload, args.seed, args.seconds,
                              trace=bool(args.trace),
                              spans=os.path.join(OUT, "trace_%s.json" %
                                                 args.workload)
                              if args.trace else None)
        line = result_line(detail, bool(args.trace), benchmark_spec())
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("udrbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
