#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds `perfbench/` (the
simulator sources from `src/` plus the benchmark binary in `perfbench/src/`) with
CMake into `$CARGO_TARGET_DIR/perfbench` (default `.bench_build/`), in
Release mode; later runs reuse the build.

The binary measures for about S seconds and prints a JSON line of raw
samples.  This script turns it into the result:

* `--trace 0`: every end-to-end metric of BENCHMARK.json, as the median
  over the run's repetitions.  Host times are scaled to a reference host
  speed by calibration passes run between measured segments (see
  perfbench/src/main.cpp); the raw values are on the stats line;
* `--trace 1`: every per-layer metric of BENCHMARK.json, from one traced
  repetition next to untraced ones.

It checks the simulated outputs: every operation must complete with the
right size and payload, every repetition of the run must repeat the exact
counts bit for bit, and for the seeds recorded in reference.json the
digests, counts and simulated metrics must equal the recorded ones.  A
failure sets `correct` to false, counts the run's operations as failed and
makes the script exit 1.

The last line of standard output is the result; the two lines before it
are the machine fingerprint with the sample counts, and the median and
quartiles of every metric.  `--record` stores this run's outputs as the
reference for its workload and seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
# Paper reference for stream_64k: the substrate's peak bandwidth, Mb/s
# (EXPERIMENTS.md, fig. 13).
PAPER_PEAK_MBPS = 840.0
DEFAULT_SEED = "1"
# Traced counts that depend on run_until slicing, not on the simulation.
SLICING_COUNTS = ("spans", "sweep_samples")
BINARY_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(raw):
    """Metric name -> samples.  Host times are the calibrated ones (scaled
    to the reference machine speed, see perfbench/src/main.cpp)."""
    ok = raw["ops_ok"]
    out = raw["outputs"]
    return {
        "setup_s": raw["scaled_setup_s"],
        "ops_per_s": [n / w for n, w in zip(ok, raw["scaled_wall_s"])],
        "host_cpu_ms_per_op": [c * 1e3 / max(n, 1)
                               for c, n in zip(raw["scaled_cpu_s"], ok)],
        "peak_rss_mb": [raw["peak_rss_mb"]],
        "sim_goodput_mbps": [out["sim_goodput_mbps"]],
        "sim_resp_us_p50": [out["sim_resp_us_p50"]],
        "sim_resp_us_p99": [out["sim_resp_us_p99"]],
    }


def raw_host(raw):
    """The same host metrics before calibration, for the stats line."""
    ok = raw["ops_ok"]
    return {
        "raw_setup_s": raw["setup_s"],
        "raw_ops_per_s": [n / w for n, w in zip(ok, raw["wall_s"])],
        "raw_host_cpu_ms_per_op": [c * 1e3 / max(n, 1)
                                   for c, n in zip(raw["cpu_s"], ok)],
        "calib_s": raw["calib_s"],
    }


def same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)
    return a == b


def check_reference(raw, refs, errors):
    """Compare with the recorded outputs for this workload and seed.  A
    seed without a recording is compared on the workload's seed-independent
    keys, against the default seed's recording."""
    recorded = refs.get(raw["workload"], {})
    ref = recorded.get(str(raw["seed"]))
    keys = None
    if ref is None:
        keys = set(recorded.get("seed_independent", []))
        ref = recorded.get(DEFAULT_SEED)
        if ref is None or not keys:
            return f"no reference recorded for seed {raw['seed']}"
    sections = [("exact", raw["exact"]), ("outputs", raw["outputs"])]
    if raw["trace"]:
        sections.append(("traced_counts", raw["traced_counts"]))
    for name, got in sections:
        for key, want in ref.get(name, {}).items():
            if keys is not None and f"{name}.{key}" not in keys:
                continue
            if key not in got or not same(got[key], want):
                errors.append(f"reference mismatch: {name}.{key} is "
                              f"{got.get(key)}, recorded {want}")
    if keys is not None:
        return (f"matched the seed-independent outputs recorded for seed "
                f"{DEFAULT_SEED}")
    return f"matched the reference recorded for seed {raw['seed']}"


def record(raw, refs):
    entry = refs.setdefault(raw["workload"], {}).setdefault(str(raw["seed"]), {})
    entry["exact"] = raw["exact"]
    entry["outputs"] = raw["outputs"]
    if raw["trace"]:
        entry["traced_counts"] = {k: v for k, v in raw["traced_counts"].items()
                                  if k not in SLICING_COUNTS}
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the seed's reference")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            refs = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read reference outputs: {e}")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if done.returncode != 0:
        fail(f"benchmark binary exited with {done.returncode}")
    try:
        raw = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no result")

    errors = list(raw["errors"])
    reference = check_reference(raw, refs, errors)
    if args.record and not errors:
        record(raw, refs)

    reps = len(raw["wall_s"])
    attempted = raw["ops_attempted"] * reps
    failed = sum(raw["ops_attempted"] - ok for ok in raw["ops_ok"])
    if errors:
        failed = attempted  # a wrong output discredits the whole run
    correct = not errors and failed == 0

    if args.trace:
        values = raw["layers"]
        wanted = spec["per_layer"]
        stats = {name: {"value": v, "n": 1} for name, v in values.items()}
    else:
        samples = end_to_end(raw)
        values = {name: statistics.median(v) for name, v in samples.items()}
        wanted = spec["end_to_end"]
        stats = {name: summary(v) for name, v in samples.items()}
        stats.update({name: summary(v) for name, v in raw_host(raw).items()})
        stats["sim_resp_us_p50"]["n"] = raw["outputs"]["resp_samples"]
        stats["sim_resp_us_p99"]["n"] = raw["outputs"]["resp_samples"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"benchmark binary did not report metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    fingerprint = dict(raw["fingerprint"])
    fingerprint.update({"seed": raw["seed"], "trace": raw["trace"],
                        "timed_runs": reps, "setup_samples": len(raw["setup_s"]),
                        "ops_per_run": raw["ops_attempted"],
                        "reference_calib_s": raw["reference_calib_s"],
                        "resp_samples": raw["outputs"]["resp_samples"],
                        "reference": reference})
    if args.workload == "stream_64k":
        goodput = raw["outputs"]["sim_goodput_mbps"]
        fingerprint["paper_err_pct"] = (abs(goodput - PAPER_PEAK_MBPS)
                                        / PAPER_PEAK_MBPS * 100.0)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({"stats": stats, "errors": errors[:20]}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
