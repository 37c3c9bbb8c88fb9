#!/usr/bin/env python3
"""Judge a BENCH_hostperf.json exactly against the committed recording.

Every hostperf point carries two simulated quantities: its engine event
count ("events") and its full registry snapshot ("metrics", including the
host/bytes_copied tally of the zero-copy data path).  Both are pure
functions of the workload, identical on every machine, build type and
run, so the judge compares them for exact equality with
bench/baselines/hostperf_iters3.json, a `hostperf --iters 3` recording:

  - a point missing from the run, or one the recording lacks, fails;
  - a point whose event count or any metric differs fails, naming the
    first differing keys;
  - the C10K ring server must run fewer events than the blocking server
    on identical traffic (scale_c10k/ring vs scale_c10k/blocking): the
    completion ring exists to replace the blocking server's thundering
    herd with one parked pump.

Wall-clock numbers (the points' evps/reqps values, host_perf) are not
judged here: they depend on the machine.  perfbench/ is the calibrated
wall-clock judge.

Usage: check_hostperf.py CURRENT [REFERENCE]
  CURRENT    BENCH_hostperf.json from `hostperf --iters 3`
  REFERENCE  committed recording (default bench/baselines/hostperf_iters3.json)

A deliberate change to what a workload simulates moves the recording;
refresh it from a run of the changed tree and commit it with the change:

  ./build/bench/hostperf --iters 3 --out /tmp/hp
  python3 -c 'import sys; sys.path.insert(0, "scripts");
import check_hostperf as c;
c.write_reference(sys.argv[1], c.DEFAULT_REFERENCE)' /tmp/hp/BENCH_hostperf.json

Then say in the commit which points moved and why.
"""

import json
import os
import sys

DEFAULT_REFERENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "hostperf_iters3.json",
)
C10K_SERIES = "scale_c10k"
# Differing metric keys printed per failing point.
MAX_KEYS_SHOWN = 8


def load_points(path):
    """(series, x) -> (events, metrics) of a bench JSON or a recording."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {(p["series"], p["x"]): (p["events"], p["metrics"])
            for p in doc["points"]}


def write_reference(current_path, reference_path):
    """Record the judged quantities of `current_path` at `reference_path`."""
    points = load_points(current_path)
    doc = {
        "recorded_with": "hostperf --iters 3",
        "points": [{"series": s, "x": x, "events": events, "metrics": metrics}
                   for (s, x), (events, metrics) in sorted(points.items())],
    }
    with open(reference_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def compare_point(name, current, reference):
    """Failure messages for one point present in both recordings."""
    (events, metrics), (ref_events, ref_metrics) = current, reference
    failures = []
    if events != ref_events:
        failures.append(f"{name}: events {events} != recorded {ref_events}")
    differing = sorted(k for k in set(metrics) | set(ref_metrics)
                       if metrics.get(k) != ref_metrics.get(k))
    for k in differing[:MAX_KEYS_SHOWN]:
        failures.append(f"{name}: {k} = {metrics.get(k, 'missing')}, "
                        f"recorded {ref_metrics.get(k, 'missing')}")
    if len(differing) > MAX_KEYS_SHOWN:
        failures.append(f"{name}: ... {len(differing) - MAX_KEYS_SHOWN} "
                        "more differing metrics")
    return failures


def check_c10k_ring(current):
    """The ring server must run fewer events than the blocking server."""
    ring = current.get((C10K_SERIES, "ring"))
    blocking = current.get((C10K_SERIES, "blocking"))
    if ring is None or blocking is None:
        return [f"{C10K_SERIES}: ring and blocking points are both required"]
    if ring[0] >= blocking[0]:
        return [f"{C10K_SERIES}: ring events {ring[0]} >= blocking events "
                f"{blocking[0]} on identical traffic"]
    print(f"OK   {C10K_SERIES}: ring events {ring[0]} < blocking "
          f"{blocking[0]}")
    return []


def main(argv):
    args = argv[1:]
    if not args or len(args) > 2 or any(a.startswith("-") for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path = args[0]
    reference_path = args[1] if len(args) > 1 else DEFAULT_REFERENCE
    recordings = {}
    for label, path in (("current run", current_path),
                        ("recording", reference_path)):
        try:
            recordings[label] = load_points(path)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            print(f"ERROR: cannot read {label} {path}: {e}", file=sys.stderr)
            return 1
    current, reference = recordings["current run"], recordings["recording"]

    failures = []
    for key in sorted(set(current) | set(reference)):
        name = "/".join(key)
        if key not in current:
            failures.append(f"{name}: recorded point missing from the run")
        elif key not in reference:
            failures.append(f"{name}: point has no recording")
        else:
            point_failures = compare_point(name, current[key], reference[key])
            if not point_failures:
                print(f"OK   {name}: {current[key][0]} events, "
                      f"{len(current[key][1])} metrics equal")
            failures.extend(point_failures)
    failures.extend(check_c10k_ring(current))

    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"\nERROR: {len(failures)} host-perf judge failure(s) against "
              f"{reference_path}", file=sys.stderr)
        return 1
    print("host-perf judge passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
