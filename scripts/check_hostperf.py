#!/usr/bin/env python3
"""Gate simulator host throughput against the committed baseline.

Compares the wall-clock throughput points — events/sec ("evps") and the
C10K workload's requests/sec ("reqps") — of a freshly produced
BENCH_hostperf.json with bench/baselines/BENCH_hostperf.json and fails if
any scenario regressed by more than the allowed fraction (default 25%).

The threshold is deliberately loose: the baseline is recorded on one
machine and CI runs on another, so this catches "someone made the hot path
2x slower", not single-digit drift.

A baseline scenario missing from the current run is an ERROR (a silently
dropped workload is how perf gates rot); pass --allow-missing while a
scenario is being intentionally retired.  Scenarios present only in the
current run are reported with the baseline-refresh command but do not fail
the gate — the refreshed baseline then gates them from the next run on.

Beyond wall-clock, the per-scenario `host/bytes_copied` counter is gated
too: it is deterministic (a pure function of the workload), so the current
value may not exceed the baseline by more than 10% — that would mean a
copy crept back into the zero-copy data path.

The C10K scenario has a structural gate of its own: scale_c10k records the
same ~1000-connection traffic served by the ring server (one parked reap
pump) and the blocking server (one parked coroutine per connection), and
the ring point must serve at least as many requests per wall second as the
blocking point — the batched submit/reap API exists to beat the thundering
herd, so losing to it is a regression in the ring path, not noise.  Both
points run on one engine, so the gate applies on every host.

Each evps point that carries a "shard/epochs" metric has that count
printed, so a change in the epoch schedule shows in the log.

The scale_web_hotspot series (a skewed web workload at 1, 2 and 4
shards) gates determinism: the causal digest must be identical on every
point, since the shard count may split the work, never change it.

Before judging, the machine of the current run and of the baseline (CPU
model, nproc, resolved_threads) are printed, so a ratio can be read
against the hardware that produced it.  Recordings that predate the
fingerprint print "unknown".

Usage: check_hostperf.py CURRENT [BASELINE] [--min-ratio R] [--allow-missing]
  CURRENT    BENCH_hostperf.json from the build under test
  BASELINE   committed reference (default bench/baselines/BENCH_hostperf.json)
  R          minimum allowed current/baseline ratio (default 0.75)
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "BENCH_hostperf.json",
)
DEFAULT_MIN_RATIO = 0.75
# bytes_copied is deterministic per workload; allow slack only for
# smoke-vs-full sizing mistakes to surface loudly, not for drift.
BYTES_COPIED_MAX_RATIO = 1.10
# The completion-ring server must at least match the blocking server on
# identical C10K traffic (requests per wall second).
C10K_SERIES = "scale_c10k"
# Skewed workload at several shard counts: the causal digest must match.
HOTSPOT_SERIES = "scale_web_hotspot"


def evps_points(path):
    """(series, x) -> (value, bytes_copied or None, epochs or None, metrics).

    Covers every wall-clock throughput unit: simulator events/sec ("evps")
    and the C10K scenarios' application requests/sec ("reqps") — both gate
    identically against the baseline.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("points", []):
        if p.get("unit") in ("evps", "reqps"):
            metrics = p.get("metrics", {})
            copied = metrics.get("host/bytes_copied")
            epochs = metrics.get("shard/epochs")
            points[(p["series"], p["x"])] = (
                float(p["value"]), copied, epochs, metrics)
    return points


def host_perf(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return doc.get("host_perf", {})


def print_machine(label, path):
    """One line naming the machine a recording came from."""
    hp = host_perf(path)
    fields = [(name, hp.get(name, "unknown"))
              for name in ("cpu_model", "nproc", "resolved_threads")]
    print(f"machine {label:<8} " +
          "  ".join(f"{name}={value}" for name, value in fields))


def check_c10k_ring(current):
    """Ring server must serve >= the blocking server's reqps."""
    ring = current.get((C10K_SERIES, "ring"))
    blocking = current.get((C10K_SERIES, "blocking"))
    if ring is None or blocking is None:
        return []
    ratio = ring[0] / blocking[0] if blocking[0] > 0 else float("inf")
    status = "OK " if ratio >= 1.0 else "FAIL"
    print(f"{status} {C10K_SERIES:<16} ring/blocking reqps ratio {ratio:5.2f} "
          f"(required >= 1.00)")
    if ratio < 1.0:
        return [(C10K_SERIES, "ring-vs-blocking", ratio)]
    return []


def check_hotspot_digest(current):
    """The causal digest must be identical on every scale_web_hotspot point.

    The 1/2/4-shard points run the same workload, so any divergence means
    the sharded engine changed the simulation.  Deterministic: applies on
    any host.
    """
    failures = []
    hotspot = {x: v for (series, x), v in current.items()
               if series == HOTSPOT_SERIES}
    if not hotspot:
        return []
    digests = {x: m.get("shard/causal_digest")
               for x, (_, _, _, m) in hotspot.items()}
    known = {x: d for x, d in digests.items() if d is not None}
    if len(set(known.values())) > 1:
        print(f"FAIL {HOTSPOT_SERIES:<16} causal digests diverge across "
              f"points: {known}")
        failures.append((HOTSPOT_SERIES, "digest-parity", 0.0))
    elif known:
        print(f"OK   {HOTSPOT_SERIES:<16} causal digest identical on "
              f"{len(known)} point(s)")
    for x, d in digests.items():
        if d is None:
            print(f"FAIL {HOTSPOT_SERIES:<16} x={x:<14} missing "
                  "shard/causal_digest metric")
            failures.append((HOTSPOT_SERIES, x + "-digest-missing", 0.0))
    return failures


def print_epochs(current):
    """Print the "shard/epochs" count of every evps point that recorded one."""
    for (series, x), (_, _, epochs, _) in sorted(current.items()):
        if epochs is not None:
            print(f"     {series:<16} x={x:<14} shard/epochs {epochs}")


def main(argv):
    allow_missing = "--allow-missing" in argv
    args = [a for a in argv[1:] if not a.startswith("--")]
    min_ratio = DEFAULT_MIN_RATIO
    for i, a in enumerate(argv):
        if a == "--min-ratio":
            min_ratio = float(argv[i + 1])
            args = [x for x in args if x != argv[i + 1]]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path = args[0]
    baseline_path = args[1] if len(args) > 1 else DEFAULT_BASELINE

    try:
        current = evps_points(current_path)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"ERROR: cannot read current results {current_path}: {e}",
              file=sys.stderr)
        return 1
    try:
        baseline = evps_points(baseline_path)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"WARNING: no usable baseline at {baseline_path} ({e}); "
              "skipping the host-perf gate", file=sys.stderr)
        return 0

    print_machine("current", current_path)
    print_machine("baseline", baseline_path)
    failures = []
    for key, (base, base_copied, _, _) in sorted(baseline.items()):
        series, x = key
        if key not in current:
            msg = f"scenario {series}/{x} missing from current run"
            if allow_missing:
                print(f"WARNING: {msg} (--allow-missing)")
            else:
                print(f"FAIL {msg}")
                failures.append((series, x, 0.0))
            continue
        cur, cur_copied, _, _ = current[key]
        ratio = cur / base if base > 0 else float("inf")
        status = "OK " if ratio >= min_ratio else "FAIL"
        print(f"{status} {series:<16} x={x:<12} "
              f"baseline {base / 1e6:8.2f} Mev/s   "
              f"current {cur / 1e6:8.2f} Mev/s   ratio {ratio:5.2f}")
        if ratio < min_ratio:
            failures.append((series, x, ratio))
        if (base_copied and cur_copied is not None
                and cur_copied > base_copied * BYTES_COPIED_MAX_RATIO):
            print(f"FAIL {series:<16} x={x:<12} host/bytes_copied "
                  f"{cur_copied} exceeds baseline {base_copied} by more "
                  f"than {(BYTES_COPIED_MAX_RATIO - 1) * 100:.0f}%")
            failures.append((series, x, cur_copied / base_copied))
    for key in sorted(set(current) - set(baseline)):
        print(f"NOTE: new scenario {key[0]}/{key[1]} has no baseline; "
              f"refresh with: cp {current_path} {baseline_path}")
    failures.extend(check_c10k_ring(current))
    failures.extend(check_hotspot_digest(current))
    print_epochs(current)

    if failures:
        print(f"\nERROR: {len(failures)} host-perf gate failure(s)",
              file=sys.stderr)
        return 1
    print("host-perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
