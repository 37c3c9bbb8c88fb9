#!/usr/bin/env python3
"""Self-test of the exact host-perf judge, scripts/check_hostperf.py.

Builds a BENCH_hostperf.json from the committed recording, checks that the
judge passes it unchanged, and that it fails each planted fault: one
metric off by one, one event off by one, a missing point, an extra point,
and a ring C10K server that runs as many events as the blocking one.

Run with:  python3 tests/check_hostperf_test.py
Registered with ctest as ``check_hostperf.selftest``.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "scripts"))
import check_hostperf  # noqa: E402


def bench_doc(recording):
    """A BENCH_hostperf.json whose points carry the recording's numbers."""
    return {
        "schema": "ulsocks.bench.v1",
        "figure": "hostperf",
        "title": "judge self-test",
        "points": [dict(p, stack="sim", config="cfg", value=1.0, unit="evps")
                   for p in recording["points"]],
    }


class JudgeTest(unittest.TestCase):
    def setUp(self):
        with open(check_hostperf.DEFAULT_REFERENCE, encoding="utf-8") as f:
            self.recording = json.load(f)
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def judge(self, doc, recording=None):
        """Exit status and stdout of the judge on `doc` vs `recording`."""
        current = os.path.join(self.tmp.name, "BENCH_hostperf.json")
        with open(current, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["check_hostperf.py", current]
        if recording is not None:
            reference = os.path.join(self.tmp.name, "reference.json")
            with open(reference, "w", encoding="utf-8") as f:
                json.dump(recording, f)
            argv.append(reference)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = check_hostperf.main(argv)
        return rc, out.getvalue()

    def point(self, doc, series, x):
        return next(p for p in doc["points"]
                    if p["series"] == series and p["x"] == x)

    def test_recording_covers_the_hostperf_points(self):
        names = {(p["series"], p["x"]) for p in self.recording["points"]}
        self.assertEqual(len(names), 8)
        self.assertIn(("scale_c10k", "ring"), names)
        self.assertIn(("scale_c10k", "blocking"), names)

    def test_unchanged_run_passes(self):
        rc, out = self.judge(bench_doc(self.recording))
        self.assertEqual(rc, 0, out)
        self.assertIn("host-perf judge passed", out)

    def test_metric_off_by_one_fails(self):
        doc = bench_doc(self.recording)
        metrics = self.point(doc, "fig13_bw_64K", "64K")["metrics"]
        metrics["host/bytes_copied"] += 1
        rc, out = self.judge(doc)
        self.assertEqual(rc, 1, out)
        self.assertIn("fig13_bw_64K/64K: host/bytes_copied", out)

    def test_event_off_by_one_fails(self):
        doc = bench_doc(self.recording)
        self.point(doc, "engine_churn", "empty_events")["events"] += 1
        rc, out = self.judge(doc)
        self.assertEqual(rc, 1, out)
        self.assertIn("engine_churn/empty_events: events", out)

    def test_missing_point_fails(self):
        doc = bench_doc(self.recording)
        doc["points"] = [p for p in doc["points"]
                         if p["series"] != "fig14_ftp"]
        rc, out = self.judge(doc)
        self.assertEqual(rc, 1, out)
        self.assertIn("fig14_ftp/file: recorded point missing", out)

    def test_extra_point_fails(self):
        doc = bench_doc(self.recording)
        extra = copy.deepcopy(doc["points"][0])
        extra["x"] = "unrecorded"
        doc["points"].append(extra)
        rc, out = self.judge(doc)
        self.assertEqual(rc, 1, out)
        self.assertIn("point has no recording", out)

    def test_ring_not_below_blocking_fails(self):
        # Plant the fault in the recording too, so only the ring check can
        # catch it.
        recording = copy.deepcopy(self.recording)
        ring = self.point(recording, "scale_c10k", "ring")
        ring["events"] = self.point(recording, "scale_c10k",
                                    "blocking")["events"]
        rc, out = self.judge(bench_doc(recording), recording)
        self.assertEqual(rc, 1, out)
        self.assertIn("scale_c10k: ring events", out)
        self.assertNotIn("scale_c10k/ring: events", out)

    def test_write_reference_round_trips(self):
        current = os.path.join(self.tmp.name, "BENCH_hostperf.json")
        with open(current, "w", encoding="utf-8") as f:
            json.dump(bench_doc(self.recording), f)
        written = os.path.join(self.tmp.name, "written.json")
        check_hostperf.write_reference(current, written)
        with open(written, encoding="utf-8") as f:
            self.assertEqual(json.load(f)["points"],
                             sorted(self.recording["points"],
                                    key=lambda p: (p["series"], p["x"])))


if __name__ == "__main__":
    unittest.main()
