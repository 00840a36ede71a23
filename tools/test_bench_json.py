#!/usr/bin/env python3
"""Unit tests for bench_json.py, the generic bench-record checker.

A well-formed record passes; a malformed row fails; against --baseline,
drift in a virtual row fails while a differing host_* row passes. Failures
are diagnostics, never tracebacks. Stdlib only; CTest runs it as
tools.bench_json_unit.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_json.py")


def record():
    rows = [("makespan_s", 20.28825947734904, "s"),
            ("jobs_done", 10000, "count"),
            ("fb_hash", 11934837371734465592, "hash"),
            ("wall_ms", 1.2315929999999999, "host_ms")]
    return [{"bench": "farm_arrivals", "leg": "fifo", "metric": m,
             "value": v, "unit": u} for m, v, u in rows]


class BenchJsonCheck(unittest.TestCase):
    def run_check(self, doc, baseline=None):
        with tempfile.TemporaryDirectory() as d:
            cmd = [sys.executable, CHECKER, "check"]
            for flag, content in ((), doc), (("--baseline",), baseline):
                if content is not None:
                    cmd += [*flag, os.path.join(d, f"{len(cmd)}.json")]
                    with open(cmd[-1], "w") as f:
                        f.write(content if isinstance(content, str)
                                else json.dumps(content))
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=60)

    def assert_fails(self, r, needle):
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn(needle, r.stdout, r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stderr, r.stderr)

    def test_valid_record_passes(self):
        r = self.run_check(record(), baseline=record())
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_malformed_rows_fail(self):
        missing = record()
        del missing[0]["unit"]
        self.assert_fails(self.run_check(missing), "keys must be exactly")
        text = record()
        text[1]["value"] = "10000"
        self.assert_fails(self.run_check(text), "not a finite number")
        self.assert_fails(self.run_check(record() + record()[:1]),
                          "duplicate row")
        nan = json.dumps(record()).replace("20.28825947734904", "NaN")
        self.assert_fails(self.run_check(nan), "non-finite")

    def test_virtual_drift_against_baseline_fails(self):
        new = record()
        new[0]["value"] = 20.288259477349043
        self.assert_fails(self.run_check(new, baseline=record()),
                          "('farm_arrivals', 'fifo', 'makespan_s')")
        self.assert_fails(self.run_check(record()[1:], baseline=record()),
                          "now absent")

    def test_host_row_may_differ(self):
        new = record()
        new[3]["value"] = 3.5
        r = self.run_check(new, baseline=record())
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
