#!/usr/bin/env python3
"""Check a bench record: the BENCH_*.json every harness under bench/ writes.

Usage:
    bench_json.py check FILE [--baseline OLD]

A record is a JSON array of {"bench", "leg", "metric", "value", "unit"}
rows (bench/record.hpp). Every row must have exactly those keys, strings
for bench/leg/metric/unit, a finite number as value, and a (bench, leg,
metric) key no other row repeats. With --baseline OLD, every row of
either file whose unit does not start with "host_" must appear in both
with the same unit and the identical value string; host rows (wall time,
heap traffic) vary run to run. The gates on the values live in the
harnesses (bench/gates.hpp). Stdlib only.
"""

import argparse
import json
import math
import sys

KEYS = ["bench", "leg", "metric", "unit", "value"]


class Number(str):
    """A JSON number, kept as its literal text so comparisons are exact."""


def _non_finite(name):
    raise ValueError(f"non-finite value {name}")


def load(path, failures):
    """The record's rows as {(bench, leg, metric): (value, unit)}."""
    try:
        with open(path, encoding="utf-8") as f:
            rows = json.load(f, parse_float=Number, parse_int=Number,
                             parse_constant=_non_finite)
    except (OSError, ValueError) as e:
        failures.append(f"{path}: not a readable JSON record ({e})")
        return {}
    if not isinstance(rows, list) or not rows:
        failures.append(f"{path}: not a non-empty JSON array")
        return {}
    out = {}
    for i, row in enumerate(rows):
        where = f"{path} row {i}"
        if not isinstance(row, dict) or sorted(row) != KEYS:
            failures.append(f"{where}: keys must be exactly {KEYS}")
        elif not all(type(row[k]) is str and row[k] for k in KEYS[:4]):
            failures.append(f"{where}: bench/leg/metric/unit must be "
                            f"non-empty strings")
        elif (not isinstance(row["value"], Number)
              or not math.isfinite(float(row["value"]))):
            failures.append(f"{where}: value {row['value']!r} is not a "
                            f"finite number")
        elif (row["bench"], row["leg"], row["metric"]) in out:
            failures.append(f"{where}: duplicate row")
        else:
            out[row["bench"], row["leg"], row["metric"]] = (
                str(row["value"]), row["unit"])
    return out


def virtual(rows):
    return {k: v for k, v in rows.items() if not v[1].startswith("host_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    chk = sub.add_parser("check", help="validate a bench record")
    chk.add_argument("file")
    chk.add_argument("--baseline", help="earlier record whose non-host rows "
                     "must match")
    args = ap.parse_args()

    failures = []
    rows = load(args.file, failures)
    summary = f"{len(rows)} rows"
    if args.baseline:
        a, b = virtual(rows), virtual(load(args.baseline, failures))
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                failures.append(f"{key}: baseline {b.get(key, 'absent')}, "
                                f"now {a.get(key, 'absent')}")
        summary += f", {len(a)} virtual rows against {args.baseline}"
    for msg in failures:
        print(f"FAIL: {msg}")
    print(f"{args.file}: {summary}, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
