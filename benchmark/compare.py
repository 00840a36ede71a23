#!/usr/bin/env python3
"""Compare two sets of psbench runs: a parent (A) and a change (B).

    python3 benchmark/compare.py A.jsonl B.jsonl

A and B hold the rows `run.py --out` appends, from any number of runs (one
seed per run). For every (workload, end-to-end metric) it prints both
medians with their quartiles, the change toward "worse", and a verdict under
the bound BENCHMARK.json fixes:

  regression   B's median is worse than A's by more than the bound
  unresolved   A's or B's run-to-run spread (quartile distance over the
               median) exceeds the bound, unless every B run beats every
               A run
  improved     B beats A on at least 9 of 10 runs paired by seed, and the
               medians differ by more than A's quartile distance
  ok           none of the above

failed_share may not increase at all. Counted layer metrics (unit count or
bytes) must be identical for every seed both sides ran. The exit status is
1 when anything regressed or a count differs.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTED_UNITS = {"count", "bytes"}


def load_rows(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [r for r in rows if "metric" in r]


def quartiles(values):
    """(q1, median, q3); statistics.quantiles needs two values or more."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_share(a_med, b_med, better):
    """How much worse B is than A, as a share of A (negative = better)."""
    if a_med == 0:
        return 0.0
    change = (b_med - a_med) / a_med
    return change if better == "lower" else -change


def beats(b, a, better):
    return b < a if better == "lower" else b > a


def verdict(a, b, better, bound):
    """a, b: {seed: value} for one (workload, metric)."""
    a_vals, b_vals = list(a.values()), list(b.values())
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    if worse_share(a_med, b_med, better) > bound:
        return "regression"
    if all(beats(y, x, better) for y in b_vals for x in a_vals):
        return "improved"
    if spread(a_vals) > bound or spread(b_vals) > bound:
        return "unresolved"
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(beats(y, x, better) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    return "ok"


def by_seed(rows):
    """{(workload, metric): {seed: value}}."""
    out = {}
    for r in rows:
        key = (r["workload"], r["metric"])
        out.setdefault(key, {})[r["seed"]] = r["value"]
    return out


def fmt(values):
    q1, med, q3 = quartiles(list(values))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(spec, rows_a, rows_b):
    """Returns (report lines, number of failures)."""
    a, b = by_seed(rows_a), by_seed(rows_b)
    workloads = list(dict.fromkeys(r["workload"] for r in rows_a + rows_b))
    lines = [f"{'workload':15} {'metric':12} {'A median [q1, q3]':>36} "
             f"{'B median [q1, q3]':>36} {'worse':>7} {'bound':>6}  verdict"]
    failures = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in a or key not in b:
                continue
            v = verdict(a[key], b[key], m["better"], m["bound"])
            failures += v == "regression"
            worse = worse_share(statistics.median(a[key].values()),
                                statistics.median(b[key].values()),
                                m["better"])
            lines.append(f"{w:15} {m['name']:12} {fmt(a[key].values()):>36} "
                         f"{fmt(b[key].values()):>36} {worse:+7.1%} "
                         f"{m['bound']:6.0%}  {v}")
        key = (w, "failed_share")
        if key in a and key in b:
            was, now = max(a[key].values()), max(b[key].values())
            if now > was:
                failures += 1
                lines.append(f"{w:15} failed_share increased: {was} -> {now}")
        for m in spec["per_layer"]:
            key = (w, m["name"])
            if m["unit"] not in COUNTED_UNITS or key not in a or key not in b:
                continue
            diff = [s for s in a[key]
                    if s in b[key] and a[key][s] != b[key][s]]
            if diff:
                failures += 1
                s = diff[0]
                lines.append(f"{w:15} {m['name']} differs on seed {s}: "
                             f"{a[key][s]} -> {b[key][s]}")
    return lines, failures


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines, failures = compare(spec, load_rows(argv[1]), load_rows(argv[2]))
    print("\n".join(lines))
    print(f"{failures} regression(s)" if failures else "no regression")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
