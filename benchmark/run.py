#!/usr/bin/env python3
"""psbench: build the benchmark, run one workload (or all four), check the
results and print every metric.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out FILE]
                             [--record-reference] [--binary PATH]

Each workload runs in its own psbench process. The measured run (--trace 0)
reports BENCHMARK.json's end_to_end metrics, the traced run (--trace 1) its
per_layer metrics. Output is one JSON row per metric,
{workload, metric, value, unit, kind}, then, as the last line, the summary
{"correct", "attempted", "failed", "metrics"}. --out FILE appends the rows.
The exit status is non-zero when any operation failed.

Correctness: every repetition must reproduce the same virtual results bit
for bit; for the seeds in reference.json they must also equal the recorded
ones (other seeds are reported as "unverified"). --record-reference stores
the virtual results of a measured run whose repetitions agree.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ["snow_paper", "fountain_paper", "rank_storm", "farm_backfill"]


def die_with_parent():
    """Child-process hook: the kernel kills the child if run.py dies."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def call(cmd, **kwargs):
    return subprocess.run(cmd, preexec_fn=die_with_parent, check=False,
                          **kwargs)


def build():
    """Configure (once) and build psbench in .bench_build; log to stderr.
    The compiler's temporary files stay in the build tree too."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        r = call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, env=env)
        if r.returncode != 0:
            sys.exit("run.py: configuring psbench failed")
    r = call(["cmake", "--build", BUILD_DIR, "--target", "psbench",
              "-j", str(len(os.sched_getaffinity(0)))], stdout=sys.stderr,
             env=env)
    if r.returncode != 0:
        sys.exit("run.py: building psbench failed")
    return os.path.join(BUILD_DIR, "psbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = call(["git", "-C", ROOT, "rev-parse", "HEAD"],
             capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_json(path, default=None):
    if default is not None and not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def run_psbench(binary, args, workload):
    """Run one psbench process; returns its records grouped by kind."""
    trace_json = os.path.join(
        BUILD_DIR, f"psbench-{workload}-{args.seed}.trace.json")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-json", trace_json]
    if args.smoke:
        cmd.append("--smoke")
    r = call(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"run.py: psbench exited with status {r.returncode}")
    records = {}
    for line in r.stdout.splitlines():
        rec = json.loads(line)
        records.setdefault(rec.pop("kind"), []).append(rec)
    return records


def check_virtual(reps, reference, workload, seed, smoke):
    """Count failed operations among the reps and say how they were checked.

    A rep fails if it threw or if its virtual results differ from the other
    reps' or from the reference. For the farm an operation is one job, and
    a virtual mismatch fails every job of the rep."""
    failed = sum(r["failed"] for r in reps)
    expected = None if smoke else reference.get(workload, {}).get(str(seed))
    ran = [r for r in reps if r["exact"]]  # an animation that threw has none
    first = ran[0]["exact"] if ran else None
    for r in ran:
        if r["exact"] != first or (expected is not None and
                                   r["exact"] != expected):
            failed += r["attempted"] - r["failed"]
    if any(r["exact"] != first for r in ran):
        status = "reps disagree"
    elif expected is None:
        status = "unverified"
    else:
        status = "match" if first == expected else "mismatch"
    return failed, status


def summarize(records, spec, args, workload, reference):
    """Header, reference status, rows and summary line for one psbench run."""
    header = records["header"][0]
    problems = []
    threads = records["threads"][0]
    if threads["peak"] > threads["limit"]:
        problems.append(f"thread budget exceeded: {threads['peak']} threads, "
                        f"limit {threads['limit']}")
    if header["workers"] != header["nproc"] or (
            header["launch_cap"] != max(1, header["nproc"] - 1)):
        problems.append("thread budget not derived from nproc")

    if args.trace:
        kind, defs = "layer", spec["per_layer"]
        values = {m["metric"]: m["value"] for m in records["layer"]}
        checks = records["check"]
        for c in checks:
            print(f"psbench: check {c['name']}: "
                  f"{'ok' if c['ok'] else 'FAILED'}: {c['detail']}",
                  file=sys.stderr)
        attempted, failed = 1, int(any(not c["ok"] for c in checks))
        status = None
    else:
        kind, defs = "e2e", spec["end_to_end"]
        reps = records["rep"]
        attempted = sum(r["attempted"] for r in reps)
        failed, status = check_virtual(reps, reference, workload, args.seed,
                                       args.smoke)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "jobs_per_s": statistics.median(r["jobs"] / r["wall_s"]
                                            for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": records["memory"][0]["peak_rss_mb"],
            "setup_s": statistics.median(records["setup"][0]["setup_s"]),
        }
    for p in problems:
        print(f"psbench: {p}", file=sys.stderr)
        failed = attempted
    rows = [{"workload": workload, "metric": d["name"],
             "value": values[d["name"]], "unit": d["unit"], "kind": kind}
            for d in defs]
    if not args.trace:
        rows.append({"workload": workload, "metric": "failed_share",
                     "value": failed / attempted, "unit": "ratio",
                     "kind": kind})
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {r["metric"]: {"value": r["value"], "unit": r["unit"]}
                    for r in rows if r["metric"] != "failed_share"},
    }
    return dict(header, git_sha=git_sha()), status, rows, summary


def record_reference(reference, workload, seed, reps):
    exact = reps[0]["exact"]
    if not exact or any(r["exact"] != exact or r["failed"] for r in reps):
        sys.exit(f"run.py: not recording {workload} seed {seed}: "
                 "the repetitions disagree or failed")
    reference.setdefault(workload, {})[str(seed)] = exact
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"run.py: recorded {workload} seed {seed} in {REFERENCE}",
          file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all four, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="about 1/100 of each workload, for the self-test")
    p.add_argument("--out", help="append the rows to this file")
    p.add_argument("--record-reference", action="store_true",
                   help="store the virtual results in reference.json")
    p.add_argument("--binary", help="use this psbench instead of building")
    args = p.parse_args()
    if args.record_reference and (args.trace or args.smoke):
        p.error("--record-reference needs a measured paper-scale run")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = args.binary or build()
    reference = load_json(REFERENCE, default={})
    # Recording replaces the stored results, so it does not check them.
    checked_against = {} if args.record_reference else reference

    all_correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        records = run_psbench(binary, args, workload)
        header, status, rows, summary = summarize(records, spec, args,
                                                  workload, checked_against)
        if args.record_reference:
            record_reference(reference, workload, args.seed, records["rep"])
        lines = [dict(kind="header", **header)]
        if status is not None:
            lines.append({"kind": "reference", "workload": workload,
                          "seed": args.seed, "status": status})
        lines += [dict(row, seed=args.seed) for row in rows]
        text = "".join(json.dumps(line) + "\n" for line in lines)
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "a") as f:
                f.write(text)
        print(json.dumps(summary), flush=True)
        all_correct = all_correct and summary["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
