#!/usr/bin/env python3
"""Build and run polarbench; repeat runs; compare two sets of runs.

One run (the form BENCHMARK.json names):
  python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1
Builds bench/suite (Release) into .bench_build/polarbench, runs the binary
and passes its output through: the last stdout line is the result JSON.
--trace 1 reports the per-layer ledger and writes
.bench_build/results/TRACE_<workload>.json (load it in Perfetto).
--workload all runs every workload, each in a process of its own.

Repeated runs, one JSON record each plus medians and quartiles:
  python3 bench/suite/run.py --workload W --repeat 10 --out DIR
Seeds run N, N+1, ..., N+K-1.

Compare two sets of runs against the bounds in BENCHMARK.json, and the
workload figures against FIGURES:
  python3 bench/suite/run.py compare DIR_A DIR_B

Parent/change pairs (alternating which side runs first), then compare:
  python3 bench/suite/run.py pairs PARENT_ROOT CHANGE_ROOT --workload W \
      --pairs 10 --out DIR
PARENT_ROOT and CHANGE_ROOT are checkouts of the two commits.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
WORKLOADS = ["live_paced", "backlog_drain", "letters_batch", "multipen_air"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the binary; build output goes to stderr."""
    out = os.path.join(build_dir(), "polarbench")
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "polarbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench-suite", "polarbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def binary_args(a, workload, seed, json_path=None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(a.seconds)]
    if a.smoke:
        args.append("--smoke")
    if a.trace:
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        args += ["--traced", "--trace-out",
                 os.path.join(results, "TRACE_%s.json" % workload)]
    if json_path:
        args += ["--json", json_path]
    return args


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if "workload" in rec and "metrics" in rec:
            runs.append(rec)
    return runs


def summarize(runs, section="metrics"):
    """{(workload, name): (unit, [values])} over a set of run records;
    section is "metrics" (the gated ones) or "detail" (the figures)."""
    table = {}
    for rec in runs:
        for name, m in rec.get(section, {}).items():
            key = (rec["workload"], name)
            table.setdefault(key, (m["unit"], []))[1].append(m["value"])
    return table


def repeat(a):
    binary = build()
    os.makedirs(a.out, exist_ok=True)
    env = dict(os.environ, PD_GIT_SHA=git_sha())
    status = 0
    for i in range(a.repeat):
        seed = a.seed + i
        path = os.path.join(a.out, "%s_seed%d.json" % (a.workload, seed))
        r = subprocess.run([binary] + binary_args(a, a.workload, seed, path), env=env,
                           stdout=subprocess.DEVNULL)
        status = max(status, r.returncode)
        print("run %d/%d seed %d: exit %d" % (i + 1, a.repeat, seed, r.returncode),
              file=sys.stderr)
    runs = load_runs(a.out)
    summary = {}
    for section in ("metrics", "detail"):
        for (workload, name), (unit, values) in sorted(summarize(runs, section).items()):
            if workload != a.workload:
                continue
            q1, med, q3 = quartiles(values)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "gated": section == "metrics", "values": values}
            print("%-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (name, med, q1, q3, summary[name]["spread"], unit))
    with open(os.path.join(a.out, "summary_%s.json" % a.workload), "w") as f:
        json.dump(summary, f, indent=2)
    return status


# The figures the benchmark's specification names beside the gated metrics,
# as (better, bound); None is "exact": a function of the seed only. Every
# run prints them, but BENCHMARK.json does not gate them: on a shared host
# the wall-clock ones follow the hypervisor's steal (README.md). compare
# reports them against these bounds, "unresolved" where A's spread is wider.
FIGURES = {
    "window_latency_p50_ms": ("lower", 0.10),
    "window_latency_p99_ms": ("lower", 0.10),
    "drain_windows_per_s": ("higher", 0.10),
    "trials_per_s": ("higher", 0.10),
    "recognize_latency_p50_ms": ("lower", 0.10),
    "pen_seconds_per_s": ("higher", 0.10),
    "letter_accuracy": ("higher", None),
    "procrustes_p50_mm": ("lower", None),
    "live_commit_fraction": ("higher", None),
}


def gated_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def judge(better, bound, va, vb, seed_pairs):
    """One compare row: (median A, median B, spread of A, change, wins,
    verdict, regressed). seed_pairs holds the (A, B) values of the seeds
    both sets ran; wins counts the pairs where B is better."""
    lower = better == "lower"
    q1a, med_a, q3a = quartiles(va)
    med_b = quartiles(vb)[1]
    spread = (q3a - q1a) / med_a if med_a else 0.0
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse = change if lower else -change
    wins = sum((xb < xa) if lower else (xb > xa) for xa, xb in seed_pairs)
    row = (med_a, med_b, spread, change, wins)
    if bound is None:
        differ = sum(xa != xb for xa, xb in seed_pairs)
        if differ:
            return row + ("CHANGED (%d/%d seeds)" % (differ, len(seed_pairs)), True)
        return row + ("identical", False)
    all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
    if spread > bound and not all_better:
        return row + ("unresolved (spread > bound %.2f)" % bound, False)
    if worse > bound:
        return row + ("REGRESSED (bound %.2f)" % bound, True)
    if -worse > spread and (not seed_pairs or wins >= 0.9 * len(seed_pairs)):
        return row + ("improved", False)
    return row + ("within bound %.2f" % bound, False)


def compare(dir_a, dir_b):
    """Per (workload, metric): does B stay within the bound of A? Gated
    metrics first, then the figures (marked "figure")."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    by_seed_a = {(r["workload"], r["stamp"]["seed"]): r for r in runs_a}
    regressed = False
    print("%-14s %-26s %12s %12s %8s %8s %6s  %s"
          % ("workload", "metric", "median A", "median B", "spreadA", "change",
             "wins", "verdict"))
    for section, bounds in (("metrics", gated_bounds()), ("detail", FIGURES)):
        table_a, table_b = summarize(runs_a, section), summarize(runs_b, section)
        for key in sorted(set(table_a) & set(table_b)):
            workload, name = key
            if name not in bounds:
                continue
            seed_pairs = []
            for rb in runs_b:
                ra = by_seed_a.get((rb["workload"], rb["stamp"]["seed"]))
                if rb["workload"] == workload and ra is not None and name in ra[section]:
                    seed_pairs.append((ra[section][name]["value"], rb[section][name]["value"]))
            med_a, med_b, spread, change, wins, text, bad = judge(
                *bounds[name], table_a[key][1], table_b[key][1], seed_pairs)
            regressed = regressed or bad
            print("%-14s %-26s %12.6g %12.6g %8.4f %+8.4f %6s  %s%s"
                  % (workload, name, med_a, med_b, spread, change,
                     "%d/%d" % (wins, len(seed_pairs)) if seed_pairs else "-",
                     text, "" if section == "metrics" else " (figure)"))
    return 1 if regressed else 0


def run_pairs(a):
    """Alternating parent/change runs, same seeds on both sides."""
    sides = {"parent": a.parent, "change": a.change}
    for name in sides:
        os.makedirs(os.path.join(a.out, name), exist_ok=True)
    for i in range(a.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in order:
            seed = a.seed + i
            path = os.path.join(os.path.abspath(a.out), name,
                                "%s_seed%d.json" % (a.workload, seed))
            cmd = [sys.executable, os.path.join(sides[name], "bench", "suite", "run.py"),
                   "--workload", a.workload, "--seed", str(seed),
                   "--seconds", str(a.seconds), "--json", path]
            r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            print("pair %d %s seed %d: exit %d" % (i + 1, name, seed, r.returncode),
                  file=sys.stderr)
    return compare(os.path.join(a.out, "parent"), os.path.join(a.out, "change"))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("dir_a")
        p.add_argument("dir_b")
        a = p.parse_args(sys.argv[2:])
        return compare(a.dir_a, a.dir_b)
    if len(sys.argv) > 1 and sys.argv[1] == "pairs":
        p = argparse.ArgumentParser(prog="run.py pairs")
        p.add_argument("parent")
        p.add_argument("change")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=default_seconds())
        p.add_argument("--out", required=True)
        return run_pairs(p.parse_args(sys.argv[2:]))

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds())
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--json", help="also write this run's full record here")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--out", default=os.path.join(build_dir(), "results", "runs"))
    a = p.parse_args()
    if a.repeat > 0:
        if a.workload == "all":
            p.error("--repeat takes one workload")
        return repeat(a)
    if a.workload == "all" and a.json:
        p.error("--json takes one workload")
    binary = build()
    env = dict(os.environ, PD_GIT_SHA=git_sha())
    # One process per workload: peak_rss_mb is the peak of a whole process.
    status = 0
    for workload in (WORKLOADS if a.workload == "all" else [a.workload]):
        r = subprocess.run([binary] + binary_args(a, workload, a.seed, a.json), env=env)
        status = max(status, r.returncode)
    return status


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10.0


if __name__ == "__main__":
    sys.exit(main())
