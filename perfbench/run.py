#!/usr/bin/env python3
"""Served-path benchmark: builds the program from source, then runs it.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload (tpch-cold, tpch-churn, socket-pipelined).
      Prints each metric with its unit; the last line is the JSON result.
      Exits non-zero when a response diverges from its oracle.

  python3 perfbench/run.py --steadiness [--runs 10] [--seconds 10]
                           [--workloads a,b] [--trace 0|1]
      Runs each workload --runs times, seeds 1..runs, and prints per
      metric the median, the quartiles and the spreads, with the host's
      core count and the git revision.

  python3 perfbench/run.py --selftest
      Short fixed-work runs of every workload: every metric named in
      BENCHMARK.json is printed with its unit, no response fails, the
      deterministic counters repeat for one seed, and no cache hit
      crosses tenants.
"""

import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["tpch-cold", "tpch-churn", "socket-pipelined"]
# Each run of the program ends well within this; a hung run is killed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("not at the root of the repository (missing %s)" % ", ".join(missing))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=850)
    if r.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, ops=None):
    """One run; returns (exit code, result object or None, counters)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    result = counters = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return r.returncode, result, counters


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (lambda x: x / med) if med else (lambda x: float("nan"))
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def steadiness(args):
    runs = int(args.get("--runs", 10))
    seconds = args.get("--seconds", "10")
    trace = args.get("--trace", "0")
    names = args.get("--workloads", ",".join(WORKLOADS)).split(",")
    print("host_cores %d  git_rev %s  runs %d  seconds %s  trace %s"
          % (os.cpu_count(), git_rev(), runs, seconds, trace))
    bad = False
    for w in names:
        values = {}
        for seed in range(1, runs + 1):
            code, result, _ = run_once(w, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: failed run (exit %d)" % (w, seed, code))
                bad = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("\n%s" % w)
        print("  %-34s %14s %14s %14s %9s %9s" %
              ("metric", "median", "q1", "q3", "iqr/med", "range/med"))
        for name, (unit, vs) in values.items():
            if len(vs) < 2:
                continue
            med, q1, q3, iqr, rng = spread(vs)
            print("  %-34s %14.6g %14.6g %14.6g %9.4f %9.4f %s"
                  % (name, med, q1, q3, iqr, rng, unit))
            print("    by seed: " + " ".join("%.4g" % v for v in vs))
    return 1 if bad else 0


# Fixed work per phase in the self-test: passes, policy cycles, rounds.
SELFTEST_OPS = {"tpch-cold": 1, "tpch-churn": 2, "socket-pipelined": 2}


def selftest():
    spec = json.load(open("BENCHMARK.json"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        seen = []
        for trace in (0, 1, 1):
            code, result, counters = run_once(w, 7, 1, trace, SELFTEST_OPS[w])
            where = "%s trace %d" % (w, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            got = result["metrics"]
            for name, unit in want[trace].items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (where, name))
                elif got[name]["unit"] != unit:
                    problems.append("%s: %s has unit %s, not %s"
                                    % (where, name, got[name]["unit"], unit))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d failed"
                                % (where, result["failed"], result["attempted"]))
            if counters is None or counters.get("cross_tenant_hits") != 0:
                problems.append("%s: cross-tenant hits %s" % (where, counters))
            if trace == 1:
                seen.append(counters)
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append("%s: counters differ for one seed: %s vs %s"
                            % (w, seen[0], seen[1]))
        print("%s: %s" % (w, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main(argv):
    build()
    if "--steadiness" in argv or "--selftest" in argv:
        opts = {}
        i = 0
        while i < len(argv):
            if argv[i] in ("--steadiness", "--selftest"):
                i += 1
            elif i + 1 < len(argv):
                opts[argv[i]] = argv[i + 1]
                i += 2
            else:
                fail("option %s needs a value" % argv[i])
        return steadiness(opts) if "--steadiness" in argv else selftest()
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
