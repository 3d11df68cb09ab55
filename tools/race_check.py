#!/usr/bin/env python3
"""CI driver for the determinacy-race detector (MULT_RACE=1).

Two halves, both required for a green run:

  1. Bench sweep: every paper-table bench must be race-free under the
     online detector, AND its virtual-cycle counts and latency-histogram
     summaries must be bit-identical to tools/golden_metrics.json.
     Trace recording costs zero virtual time, so arming the detector
     must not move a single cycle; any drift here means the detector
     (or its tracer hooks) leaked cost into the simulation. With the
     tracer on no idle processor sleeps, so this also checks the
     round-by-round side of the idle-sleep parity.

  2. Racy-program suite: each tests/race/racy_*.lisp must be flagged
     (>= 1 race, report naming BOTH accesses), and each
     tests/race/clean_*.lisp must be race-free, at every processor
     count in --procs (default 1, 4, 16). Races are logical
     (series-parallel) facts, so they must be detected even at 1 proc.

Typical use:

    tools/race_check.py --build-dir build
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

BENCHES = [
    "bench_table1_future_ops",
    "bench_table2_boyer_seq",
    "bench_table3_boyer_par",
    "bench_table4_apps",
    "bench_inlining_threshold",
]

METRIC_LINE = re.compile(r"^;; virtual-cycles: (\S+) (\d+)\s*$")
# Same "<tag>@<name>" keys as tools/collect_metrics.py.
HISTO_LINE = re.compile(r"^;; histo: (\S+) (\S+) (\S.*?)\s*$")
# searched, not matched: REPL output lines carry a "mul-t> " prompt prefix
RACES_LINE = re.compile(r"\braces: (\d+)")
# One side of a race report: "write by task 3 (spawned at f+4) at cycle ..."
ACCESS_LINE = re.compile(r"\b(read|write)\s+by task \d+ \(.*\) at cycle \d+")

FAILURES = []


def flag(msg):
    print(f"race_check: FAIL: {msg}", file=sys.stderr)
    FAILURES.append(msg)


def clean_env(**sets):
    """The caller's environment minus every inherited MULT_* switch, plus
    the non-empty switches in sets (same rule as tools/collect_metrics.py).

    A stray MULT_FAULTS or MULT_ADAPTIVE_T would move virtual cycles and
    fake a drift against the goldens. MULT_DISPATCH is kept: it is the CI
    matrix axis, and both dispatchers charge identical virtual cycles.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MULT_") or k == "MULT_DISPATCH"}
    env.update({k: v for k, v in sets.items() if v})
    return env


def run(cmd, env, stdin_text=None):
    try:
        return subprocess.run(
            cmd,
            input=stdin_text,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            timeout=900,
        )
    except subprocess.TimeoutExpired:
        flag(f"{' '.join(cmd)} timed out")
        return None


def check_benches(build_dir, golden_path):
    with open(golden_path) as f:
        golden = json.load(f)["cycles"]
    env = clean_env(MULT_METRICS="1", MULT_RACE="1")
    seen = {}
    for bench in BENCHES:
        exe = os.path.join(build_dir, "bench", bench)
        if not os.path.exists(exe):
            flag(f"bench binary missing: {exe}")
            continue
        proc = run([exe], env)
        if proc is None:
            continue
        if proc.returncode != 0:
            flag(f"{bench} exited {proc.returncode}")
            continue
        race_lines = 0
        for line in proc.stdout.splitlines():
            m = METRIC_LINE.match(line)
            if m:
                seen[m.group(1)] = int(m.group(2))
                continue
            h = HISTO_LINE.match(line)
            if h:
                seen[f"{h.group(1)}@{h.group(2)}"] = h.group(3)
                continue
            m = RACES_LINE.search(line)
            if m:
                race_lines += 1
                if int(m.group(1)) != 0:
                    flag(f"{bench}: detector reports races "
                         f"({line.strip()}) -- benches must be race-free")
        if race_lines == 0:
            flag(f"{bench}: no 'races:' metric line; is the detector on?")
        print(f"race_check: {bench}: {race_lines} runs race-free")

    for tag, cycles in sorted(golden.items()):
        if tag not in seen:
            flag(f"golden tag missing from bench output: {tag}")
        elif seen[tag] != cycles:
            flag(f"virtual-cycle drift with detector armed: {tag} "
                 f"golden={cycles} got={seen[tag]} -- the detector must "
                 f"cost zero virtual time")
    extra = set(seen) - set(golden)
    if extra:
        flag(f"bench output has tags absent from golden file: "
             f"{', '.join(sorted(extra))}")
    print(f"race_check: {len(seen)} virtual-time tags checked "
          f"against {golden_path}")


def check_program(repl, path, procs):
    """Run one tests/race/*.lisp through the REPL; return (races, report_ok)."""
    env = clean_env(MULT_RACE="1")
    with open(path) as f:
        text = f.read()
    # Threshold 1000000: the engine inlines when queue depth >= threshold,
    # so a huge threshold forces eager task spawning (real parallelism).
    proc = run([repl, str(procs), "1000000"], env,
               stdin_text=text + "\n:races\n:exit\n")
    if proc is None:
        return None, False
    if proc.returncode != 0:
        flag(f"{path} (procs={procs}): repl exited {proc.returncode}")
        return None, False
    if "error:" in proc.stdout:
        flag(f"{path} (procs={procs}): eval error:\n{proc.stdout}")
        return None, False
    races = None
    accesses = 0
    for line in proc.stdout.splitlines():
        m = RACES_LINE.search(line)
        if m:
            races = int(m.group(1))
        elif ACCESS_LINE.search(line):
            accesses += 1
    if races is None:
        flag(f"{path} (procs={procs}): no ';; races:' line in :races output")
        return None, False
    # A valid report names both racing accesses: two access lines per race.
    return races, accesses >= 2


def check_suite(build_dir, suite_dir, proc_counts):
    repl = os.path.join(build_dir, "examples", "repl")
    if not os.path.exists(repl):
        flag(f"repl binary missing: {repl}")
        return
    programs = sorted(glob.glob(os.path.join(suite_dir, "*.lisp")))
    if not programs:
        flag(f"no programs found in {suite_dir}")
        return
    for path in programs:
        name = os.path.basename(path)
        racy = name.startswith("racy_")
        if not racy and not name.startswith("clean_"):
            flag(f"{path}: suite files must be racy_*.lisp or clean_*.lisp")
            continue
        for procs in proc_counts:
            races, report_ok = check_program(repl, path, procs)
            if races is None:
                continue
            if racy:
                if races == 0:
                    flag(f"{name} (procs={procs}): racy program NOT flagged")
                elif not report_ok:
                    flag(f"{name} (procs={procs}): race report does not "
                         f"name both accesses")
                else:
                    print(f"race_check: {name} (procs={procs}): "
                          f"flagged ({races} races)")
            else:
                if races != 0:
                    flag(f"{name} (procs={procs}): control program "
                         f"falsely flagged ({races} races)")
                else:
                    print(f"race_check: {name} (procs={procs}): race-free")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--golden", default=None,
                    help="golden metrics file (default: tools/golden_metrics.json)")
    ap.add_argument("--suite-dir", default=None,
                    help="racy/clean program directory (default: tests/race)")
    ap.add_argument("--procs", default="1,4,16",
                    help="comma-separated processor counts for the suite")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    golden = args.golden or os.path.join(root, "tools", "golden_metrics.json")
    suite = args.suite_dir or os.path.join(root, "tests", "race")
    proc_counts = [int(p) for p in args.procs.split(",") if p]

    check_benches(args.build_dir, golden)
    check_suite(args.build_dir, suite, proc_counts)

    if FAILURES:
        print(f"race_check: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("race_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
