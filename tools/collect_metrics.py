#!/usr/bin/env python3
"""Virtual-time regression dashboard for the Mul-T bench suite.

The bench binaries print, when run with MULT_METRICS=1, one stable
machine-readable line per measured engine run:

    ;; virtual-cycles: <tag> <cycles>

one latency-histogram summary line per always-on virtual-time histogram
(tracked as "<tag>@<name>" keys, value = the whole stats string):

    ;; histo: <tag> <name> n=... sum=... p50=... p90=... p99=... max=...

and, when the deterministic fault injector is armed (--faults SPEC), one
robustness counter line per run:

    ;; fault-metrics: <tag> <name> <count>

and, when the tenant fault-domain layer is armed (--tenant SPEC and/or
--supervise POLICY), one quota/supervision counter line per run plus a
histogram summary per tenant latency histogram:

    ;; tenant-metrics: <tag> <name> <count>
    ;; tenant-metrics: <tag> histo <name> n=... sum=... p50=... p99=... max=...

Every bench also prints one ";; host: <tag> ..." line of host wall-clock
phase times. Host time is machine-dependent noise: this script skips
those lines and *fails loudly* if a host key ever shows up in a golden
file or a collected map -- host time must never be golden-compared.

Virtual cycles are deterministic (the engine simulates its processors in
virtual time), so any drift between commits is a real semantic or
cost-model change, never host noise. The same holds under an armed fault
plan: fault counts and cycles are seed-deterministic. This script:

  * runs the paper-table benches plus the inlining-threshold sweep and
    collects the tag -> cycles map,
  * writes it to <out-dir>/BENCH_<sha>.json for the current commit,
  * optionally diffs it against a golden file (--check, exit 1 on ANY
    drift -- virtual time has no tolerance band),
  * optionally rewrites the golden file (--update-golden),
  * renders the accumulated BENCH_*.json history as a markdown or CSV
    trend table (--render).

Host timing has exactly one sanctioned home here: `--host` runs the
dispatch bench (bench_dispatch, which prints ";; host-dispatch: <workload>
<dispatcher> ns-per-vcycle=<v>" lines) several times, takes the per-key
*median* across runs (the in-process minimum is noise-robust within a run;
the cross-run median defends against a whole run landing on a busy host),
and records it in BENCH_host.json. A >25% regression against the previous
BENCH_host.json WARNS loudly but never gates: host speed is a tracked
number, not a promise. Host keys still must never reach golden files.

Typical uses:

    tools/collect_metrics.py --build-dir build
    tools/collect_metrics.py --build-dir build --check tools/golden_metrics.json
    tools/collect_metrics.py --build-dir build --update-golden tools/golden_metrics.json
    tools/collect_metrics.py --render markdown
    tools/collect_metrics.py --build-dir build --host
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

# Behave like a normal Unix filter when piped into `head`.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

BENCHES = [
    "bench_table1_future_ops",
    "bench_table2_boyer_seq",
    "bench_table3_boyer_par",
    "bench_table4_apps",
    "bench_inlining_threshold",
]

METRIC_LINE = re.compile(r"^;; virtual-cycles: (\S+) (\d+)\s*$")
FAULT_LINE = re.compile(r"^;; fault-metrics: (\S+) (\S+) (\d+)\s*$")
TENANT_LINE = re.compile(r"^;; tenant-metrics: (\S+) (\S+) (\d+)\s*$")
TENANT_HISTO_LINE = re.compile(
    r"^;; tenant-metrics: (\S+) histo (\S+) (\S.*?)\s*$")
HISTO_LINE = re.compile(r"^;; histo: (\S+) (\S+) (\S.*?)\s*$")
HOST_LINE = re.compile(r"^;; host: (\S+) ")
HOST_DISPATCH_LINE = re.compile(
    r"^;; host-dispatch: (\S+) (switch|threaded) ns-per-vcycle=([0-9.]+)\s*$")


def assert_no_host_keys(keys, where):
    """Host wall-clock data is noise; it must never be golden-compared."""
    leaked = [k for k in keys
              if k.split("@")[-1] == "host" or "host-" in k or "-ns" in k]
    if leaked:
        fail(f"host-time key(s) leaked into {where}: {', '.join(sorted(leaked))}"
             " -- ';; host:' lines are machine-dependent noise and must never"
             " be golden-compared")


def fail(msg):
    print(f"collect_metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def current_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "worktree"


def clean_env(**sets):
    """The caller's environment minus every inherited MULT_* switch, plus
    the non-empty switches in sets.

    A stray switch would change what the benches measure: MULT_FAULTS,
    MULT_CHECKPOINT, MULT_QUOTA, MULT_SUPERVISE and MULT_ADAPTIVE_T move
    virtual cycles and fake a drift, and the tracing switches slow the
    host. MULT_DISPATCH is kept: the dispatcher is the CI matrix axis and
    both dispatchers charge identical virtual cycles.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MULT_") or k == "MULT_DISPATCH"}
    env.update({k: v for k, v in sets.items() if v})
    return env


def run_benches(build_dir, faults=None, checkpoint=None, tenant=None,
                supervise=None):
    """Run every bench with MULT_METRICS=1 and return {tag: cycles}.

    With faults set, every bench runs under that MULT_FAULTS plan and the
    ";; fault-metrics:" counters join the map as "<tag>#<name>" keys.
    With checkpoint set, MULT_CHECKPOINT arms the checkpointed-recovery
    policy for the faulted runs (the recovery-cost sweep recipe in
    EXPERIMENTS.md).
    With tenant and/or supervise set, MULT_QUOTA / MULT_SUPERVISE arm the
    tenant fault-domain layer and the ";; tenant-metrics:" counters join
    the map as "<tag>~<name>" keys (histogram summaries as
    "<tag>~histo:<name>").
    """
    env = clean_env(MULT_METRICS="1", MULT_FAULTS=faults,
                    MULT_CHECKPOINT=str(checkpoint) if checkpoint else None,
                    MULT_QUOTA=tenant, MULT_SUPERVISE=supervise)
    tenant_armed = bool(tenant or supervise)
    cycles = {}
    for bench in BENCHES:
        exe = os.path.join(build_dir, "bench", bench)
        if not os.path.exists(exe):
            fail(f"bench binary not found: {exe} (build the repo first)")
        print(f"  running {bench} ...", flush=True)
        proc = subprocess.run([exe], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"{bench} exited with status {proc.returncode}")
        found = 0
        saw_host = False
        for line in proc.stdout.splitlines():
            m = METRIC_LINE.match(line)
            if not m:
                if HOST_LINE.match(line):
                    # Host wall-clock line: every bench must print one, but
                    # its values are noise and are deliberately dropped.
                    saw_host = True
                    continue
                h = HISTO_LINE.match(line)
                if h:
                    key = f"{h.group(1)}@{h.group(2)}"
                    value = h.group(3)
                    if key in cycles and cycles[key] != value:
                        fail(f"{bench}: histogram '{key}' reported twice "
                             f"with different values ({cycles[key]!r} vs "
                             f"{value!r})")
                    cycles[key] = value
                    continue
                t = TENANT_HISTO_LINE.match(line) or TENANT_LINE.match(line)
                if t:
                    if not tenant_armed:
                        # Same contract as the fault counters below: tenant
                        # lines in a run we did not arm mean a stray
                        # MULT_QUOTA/MULT_SUPERVISE (or an engine bug)
                        # molested the measurement.
                        fail(f"{bench} printed '{line.strip()}' but no "
                             "--tenant/--supervise spec was given; the run "
                             "is not measuring the unmolested engine")
                    if t.re is TENANT_HISTO_LINE:
                        key = f"{t.group(1)}~histo:{t.group(2)}"
                        cycles[key] = t.group(3)
                    else:
                        key = f"{t.group(1)}~{t.group(2)}"
                        cycles[key] = int(t.group(3))
                    continue
                f = FAULT_LINE.match(line)
                if f:
                    if faults is None:
                        # The benches only print fault counters when their
                        # engine armed an injector. Seeing one in a run we
                        # did not arm means some stray environment (or an
                        # engine bug) molested the measurement; recording
                        # it as "<tag>#<name>" would silently poison the
                        # golden diff instead of flagging the bad run.
                        fail(f"{bench} printed '{line.strip()}' but no "
                             "--faults plan was given; the run is not "
                             "measuring the unmolested engine")
                    key = f"{f.group(1)}#{f.group(2)}"
                    cycles[key] = int(f.group(3))
                continue
            tag, value = m.group(1), int(m.group(2))
            # Some benches legitimately re-run a configuration (table 2
            # re-measures two rows for the overhead summary); identical
            # repeats are fine, conflicting ones mean the tag is ambiguous.
            if tag in cycles and cycles[tag] != value:
                fail(f"{bench}: tag '{tag}' reported twice with different "
                     f"values ({cycles[tag]} vs {value})")
            cycles[tag] = value
            found += 1
        if not found:
            fail(f"{bench} printed no ';; virtual-cycles:' lines -- "
                 "was it built without MULT_METRICS support?")
        if not saw_host:
            fail(f"{bench} printed no ';; host:' line -- every bench must "
                 "report its host wall-clock phases")
    assert_no_host_keys(cycles, "the collected metrics map")
    return cycles


def median(values):
    vs = sorted(values)
    n = len(vs)
    return vs[n // 2] if n % 2 else (vs[n // 2 - 1] + vs[n // 2]) / 2.0


def run_host_bench(build_dir, runs):
    """Run bench_dispatch `runs` times; median ns/virtual-cycle per key.

    Returns {workload: {"switch": ns, "threaded": ns, "speedup": x}}.
    A nonzero exit from the bench is a hard failure: the binary exits 1
    when the two dispatchers disagree on virtual cycles, which is a
    correctness bug, not noise.
    """
    exe = os.path.join(build_dir, "bench", "bench_dispatch")
    if not os.path.exists(exe):
        fail(f"bench binary not found: {exe} (build the repo first)")
    samples = {}
    for i in range(runs):
        print(f"  host run {i + 1}/{runs} ...", flush=True)
        proc = subprocess.run([exe], env=clean_env(), capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"bench_dispatch exited with status {proc.returncode} "
                 "(dispatcher parity broken?)")
        found = 0
        for line in proc.stdout.splitlines():
            m = HOST_DISPATCH_LINE.match(line)
            if m:
                key = (m.group(1), m.group(2))
                samples.setdefault(key, []).append(float(m.group(3)))
                found += 1
        if not found:
            fail("bench_dispatch printed no ';; host-dispatch:' lines")
    result = {}
    for (workload, dispatcher), vs in samples.items():
        result.setdefault(workload, {})[dispatcher] = round(median(vs), 3)
    for d in result.values():
        if d.get("threaded"):
            d["speedup"] = round(d["switch"] / d["threaded"], 2)
    return result


def host_mode(args, commit):
    """Collect host dispatch timings into BENCH_host.json (never gates)."""
    data = run_host_bench(args.build_dir, args.host_runs)
    out_path = os.path.join(args.out_dir, "BENCH_host.json")
    prev = None
    try:
        with open(out_path) as f:
            prev = json.load(f).get("workloads")
    except (OSError, json.JSONDecodeError):
        pass

    print(f"  {'workload':<14} {'switch':>9} {'threaded':>9} {'speedup':>8}")
    for workload in sorted(data):
        d = data[workload]
        print(f"  {workload:<14} {d['switch']:>7.3f}ns {d['threaded']:>7.3f}ns"
              f" {d.get('speedup', 0):>7.2f}x")

    # Regression check: warn loudly, never gate. Host ns/virtual-cycle is
    # machine-dependent; a slower container must not block a PR, but a real
    # dispatch regression should be impossible to miss in the log.
    if prev:
        for workload in sorted(data):
            for disp in ("switch", "threaded"):
                now = data[workload].get(disp)
                was = prev.get(workload, {}).get(disp)
                if not (isinstance(was, (int, float)) and was > 0 and now):
                    continue
                rel = (now - was) / was
                if rel > 0.25:
                    print(f"WARNING: {workload}/{disp} host time regressed "
                          f"{100 * rel:+.0f}% ({was:.3f} -> {now:.3f} "
                          "ns/vcycle) vs the previous BENCH_host.json -- "
                          "host noise or a real dispatch regression? "
                          "(warning only; host time never gates)")

    os.makedirs(args.out_dir, exist_ok=True)
    record = {"commit": commit, "runs": args.host_runs, "workloads": data}
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"  wrote {out_path}")


def check_against_golden(cycles, golden_path):
    """Exact diff against the golden file. Returns the number of drifts."""
    try:
        with open(golden_path) as f:
            golden = json.load(f)["cycles"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        fail(f"cannot read golden file {golden_path}: {e}")
    assert_no_host_keys(golden, f"the golden file {golden_path}")
    drifts = 0
    for tag in sorted(set(golden) | set(cycles)):
        want, got = golden.get(tag), cycles.get(tag)
        if want == got:
            continue
        drifts += 1
        if want is None:
            print(f"  NEW      {tag}: {got} (not in golden file)")
        elif got is None:
            print(f"  MISSING  {tag}: golden expects {want}")
        elif isinstance(want, str) or isinstance(got, str):
            # Histogram summary strings: name the fields that moved, not
            # just the whole line.
            wf = dict(p.split("=", 1) for p in str(want).split() if "=" in p)
            gf = dict(p.split("=", 1) for p in str(got).split() if "=" in p)
            changed = [f"{k}: {wf.get(k, '?')} -> {gf.get(k, '?')}"
                       for k in sorted(set(wf) | set(gf))
                       if wf.get(k) != gf.get(k)]
            detail = "; ".join(changed) if changed else f"{want!r} -> {got!r}"
            print(f"  DRIFT    {tag}: {detail}")
        else:
            delta = got - want
            print(f"  DRIFT    {tag}: {want} -> {got} ({delta:+d} cycles, "
                  f"{100.0 * delta / want:+.2f}%)")
    if drifts:
        print(f"FAIL: {drifts} virtual-time metric(s) drifted from "
              f"{golden_path}.")
        print("If the change is intentional, refresh with: "
              f"tools/collect_metrics.py --update-golden {golden_path}")
    else:
        print(f"OK: all {len(cycles)} virtual-time metrics match "
              f"{golden_path}.")
    return drifts


def load_history(out_dir):
    """All BENCH_*.json in out_dir, oldest first by recorded sequence."""
    entries = []
    if not os.path.isdir(out_dir):
        return entries
    for name in os.listdir(out_dir):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(out_dir, name)
        try:
            with open(path) as f:
                data = json.load(f)
            if "cycles" not in data:
                continue  # BENCH_host.json: host timing, not virtual time
            entries.append((data.get("sequence", 0), data))
        except (OSError, json.JSONDecodeError):
            print(f"  (skipping unreadable {path})", file=sys.stderr)
    entries.sort(key=lambda e: e[0])
    return [data for _, data in entries]


def render(history, fmt, out):
    if not history:
        fail("no BENCH_*.json files to render; run the collector first")
    tags = sorted({t for entry in history for t in entry["cycles"]})
    commits = [entry["commit"] for entry in history]
    if fmt == "csv":
        out.write("tag," + ",".join(commits) + "\n")
        for tag in tags:
            row = [str(entry["cycles"].get(tag, "")) for entry in history]
            out.write(tag + "," + ",".join(row) + "\n")
        return
    # Markdown: one row per tag, one column per commit, plus the delta of
    # the newest commit against the previous one.
    out.write("| benchmark | " + " | ".join(commits) + " | latest delta |\n")
    out.write("|---|" + "---|" * (len(commits) + 1) + "\n")
    for tag in tags:
        cells = []
        for entry in history:
            v = entry["cycles"].get(tag)
            cells.append(f"{v}" if v is not None else "--")
        delta = "--"
        if len(history) >= 2:
            prev = history[-2]["cycles"].get(tag)
            last = history[-1]["cycles"].get(tag)
            if isinstance(prev, int) and isinstance(last, int):
                d = last - prev
                delta = "0" if d == 0 else f"{d:+d} ({100.0 * d / prev:+.2f}%)"
            elif prev is not None and last is not None:
                delta = "same" if prev == last else "changed"
        out.write(f"| {tag} | " + " | ".join(cells) + f" | {delta} |\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory containing bench/ binaries")
    ap.add_argument("--out-dir", default="tools/metrics",
                    help="directory for per-commit BENCH_<sha>.json files")
    ap.add_argument("--commit", default=None,
                    help="commit label (default: git rev-parse --short HEAD)")
    ap.add_argument("--check", metavar="GOLDEN",
                    help="diff against a golden metrics file; exit 1 on drift")
    ap.add_argument("--update-golden", metavar="GOLDEN",
                    help="rewrite the golden metrics file from this run")
    ap.add_argument("--render", choices=["markdown", "csv"], default=None,
                    help="render the BENCH_*.json history and exit "
                         "(does not run benches)")
    ap.add_argument("--faults", metavar="SPEC", default=None,
                    help="run every bench under this MULT_FAULTS plan and "
                         "collect ';; fault-metrics:' counters as "
                         "'<tag>#<name>' keys (do not --check fault runs "
                         "against the faultless golden file)")
    ap.add_argument("--checkpoint", metavar="N", type=int, default=None,
                    help="arm MULT_CHECKPOINT=N for the faulted runs so "
                         "kills recover from checkpoints; requires --faults "
                         "(checkpointing changes virtual time and must stay "
                         "off the golden dashboard)")
    ap.add_argument("--tenant", metavar="SPEC", default=None,
                    help="run every bench under this MULT_QUOTA spec and "
                         "collect ';; tenant-metrics:' counters as "
                         "'<tag>~<name>' keys (do not --check tenant runs "
                         "against the untenanted golden file)")
    ap.add_argument("--supervise", metavar="POLICY", default=None,
                    help="arm MULT_SUPERVISE=POLICY for the runs (implies "
                         "tenant-metrics collection; combinable with "
                         "--tenant)")
    ap.add_argument("--host", action="store_true",
                    help="run bench_dispatch and record median host "
                         "ns/virtual-cycle per dispatcher in BENCH_host.json "
                         "(warns on >25%% regression, never gates; host keys "
                         "stay out of golden files)")
    ap.add_argument("--host-runs", metavar="N", type=int, default=5,
                    help="process runs to take the median over with --host "
                         "(default 5)")
    args = ap.parse_args()
    if args.host and (args.check or args.update_golden or args.faults
                      or args.tenant or args.supervise or args.render):
        fail("--host is exclusive: host timing must never mix with the "
             "golden virtual-time dashboard")
    if args.checkpoint and not args.faults:
        fail("--checkpoint requires --faults: checkpoint captures are "
             "charged in virtual time, so an unfaulted checkpointed run "
             "would drift from the golden file by design")

    if args.render:
        render(load_history(args.out_dir), args.render, sys.stdout)
        return

    commit = args.commit or current_commit()
    if args.host:
        host_mode(args, commit)
        return
    if args.faults and not args.commit:
        commit += "+faults"  # keep fault runs apart in the history
    if (args.tenant or args.supervise) and not args.commit:
        commit += "+tenant"  # keep tenant runs apart in the history
    print(f"collecting virtual-time metrics for {commit}")
    if args.faults:
        print(f"  fault plan: {args.faults}")
    if args.checkpoint:
        print(f"  checkpoint-every: {args.checkpoint}")
    if args.tenant:
        print(f"  tenant quota: {args.tenant}")
    if args.supervise:
        print(f"  supervise policy: {args.supervise}")
    cycles = run_benches(args.build_dir, faults=args.faults,
                         checkpoint=args.checkpoint, tenant=args.tenant,
                         supervise=args.supervise)
    print(f"  {len(cycles)} metrics collected")

    os.makedirs(args.out_dir, exist_ok=True)
    history = load_history(args.out_dir)
    sequence = max((e.get("sequence", 0) for e in history), default=0) + 1
    record = {"commit": commit, "sequence": sequence, "cycles": cycles}
    out_path = os.path.join(args.out_dir, f"BENCH_{commit}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"  wrote {out_path}")

    if args.update_golden:
        with open(args.update_golden, "w") as f:
            json.dump({"cycles": cycles}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"  wrote {args.update_golden}")

    if args.check:
        sys.exit(1 if check_against_golden(cycles, args.check) else 0)


if __name__ == "__main__":
    main()
