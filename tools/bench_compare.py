#!/usr/bin/env python3
"""Perf-regression gate: diff fresh benchmark JSON against checked-in baselines.

Comparisons are machine-independent: each gated number is a dimensionless
ratio computed *within one file* (the parallel pipeline's speedup over the
same file's scan baseline; the indexed probe's advantage over the scan probe
in the same google-benchmark run), so a slower CI runner shifts both sides
of the ratio and the gate only fires on a genuine relative regression.

Kinds:
  par_scaling  BENCH_par_scaling.json (bench/par_scaling --out=...).
               Gates: (a) speedup_vs_scan_baseline of the parallel run at
               --shards shards must be within --tolerance of the baseline's;
               (b) the compound gate: within the fresh file,
               parallel_x{shards}_indexed must strictly beat BOTH
               indexed_1thread and parallel_x{shards}_scan — parallelism
               and the indexed probe must compound, not trade off; (c)
               every fresh run's oracle must pass. With identical configs
               the deterministic result counts must match exactly.
  micro_ops    google-benchmark JSON (bench/micro_ops --benchmark_out=...).
               Gate: the scan/indexed probe time ratio per bucket size must
               be within --tolerance of the baseline's ratio.

--self-test checks the gate against itself: the checked-in baselines must
pass against themselves, and the doctored fixtures under
tools/bench_fixtures/ (a ~25% throughput regression at 4 shards, and a
compound-only fixture whose parallel_x4_indexed run stays above the
throughput floor yet no longer beats indexed_1thread) plus a synthetically
slowed micro run must fail — each for its own reason.

Exit status: 0 pass, 1 regression or malformed input, 2 usage error.
"""

import argparse
import copy
import json
import os
import sys

DEFAULT_TOLERANCE = 0.15
FIXTURE_DIR = os.path.join("tools", "bench_fixtures")
PAR_BASELINE = "BENCH_par_scaling.json"
MICRO_BASELINE = "BENCH_micro_ops.json"

# Probe sizes gated in micro_ops mode. Size 10 is excluded: at tens of
# nanoseconds per probe the ratio is dominated by fixed overhead and noise.
MICRO_PROBE_SIZES = (100, 1000)


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return [msg]


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def runs_by_name(doc):
    return {r["name"]: r for r in doc.get("runs", [])}


def spill_efficiency(runs):
    """Spill-efficiency ratio: bytes spilled per byte purged early across
    the sweep's adaptive runs. Lower is better (more dead state reclaimed
    for free instead of written to disk)."""
    spilled = sum(r["bytes_spilled"] for r in runs if r["mode"] == "adaptive")
    purged = sum(r["bytes_early_purged"] for r in runs
                 if r["mode"] == "adaptive")
    return spilled / purged if purged > 0 else float("inf")


def compare_spill_sweep(baseline, fresh, tolerance):
    findings = []
    base_sweep = baseline.get("spill_sweep", {}).get("runs", [])
    fresh_sweep = fresh.get("spill_sweep", {}).get("runs", [])
    if not base_sweep and not fresh_sweep:
        return findings
    if base_sweep and not fresh_sweep:
        return fail("baseline has a spill_sweep section but fresh does not "
                    "(sweep disabled or bench regressed?)")

    for run in fresh_sweep:
        if not run.get("oracle_pass", False):
            findings += fail(
                f"spill_sweep {run['mode']}@{run['memcap']}: oracle failed")

    by_cap = {}
    for run in fresh_sweep:
        by_cap.setdefault(run["memcap"], {})[run["mode"]] = run
    for cap, modes in sorted(by_cap.items()):
        if "adaptive" not in modes or "global" not in modes:
            findings += fail(f"spill_sweep memcap {cap}: missing a mode "
                             f"(have {sorted(modes)})")
            continue
        adaptive, glob = modes["adaptive"], modes["global"]
        verdict = ("OK" if adaptive["bytes_spilled"] < glob["bytes_spilled"]
                   else "REGRESSION")
        print(f"  spill_sweep@{cap}: adaptive spilled "
              f"{adaptive['bytes_spilled']} bytes vs global "
              f"{glob['bytes_spilled']} (early-purged "
              f"{adaptive['bytes_early_purged']}) {verdict}")
        if adaptive["bytes_spilled"] >= glob["bytes_spilled"]:
            findings += fail(
                f"spill_sweep memcap {cap}: adaptive mode no longer spills "
                f"strictly fewer bytes than global-threshold "
                f"({adaptive['bytes_spilled']} >= {glob['bytes_spilled']})")
        if adaptive["bytes_early_purged"] <= 0:
            findings += fail(
                f"spill_sweep memcap {cap}: adaptive mode purged nothing "
                "early (punctuation-aware purge rung is dead)")

    if base_sweep:
        base_ratio = spill_efficiency(base_sweep)
        fresh_ratio = spill_efficiency(fresh_sweep)
        ceiling = base_ratio * (1.0 + tolerance)
        verdict = "OK" if fresh_ratio <= ceiling else "REGRESSION"
        print(f"  spill efficiency (bytes spilled / bytes early-purged): "
              f"{fresh_ratio:.3f} (baseline {base_ratio:.3f}, ceiling "
              f"{ceiling:.3f}) {verdict}")
        if fresh_ratio > ceiling:
            findings += fail(
                f"spill-efficiency ratio regressed >{tolerance:.0%}: "
                f"{fresh_ratio:.3f} > ceiling {ceiling:.3f} "
                f"(baseline {base_ratio:.3f})")
    return findings


def gated_run_name(runs, shards):
    """Resolve the gated parallel run, tolerating the pre-spine naming.

    Newer files name the indexed parallel run parallel_x{N}_indexed and its
    scan-probe control parallel_x{N}_scan; older files had a single
    parallel_x{N} (which was the indexed one)."""
    for name in (f"parallel_x{shards}_indexed", f"parallel_x{shards}"):
        if name in runs:
            return name
    return None


def compare_compound(base_runs, fresh_runs, shards):
    """The compound gate: parallelism x indexed probe must multiply.

    Within the FRESH file alone (so machine speed cancels), the widest
    indexed parallel run must strictly beat both single-threaded indexed
    (parallelism adds something on top of the index) and the scan-probe
    parallel run (the index adds something on top of parallelism). Applies
    only when the baseline itself carries the parallel_x{N}_indexed run, so
    the gate never fires on pre-spine baselines."""
    findings = []
    indexed_name = f"parallel_x{shards}_indexed"
    if indexed_name not in base_runs:
        return findings
    if indexed_name not in fresh_runs:
        return fail(f"fresh file has no run '{indexed_name}' but the "
                    "baseline does (compound gate cannot be skipped)")

    comparators = {}
    if "indexed_1thread" in fresh_runs:
        comparators["indexed_1thread"] = float(
            fresh_runs["indexed_1thread"]["speedup_vs_scan_baseline"])
    for scan_name in (f"parallel_x{shards}_scan", f"parallel_x{shards}"):
        if scan_name in fresh_runs:
            comparators[scan_name] = float(
                fresh_runs[scan_name]["speedup_vs_scan_baseline"])
            break
    if not comparators:
        return fail("compound gate has nothing to compare against "
                    f"(no indexed_1thread or parallel_x{shards}_scan run)")

    compound = float(fresh_runs[indexed_name]["speedup_vs_scan_baseline"])
    bar_name, bar = max(comparators.items(), key=lambda kv: kv[1])
    verdict = "OK" if compound > bar else "REGRESSION"
    print(f"  compound: {indexed_name} {compound:.2f}x vs best "
          f"single-trick {bar_name} {bar:.2f}x {verdict}")
    if compound <= bar:
        findings += fail(
            f"compound gate: {indexed_name} ({compound:.2f}x) no longer "
            f"beats {bar_name} ({bar:.2f}x) — parallel and indexed have "
            "stopped compounding")
    return findings


def compare_par_scaling(baseline, fresh, tolerance, shards):
    findings = []
    base_runs = runs_by_name(baseline)
    fresh_runs = runs_by_name(fresh)
    if not fresh_runs:
        return fail("fresh par_scaling file has no runs")
    findings += compare_spill_sweep(baseline, fresh, tolerance)

    for name, run in sorted(fresh_runs.items()):
        if not run.get("oracle_pass", False):
            findings += fail(f"run '{name}': oracle failed (wrong results)")

    gate_name = gated_run_name(fresh_runs, shards)
    if gate_name is None:
        return findings + fail(
            f"fresh file has no run 'parallel_x{shards}_indexed' "
            f"(nor legacy 'parallel_x{shards}')")
    base_gate_name = gated_run_name(base_runs, shards)
    if base_gate_name is None:
        return findings + fail(
            f"baseline has no run 'parallel_x{shards}_indexed' "
            f"(nor legacy 'parallel_x{shards}')")

    base_speedup = float(base_runs[base_gate_name]["speedup_vs_scan_baseline"])
    fresh_speedup = float(fresh_runs[gate_name]["speedup_vs_scan_baseline"])
    floor = base_speedup * (1.0 - tolerance)
    verdict = "OK" if fresh_speedup >= floor else "REGRESSION"
    print(f"  {gate_name}: speedup_vs_scan {fresh_speedup:.2f}x "
          f"(baseline {base_speedup:.2f}x, floor {floor:.2f}x) {verdict}")
    if fresh_speedup < floor:
        findings += fail(
            f"{gate_name} throughput regressed >"
            f"{tolerance:.0%}: speedup {fresh_speedup:.2f}x < floor "
            f"{floor:.2f}x (baseline {base_speedup:.2f}x)")

    findings += compare_compound(base_runs, fresh_runs, shards)

    # Same seeded config => the result multiset is deterministic.
    if baseline.get("config") == fresh.get("config"):
        for name in sorted(set(base_runs) & set(fresh_runs)):
            b, f = base_runs[name]["results"], fresh_runs[name]["results"]
            if b != f:
                findings += fail(
                    f"run '{name}': deterministic result count changed "
                    f"{b} -> {f} (same config/seed)")
    else:
        print("  configs differ: skipping deterministic result-count check")

    # Non-gated runs: report their drift for the log.
    for name in sorted(set(base_runs) & set(fresh_runs) - {gate_name}):
        b = float(base_runs[name]["speedup_vs_scan_baseline"])
        f = float(fresh_runs[name]["speedup_vs_scan_baseline"])
        print(f"  {name}: speedup_vs_scan {f:.2f}x (baseline {b:.2f}x) info")
    return findings


def micro_times(doc):
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration":
            times[b["name"]] = float(b["real_time"])
    return times


def compare_micro_ops(baseline, fresh, tolerance):
    findings = []
    base = micro_times(baseline)
    fresh_t = micro_times(fresh)
    if not fresh_t:
        return fail("fresh micro_ops file has no benchmarks")
    for size in MICRO_PROBE_SIZES:
        scan, indexed = f"BM_ProbeScanBucket/{size}", \
            f"BM_ProbeIndexedBucket/{size}"
        missing = [n for n in (scan, indexed)
                   if n not in base or n not in fresh_t]
        if missing:
            findings += fail(f"benchmark(s) missing: {', '.join(missing)}")
            continue
        # How many times faster the indexed probe is than the scan probe,
        # in the same run on the same machine.
        base_ratio = base[scan] / base[indexed]
        fresh_ratio = fresh_t[scan] / fresh_t[indexed]
        floor = base_ratio * (1.0 - tolerance)
        verdict = "OK" if fresh_ratio >= floor else "REGRESSION"
        print(f"  probe/{size}: indexed advantage {fresh_ratio:.2f}x "
              f"(baseline {base_ratio:.2f}x, floor {floor:.2f}x) {verdict}")
        if fresh_ratio < floor:
            findings += fail(
                f"indexed probe advantage at size {size} regressed >"
                f"{tolerance:.0%}: {fresh_ratio:.2f}x < floor {floor:.2f}x")
    return findings


def run_compare(kind, baseline_path, fresh_path, tolerance, shards):
    try:
        baseline = load(baseline_path)
        fresh = load(fresh_path)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load input: {e}")
        return 1
    print(f"bench_compare: {kind}: {fresh_path} vs baseline {baseline_path} "
          f"(tolerance {tolerance:.0%})")
    if kind == "par_scaling":
        findings = compare_par_scaling(baseline, fresh, tolerance, shards)
    else:
        findings = compare_micro_ops(baseline, fresh, tolerance)
    print(f"bench_compare: {len(findings)} finding(s)")
    return 1 if findings else 0


def self_test(root, tolerance, shards):
    failures = []

    def expect(label, got, want):
        status = "ok" if got == want else "FAIL"
        print(f"self-test [{status}] {label}")
        if got != want:
            failures.append(label)

    par_path = os.path.join(root, PAR_BASELINE)
    micro_path = os.path.join(root, MICRO_BASELINE)
    fixture_path = os.path.join(root, FIXTURE_DIR, "par_scaling_regressed.json")
    compound_path = os.path.join(root, FIXTURE_DIR,
                                 "par_scaling_compound_regressed.json")

    expect("par_scaling baseline passes against itself",
           run_compare("par_scaling", par_path, par_path, tolerance, shards),
           0)
    expect("micro_ops baseline passes against itself",
           run_compare("micro_ops", micro_path, micro_path, tolerance,
                       shards), 0)
    expect("regressed par_scaling fixture fails the gate",
           run_compare("par_scaling", par_path, fixture_path, tolerance,
                       shards), 1)
    expect("compound-regressed par_scaling fixture fails the gate",
           run_compare("par_scaling", par_path, compound_path, tolerance,
                       shards), 1)

    # The compound fixture must fail for the right reason: its gated run
    # stays above the plain throughput floor, so only the compound check
    # can reject it.
    base_runs = runs_by_name(load(par_path))
    comp_runs = runs_by_name(load(compound_path))
    gate = f"parallel_x{shards}_indexed"
    floor = (float(base_runs[gate]["speedup_vs_scan_baseline"])
             * (1.0 - tolerance))
    expect("compound fixture stays above the plain throughput floor",
           float(comp_runs[gate]["speedup_vs_scan_baseline"]) >= floor, True)

    # Synthetic micro regression: slow the indexed probe 25%, shrinking its
    # advantage past any tolerance <= 20%.
    micro = load(micro_path)
    doctored = copy.deepcopy(micro)
    for b in doctored.get("benchmarks", []):
        if b["name"].startswith("BM_ProbeIndexedBucket/"):
            b["real_time"] *= 1.25
    doctored_path = os.path.join(root, FIXTURE_DIR,
                                 ".micro_ops_regressed.tmp.json")
    with open(doctored_path, "w", encoding="utf-8") as f:
        json.dump(doctored, f)
    try:
        expect("synthetically slowed micro_ops fails the gate",
               run_compare("micro_ops", micro_path, doctored_path, tolerance,
                           shards), 1)
    finally:
        os.remove(doctored_path)

    print(f"bench_compare self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind",
                        choices=["par_scaling", "micro_ops"],
                        help="schema of the compared files")
    parser.add_argument("--baseline", help="checked-in baseline JSON")
    parser.add_argument("--fresh", help="freshly measured JSON")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative ratio drop (default 0.15)")
    parser.add_argument("--shards", type=int, default=4,
                        help="parallel run gated in par_scaling mode")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate against the checked-in "
                             "baselines and the regression fixture")
    parser.add_argument("--root", default=".",
                        help="repository root for --self-test")
    args = parser.parse_args()

    if args.self_test:
        if not os.path.exists(os.path.join(args.root, PAR_BASELINE)):
            print(f"error: no {PAR_BASELINE} under {args.root}",
                  file=sys.stderr)
            return 2
        return self_test(args.root, args.tolerance, args.shards)
    if not (args.kind and args.baseline and args.fresh):
        parser.print_usage(sys.stderr)
        print("error: --kind, --baseline and --fresh are required "
              "(or --self-test)", file=sys.stderr)
        return 2
    return run_compare(args.kind, args.baseline, args.fresh, args.tolerance,
                       args.shards)


if __name__ == "__main__":
    sys.exit(main())
