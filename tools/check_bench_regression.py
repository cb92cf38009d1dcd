#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline.

Reads both google-benchmark output ({"benchmarks": [{"name",
"real_time", "time_unit", ...}]}) and the BenchJsonWriter format the
figure harnesses emit ({"benchmarks": [{"name", "ns_per_op", ...}]}).
Benchmarks present in both files are compared on ns/op; a benchmark
slower than baseline by more than --tolerance (default 25%) counts as
a regression and flips the exit code to 1. A name with several
iteration rows (google-benchmark's --benchmark_repetitions) is
compared on their median, so one noisy repetition neither flags nor
hides a regression; aggregate rows (mean/median/stddev/cv) are
ignored. Entries present on only one
side (e.g. a new benchmark without a committed baseline yet, or a
baseline record the run skipped) are reported and skipped, never
failed; a missing baseline *file* is a graceful skip, so the check
works before its baseline lands. A missing fresh file or a fully
disjoint name set is an error unless --allow-disjoint is passed (used
for merged multi-binary files where a run may contribute a subset) —
otherwise a benchmark rename could silently turn the gate vacuous.

Wired as a *non-blocking* CI step (continue-on-error): shared-runner
perf is advisory. Locally:

    ./build/bench_micro --benchmark_out=build/BENCH_micro.json \
        --benchmark_out_format=json
    tools/check_bench_regression.py --fresh build/BENCH_micro.json

    # server + live-update throughput (one merged file; run the pair
    # in this order — the server bench starts the file fresh, the
    # update bench merges into it):
    (cd build && ./bench_server_throughput && ./bench_update_throughput)
    tools/check_bench_regression.py \
        --baseline bench/baselines/BENCH_server.json \
        --fresh build/BENCH_server.json

To refresh a baseline after an intentional perf change, run with
--update-baselines: the committed baseline file is rewritten in place
from the fresh run (fresh records win, one median row per name;
baseline-only records are kept, so merged multi-binary baselines
survive a partial run). The old
manual flow — overwriting the file by hand — is superseded. Commit the
rewritten file.

    tools/check_bench_regression.py --fresh build/BENCH_micro.json \
        --update-baselines

Records carry the CPU count they were measured on: the file's
"context" block ("nproc" from BenchJsonWriter, "num_cpus" from
google-benchmark), or a per-record "nproc" where a merged file holds
records from another run. A record whose CPU count differs from its
baseline's — or is unknown on either side, as in baselines written
before the context block existed — is reported as incomparable and
not compared; --update-baselines keeps that stamp on the records it
carries over.

Baselines are machine-relative: numbers from a different host class
shift uniformly and the ratio check absorbs part of that, but for a
trustworthy CI comparison the baseline should be refreshed from the
CI job's own uploaded bench-json artifact rather than a developer
machine. (This, plus shared-runner noise, is why the CI step is
advisory rather than blocking.)
"""

import argparse
import json
import os
import sys

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "bench", "baselines",
                                "BENCH_micro.json")


def context_cpus(doc):
    """CPU count in a BENCH json's context block (None when absent)."""
    ctx = doc.get("context") or {}
    return ctx.get("nproc", ctx.get("num_cpus"))


def row_ns(record):
    """ns/op of one record in either format (None when unusable)."""
    if "ns_per_op" in record:  # BenchJsonWriter format
        return float(record["ns_per_op"])
    if "real_time" in record:  # google-benchmark format
        unit = _UNIT_TO_NS.get(record.get("time_unit", "ns"))
        if unit is not None:
            return float(record["real_time"]) * unit
    return None


def median_rows(records):
    """One row per benchmark name, in first-seen order: the median (by
    ns/op; the lower one for an even count) of the name's iteration
    rows. google-benchmark emits aggregate rows (mean/median/stddev/cv)
    next to the iteration rows when repetitions are configured; those
    are dropped."""
    by_name = {}
    for record in records:
        if record.get("run_type", "iteration") != "iteration":
            continue
        if row_ns(record) is None:
            continue
        by_name.setdefault(record["name"], []).append(record)
    out = []
    for rows in by_name.values():
        rows.sort(key=row_ns)
        out.append(rows[(len(rows) - 1) // 2])
    return out


def load_ns_per_op(path):
    """Returns {benchmark name: (median ns/op, CPU count or None)} from
    either supported format."""
    with open(path) as f:
        doc = json.load(f)
    file_cpus = context_cpus(doc)
    out = {}
    for record in median_rows(records_of(doc)):
        cpus = record["nproc"] if "nproc" in record else file_cpus
        out[record["name"]] = (row_ns(record), cpus)
    return out


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.2f%s" % (ns / scale, unit)
    return "%.0fns" % ns


def load_doc(path):
    """Returns a BENCH json document ({} when absent)."""
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def records_of(doc):
    return [r for r in doc.get("benchmarks", []) if r.get("name")]


def update_baselines(baseline_path, fresh_path):
    """Rewrites `baseline_path` from `fresh_path` (fresh names win).

    The fresh run's context becomes the file's; a carried-over baseline
    record measured on another (or an unknown) CPU count keeps its own
    as a per-record "nproc"."""
    if not os.path.exists(fresh_path):
        print("ERROR: no fresh output at %s" % fresh_path)
        return 1
    fresh_doc = load_doc(fresh_path)
    fresh = median_rows(records_of(fresh_doc))
    if not fresh:
        print("ERROR: %s holds no benchmark records" % fresh_path)
        return 1
    fresh_cpus = context_cpus(fresh_doc)
    fresh_names = {r["name"] for r in fresh}
    base_doc = load_doc(baseline_path)
    base_cpus = context_cpus(base_doc)
    kept = []
    for r in records_of(base_doc):
        if r["name"] in fresh_names:
            continue
        if "nproc" not in r and (base_cpus is None or
                                 base_cpus != fresh_cpus):
            r = dict(r, nproc=base_cpus)
        kept.append(r)
    merged = {}
    if "context" in fresh_doc:
        merged["context"] = fresh_doc["context"]
    merged["benchmarks"] = fresh + kept
    os.makedirs(os.path.dirname(os.path.abspath(baseline_path)),
                exist_ok=True)
    with open(baseline_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print("rewrote %s: %d record(s) from %s, %d kept from the old "
          "baseline" % (baseline_path, len(fresh), fresh_path, len(kept)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark regression check against a committed "
                    "baseline.")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline JSON "
                             "(default: bench/baselines/BENCH_micro.json)")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH JSON to check")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--allow-disjoint", action="store_true",
                        help="exit 0 when the fresh file is missing or "
                             "shares no benchmark names with the "
                             "baseline (for merged multi-binary files "
                             "like BENCH_server.json, where a run may "
                             "legitimately contribute only a subset); "
                             "without it, a vacuous comparison fails "
                             "loudly so renames can't silently disable "
                             "the gate")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file in place from "
                             "the fresh run instead of comparing: fresh "
                             "records replace same-named baseline "
                             "records, baseline-only records are kept "
                             "(for merged multi-binary files). Exits 0 "
                             "on success")
    args = parser.parse_args()

    if args.update_baselines:
        return update_baselines(args.baseline, args.fresh)

    if not os.path.exists(args.baseline):
        print("no baseline at %s — nothing to compare (ok)" % args.baseline)
        return 0
    if not os.path.exists(args.fresh):
        if args.allow_disjoint:
            print("no fresh output at %s — bench not run here (skip, ok)"
                  % args.fresh)
            return 0
        print("ERROR: no fresh output at %s" % args.fresh)
        return 1
    baseline = load_ns_per_op(args.baseline)
    fresh = load_ns_per_op(args.fresh)

    shared = sorted(set(baseline) & set(fresh))
    incomparable = [n for n in shared
                    if baseline[n][1] is None or
                    baseline[n][1] != fresh[n][1]]
    common = [n for n in shared if n not in incomparable]
    if incomparable:
        print("incomparable, CPU count differs from the baseline's "
              "(%d):" % len(incomparable))
        for name in incomparable:
            print("  %s: baseline %s CPUs, fresh %s CPUs"
                  % (name, baseline[name][1] or "unknown",
                     fresh[name][1] or "unknown"))
        if not common:
            print("OK: nothing comparable (refresh the baseline on this "
                  "machine class with --update-baselines)")
            return 0
    if not common:
        if args.allow_disjoint:
            # Disjoint record sets (e.g. only one contributing binary
            # ran): nothing comparable is not a regression.
            print("no benchmarks in common between %s and %s — skip (ok)"
                  % (args.baseline, args.fresh))
            return 0
        print("ERROR: no benchmarks in common between %s and %s"
              % (args.baseline, args.fresh))
        return 1

    regressions, improvements = [], []
    width = max(len(n) for n in common)
    print("%-*s %10s %10s %8s" % (width, "benchmark", "baseline", "fresh",
                                  "ratio"))
    baseline = {n: ns for n, (ns, _) in baseline.items()}
    fresh = {n: ns for n, (ns, _) in fresh.items()}
    for name in common:
        ratio = fresh[name] / baseline[name] if baseline[name] > 0 else 1.0
        flag = ""
        if ratio > 1.0 + args.tolerance:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        elif ratio < 1.0 - args.tolerance:
            improvements.append((name, ratio))
            flag = "  (improved)"
        print("%-*s %10s %10s %7.2fx%s"
              % (width, name, format_ns(baseline[name]),
                 format_ns(fresh[name]), ratio, flag))

    only_base = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))
    if only_base:
        print("missing from fresh run (%d): %s"
              % (len(only_base), ", ".join(only_base)))
    if only_fresh:
        print("new benchmarks (%d, no baseline yet): %s"
              % (len(only_fresh), ", ".join(only_fresh)))

    print()
    if regressions:
        print("FAIL: %d benchmark(s) regressed beyond %.0f%%:"
              % (len(regressions), args.tolerance * 100))
        for name, ratio in regressions:
            print("  %s: %.2fx" % (name, ratio))
        return 1
    print("OK: %d benchmark(s) within %.0f%% of baseline (%d improved)"
          % (len(common), args.tolerance * 100, len(improvements)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
