#!/usr/bin/env python3
"""Compare two metrics exports (BENCH_*.json snapshots) for regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]
    bench_compare.py --lint-report BASELINE.json CANDIDATE.json

This is the repo's one A/B judge: every export it reads is the single
JSON object ``obs::MetricsRegistry::exportJson`` writes, and only the
``gauges`` section is judged. Exit codes: 0 no regression, 1 at least
one regression, 2 no gated gauge in an input.

Benchmark mode: every gated gauge present in BOTH snapshots is
compared. A ``bench.*.real_time`` gauge more than ``threshold``
(default 15%) slower than the baseline is a regression. Wall-clock
gauges only: cpu_time aggregates scheduler lanes and misreports
threaded benchmarks. Latency gauges ending ``.p99_micros`` are
quantiles of an ``obs::LogHistogram`` (a bucket midpoint; 8 buckets
per octave, each ~9% wide), so they are judged by bucket distance
instead of a ratio: a p99 that rises 3 or more buckets (~30%) fails,
a 1-2 bucket move passes. Throughput gauges ending
``.lookups_per_sec`` (the fingerprint index) gate in the opposite
direction: a candidate more than ``threshold`` *below* the baseline
fails. Gauges present in only one snapshot (new or retired
benchmarks) are reported but never fail the run, so adding a
benchmark does not require regenerating the baseline in the same
change.

Lint mode (``--lint-report``): diff two decepticon-lint JSON reports
(the committed ``tools/lint/lint_baseline.json`` vs a fresh
``decepticon-lint --json`` run). Any unsuppressed violation fails,
and so does any suppression not present in the baseline — new
suppressions must land by updating the committed baseline, which
makes them a reviewable diff instead of a silent drive-by. Retired
suppressions are reported as cleanups and pass.
"""

import argparse
import json
import math
import sys

# A p99 that rises this many LogHistogram buckets (~30%) regressed.
P99_REGRESSION_BUCKETS = 3


def lint_suppression_key(entry):
    """Identity of a suppression for baseline diffing: file + rule +
    justification. Line numbers are deliberately excluded so
    unrelated edits above a suppressed line do not churn the
    baseline."""
    return (entry.get("file", ""), entry.get("rule", ""),
            entry.get("justification", ""))


def compare_lint_reports(baseline_path, candidate_path):
    with open(baseline_path, "r", encoding="utf-8") as f:
        base = json.load(f)
    with open(candidate_path, "r", encoding="utf-8") as f:
        cand = json.load(f)
    for report, path in ((base, baseline_path), (cand, candidate_path)):
        if report.get("tool") != "decepticon-lint":
            print(f"error: {path} is not a decepticon-lint report")
            return 2

    failed = False
    violations = cand.get("violations", [])
    if violations:
        failed = True
        print(f"FAIL: {len(violations)} unsuppressed violation(s):")
        for v in violations:
            print(f"  {v['file']}:{v['line']}: [{v['rule']}] "
                  f"{v['message']}")

    base_sup = {lint_suppression_key(s) for s in base.get("suppressed", [])}
    cand_entries = cand.get("suppressed", [])
    new = [s for s in cand_entries
           if lint_suppression_key(s) not in base_sup]
    if new:
        failed = True
        print(f"FAIL: {len(new)} suppression(s) not in the committed "
              f"baseline ({baseline_path}):")
        for s in new:
            print(f"  {s['file']}:{s['line']}: [{s['rule']}] "
                  f"justification: {s.get('justification', '')!r}")
        print("  If intentional, regenerate the baseline "
              "(decepticon-lint --json) and commit it so the new "
              "suppression is visible in review.")

    cand_sup = {lint_suppression_key(s) for s in cand_entries}
    retired = sorted(base_sup - cand_sup)
    for file_, rule, _ in retired:
        print(f"note: suppression retired in {file_} [{rule}] "
              f"(baseline can be regenerated)")

    if failed:
        return 1
    print(f"OK: 0 violations, {len(cand_entries)} suppression(s), "
          f"all in baseline")
    return 0


def log_bucket(micros):
    """LogHistogram bucket index of a latency in µs: floor(8·log2 v)."""
    return math.floor(8 * math.log2(micros))


def gauge_direction(name):
    """Gating direction of a gauge, or None if not gated.

    "lower": benchmark wall clocks. "buckets": p99 latencies, judged
    by LogHistogram bucket distance. "higher": fingerprint-index
    lookups/sec, where a drop below the threshold is the regression."""
    if name.startswith("bench.") and name.endswith(".real_time"):
        return "lower"
    if name.endswith(".p99_micros"):
        return "buckets"
    if name.endswith(".lookups_per_sec"):
        return "higher"
    return None


def gated_gauges(path):
    with open(path, "r", encoding="utf-8") as f:
        snapshot = json.load(f)
    gauges = snapshot.get("gauges", {})
    return {
        name: value
        for name, value in gauges.items()
        if gauge_direction(name) is not None
        and isinstance(value, (int, float)) and value > 0
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("candidate", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="allowed slowdown fraction before failing (default 0.15)")
    parser.add_argument(
        "--lint-report", action="store_true",
        help="treat the inputs as decepticon-lint JSON reports and "
             "diff suppressions against the committed baseline")
    args = parser.parse_args()

    if args.lint_report:
        return compare_lint_reports(args.baseline, args.candidate)

    base = gated_gauges(args.baseline)
    cand = gated_gauges(args.candidate)
    for gauges, path in ((base, args.baseline), (cand, args.candidate)):
        if not gauges:
            print(f"error: no gated gauge (bench.*.real_time, "
                  f"*.p99_micros, *.lookups_per_sec) in {path}")
            return 2

    shared = sorted(set(base) & set(cand))
    regressions = []
    width = max((len(n) for n in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}"
          f"  {'ratio':>7}")
    for name in shared:
        ratio = cand[name] / base[name]
        flag = ""
        direction = gauge_direction(name)
        if direction == "buckets":
            moved = log_bucket(cand[name]) - log_bucket(base[name])
            regressed = moved >= P99_REGRESSION_BUCKETS
            verdict = f"{moved:+d} log buckets"
        elif direction == "higher":
            regressed = ratio < 1.0 - args.threshold
            verdict = f"{ratio:.2f}x baseline"
        else:
            regressed = ratio > 1.0 + args.threshold
            verdict = f"{ratio:.2f}x baseline"
        if regressed:
            regressions.append((name, verdict))
            flag = "  REGRESSION"
        print(f"{name:<{width}}  {base[name]:>12.0f}  {cand[name]:>12.0f}"
              f"  {ratio:>6.2f}x{flag}")

    for name in sorted(set(cand) - set(base)):
        print(f"{name}: new benchmark, no baseline (not compared)")
    for name in sorted(set(base) - set(cand)):
        print(f"{name}: missing from candidate (not compared)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) (gauges worse "
              f"than {args.threshold:.0%}, p99 latencies "
              f"{P99_REGRESSION_BUCKETS}+ log buckets):")
        for name, verdict in regressions:
            print(f"  {name}: {verdict}")
        return 1
    print(f"\nOK: {len(shared)} gauge(s) within {args.threshold:.0%} "
          f"(p99 latencies within {P99_REGRESSION_BUCKETS - 1} log "
          f"buckets) of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
