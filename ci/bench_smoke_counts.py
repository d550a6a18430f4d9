#!/usr/bin/env python3
"""Hold the benchmark's deterministic counts to the committed values.

Reads the standard output of

    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --seed 1 --smoke --trace

on standard input and compares, per workload, the count metrics named
below with ci/bench_smoke_counts.txt: exactly, except
`alloc.count_per_tuple`, which is a ceiling (allocation counts differ
between toolchains; a count above the committed one fails, one below
passes). A deliberate change of a count regenerates the file, like the
golden digests: run with `--print` and commit what it prints.
"""
import os
import sys

EXACT = [
    "link_bytes_per_tuple",
    "cbn.router.calls_per_tuple",
    "cbn.router.hop_tuples_per_tuple",
    "cbn.router.projections_per_hop_tuple",
    "cbn.router.plan_hit_ratio",
    "cbn.matcher.matches_per_tuple",
    "spe.executor.intake_per_tuple",
    "spe.executor.emit_per_intake",
    "spe.executor.state_rows_peak",
    "spe.executor.staged_rows_peak",
    "spe.executor.duplicates_dropped",
    "spe.executor.late_shed",
    "core.delivery.results_per_tuple",
    "core.punctuation.bytes_share",
]
CEILING = ["alloc.count_per_tuple"]
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_smoke_counts.txt")


def counts(lines):
    """`(workload, metric) -> value text` of the metric lines of a run."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[1] in EXACT + CEILING:
            found[(parts[0], parts[1])] = parts[2]
    return found


def main():
    fresh = counts(sys.stdin)
    if sys.argv[1:] == ["--print"]:
        for (workload, metric), value in fresh.items():
            print(workload, metric, value)
        return 0
    with open(EXPECTED) as f:
        rows = [l.split() for l in f if l.strip() and not l.startswith("#")]
    expected = {(workload, metric): value for workload, metric, value in rows}
    problems = []
    for key, want in expected.items():
        got = fresh.get(key)
        if got is None:
            problems.append(f"{key[0]} {key[1]}: missing from the run")
        elif key[1] in CEILING:
            if float(got) > float(want):
                problems.append(f"{key[0]} {key[1]}: {got} exceeds the ceiling {want}")
        elif got != want:
            problems.append(f"{key[0]} {key[1]}: {got}, committed {want}")
    problems += [f"{k[0]} {k[1]}: not in {EXPECTED}" for k in fresh if k not in expected]
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        print(f"{len(expected)} counts match {EXPECTED}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
