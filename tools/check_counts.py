"""Hold the serving benchmark's per-layer counts to a committed file with ``==``.

Every per-layer metric of unit ``count`` that ``benchmarks/e2e/run.py
--smoke --trace 1`` reports (calls per layer, distance queries, path-cache
misses, settled vertices, cluster commands, ...) is a pure function of the
code and the seed: no timing enters it. A change that claims only to be
faster must leave every one of them where it was, so the gate compares them
exactly, never within a tolerance.

Usage::

    # run the four smokes, then compare their counts with the committed file
    for w in dense_city metro_sparse closures_batch cluster_k2; do
        python benchmarks/e2e/run.py --workload $w --smoke --trace 1 --out $w.json
    done
    python tools/check_counts.py tests/e2e_counts.json dense_city.json metro_sparse.json \\
        closures_batch.json cluster_k2.json

    # a change that moves a count on purpose rewrites the file (and says why)
    python tools/check_counts.py --write tests/e2e_counts.json dense_city.json ...

Exit status 1 names every count that moved, every count that appeared or
went away, and every workload missing from the results or run at other
sizes or another seed.
"""

from __future__ import annotations

import argparse
import json
import sys


def counts_of(record: dict) -> dict:
    """The workload's seed, sizes and per-layer counts from one ``--out`` record."""
    if record.get("trace") != 1 or record.get("reportable") is not False:
        raise SystemExit(
            f"check_counts: {record.get('workload')!r} is not a --smoke --trace 1 record"
        )
    return {
        "seed": record["seed"],
        "sizes": record["sizes"],
        "counts": {
            name: metric["value"]
            for name, metric in sorted(record["metrics"].items())
            if metric["unit"] == "count"
        },
    }


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per disagreement between the committed and the measured counts."""
    problems = []
    for workload in sorted(expected.keys() | actual.keys()):
        if workload not in actual:
            problems.append(f"{workload}: no result given")
            continue
        if workload not in expected:
            problems.append(f"{workload}: not in the counts file")
            continue
        want, got = expected[workload], actual[workload]
        for key in ("seed", "sizes"):
            if want[key] != got[key]:
                problems.append(f"{workload}: {key} {got[key]!r}, the file has {want[key]!r}")
        for name in sorted(want["counts"].keys() | got["counts"].keys()):
            before = want["counts"].get(name)
            after = got["counts"].get(name)
            if before != after:
                problems.append(f"{workload}: {name} {before!r} -> {after!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("counts", help="the committed counts file (JSON)")
    parser.add_argument("results", nargs="+", help="run.py --smoke --trace 1 --out records")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the counts file from the results instead of comparing")
    args = parser.parse_args(argv)

    actual = {}
    for path in args.results:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        actual[record["workload"]] = counts_of(record)
    if args.write:
        with open(args.counts, "w", encoding="utf-8") as handle:
            json.dump(actual, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    with open(args.counts, encoding="utf-8") as handle:
        expected = json.load(handle)
    problems = differences(expected, actual)
    for problem in problems:
        print(f"check_counts: {problem}")
    if not problems:
        total = sum(len(entry["counts"]) for entry in actual.values())
        print(f"check_counts: {total} counts on {len(actual)} workloads equal the file")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
