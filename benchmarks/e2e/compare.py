#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

For every (workload, end-to-end metric) pair it prints both values, the ratio
B / A (A is the base) and the metric's bound from ``BENCHMARK.json``. It exits
1 when B is worse than A by more than the bound on any pair, when the share
of failed operations rose on any workload, or when a pair is missing from
either file; otherwise 0.

``unified_cost`` and ``served_rate`` are exact for a seed. When both files
were run at the same seed they are held to ``SAME_SEED_QUALITY_BOUND``
instead of the bound of ``BENCHMARK.json``, which has to absorb the draw of
another seed (the driver of ``BENCHMARK.json`` compares medians over seeds).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: what the deterministic quality metrics may lose between two runs at one seed
SAME_SEED_QUALITY_BOUND = 0.001
QUALITY_METRICS = ("unified_cost", "served_rate")

#: ISSUE 11's bound on every timing metric. The reference box does not repeat
#: within it (README.md, "Steadiness"), so a pair that is worse by more than
#: this, yet inside the bound of ``BENCHMARK.json``, is neither a regression
#: nor unchanged: it is reported as unresolved.
RESOLVABLE = 0.10


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(base: dict, other: dict, spec: dict) -> int:
    """Print the table; return the number of pairs on which ``other`` regressed."""
    regressions = 0
    seeds = [result.get("env", {}).get("seed") for result in (base, other)]
    same_seed = seeds[0] is not None and seeds[0] == seeds[1]
    print(f"{'workload':<16}{'metric':<16}{'A (base)':>16}{'B':>16}{'B/A':>9}{'bound':>8}")
    for workload in (w["name"] for w in spec["workloads"]):
        a_entry = base["workloads"].get(workload, {})
        b_entry = other["workloads"].get(workload, {})
        a_metrics, b_metrics = a_entry.get("end_to_end", {}), b_entry.get("end_to_end", {})
        rows = [(m["name"], a_metrics.get(m["name"]), b_metrics.get(m["name"]), m["better"],
                 SAME_SEED_QUALITY_BOUND if same_seed and m["name"] in QUALITY_METRICS
                 else m["bound"]) for m in spec["end_to_end"]]
        # the share of failed operations may not rise at all
        a_failed, b_failed = (entry["failed"] / entry["attempted"] if entry else None
                              for entry in (a_entry, b_entry))
        rows.append(("failed_share", a_failed, b_failed, "lower", 0.0))
        for name, a, b, better, bound in rows:
            if a is None or b is None:
                print(f"{workload:<16}{name:<16}missing from {'A' if a is None else 'B'}  REGRESSION")
                regressions += 1
                continue
            worse_by = (b - a if better == "lower" else a - b) / a if a else b - a
            verdict = ""
            if worse_by > bound:
                verdict = f"  REGRESSION (worse by {worse_by:.1%})"
                regressions += 1
            elif worse_by > RESOLVABLE:
                verdict = f"  unresolved (worse by {worse_by:.1%}): rerun in alternating pairs"
            ratio = f"{b / a:>9.4f}" if a else f"{'-':>9}"
            print(f"{workload:<16}{name:<16}{a:>16.6g}{b:>16.6g}{ratio}{bound:>8.1%}{verdict}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    regressions = compare(load(argv[0]), load(argv[1]), load(str(BENCHMARK)))
    print(f"{regressions} regression(s) beyond the bounds of BENCHMARK.json")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
