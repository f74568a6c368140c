"""Shared JSON perf-trajectory persistence for the benchmark scripts.

Every benchmark appends its run entries to a ``BENCH_*.json`` document of the
shape ``{"benchmark": <name>, "runs": [...]}`` so successive PRs can track
performance over time; this module is the single implementation of the
append/load logic.
"""

from __future__ import annotations

import json
from pathlib import Path


def load_trajectory(path: Path, benchmark: str) -> dict:
    """The trajectory document at ``path`` (a fresh one when absent)."""
    if path.exists():
        return json.loads(path.read_text())
    return {"benchmark": benchmark, "runs": []}


def append_trajectory(path: Path, benchmark: str, entries: list[dict]) -> None:
    """Append the run entries to the JSON perf-trajectory file."""
    document = load_trajectory(path, benchmark)
    document["runs"].extend(entries)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"trajectory written to {path} ({len(document['runs'])} runs total)")


__all__ = ["append_trajectory", "load_trajectory"]
