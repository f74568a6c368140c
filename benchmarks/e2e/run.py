#!/usr/bin/env python3
"""The repo's serving benchmark: four workloads, end-to-end and per-layer metrics.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` replays one
workload through the public ``MatchingService`` session API in this process
and prints one JSON object as the last line of standard output (the contract
of ``BENCHMARK.json``). Without ``--workload`` it runs every workload in its
own subprocess, one after the other, untraced and traced, and writes the
merged result file named by ``--out`` — the input of ``compare.py``.

Load model: closed loop, one client, one process. ``submit()`` blocks and
simulated time travels inside each request, so the next request is sent when
the previous decision returns. One *replay* builds a cold platform, streams
the whole request stream through it and drains; it lasts 5-8 s on the
reference box. A run of ``--seconds`` is ``--seconds / REPLAY_SECONDS``
replays — three at ``BENCHMARK.json``'s 20 seconds, a count that does not
depend on how fast the code is — and takes, for every operation, the fastest
of its repetitions as its cost. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
# the program under test is used from source, as the checkout holds it
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.service import DecisionStatus, RejectionReason  # noqa: E402

#: nominal length of one replay of the frozen sizes on the 2-core reference box
#: (they last 5-8 s there): a run of ``--seconds 20`` is three replays
REPLAY_SECONDS = 7.0

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "submit_p90_ms": "ms",
    "submit_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unified_cost": "s",
    "served_rate": "share",
}

#: layer -> the end-to-end metric its numbers should move, and where (README.md)
LAYER_MOVES = {
    "service": "submit_p90_ms, on all workloads",
    "engine": "throughput_rps, on closures_batch",
    "fleet": "throughput_rps and submit_p90_ms, on dense_city and metro_sparse",
    "dispatch": "submit_p90_ms on dense_city; submit_p90_ms and submit_p99_ms (flush) on "
                "closures_batch",
    "insertion": "submit_p90_ms and throughput_rps, on dense_city and closures_batch",
    "index": "submit_p90_ms, on metro_sparse",
    "network": "throughput_rps on metro_sparse and closures_batch; backend_build_s moves setup_s",
    "scenarios": "throughput_rps, on closures_batch",
    "sharding": "submit_p99_ms, on cluster_k2",
    "cluster": "throughput_rps and submit_p90_ms on cluster_k2; spawn_s moves setup_s",
    "workloads": "nothing",
    "trace": "nothing",
}


# --------------------------------------------------------------------- replay


class Replay:
    """What one cold build + full replay + drain produced."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.backend_build_s = 0.0
        self.wall_s = 0.0
        self.check_s = 0.0
        self.latencies: list[float] = []
        self.update_s: list[float] = []
        self.result = None
        self.events_processed = 0
        self.front_door_queries = 0
        self.dijkstra_runs = 0
        self.backend_settled = 0
        self.path_cache_hit_rate = 0.0
        self.completed = 0
        self.failed = 0
        self.violations: list[dict] = []
        self.workers_cpu_s = 0.0

    @property
    def attempted(self) -> int:
        """Operations: every submit, every network update, every delivery."""
        return len(self.latencies) + len(self.update_s) + self.completed

    def fingerprint(self) -> tuple:
        """What must repeat exactly for one seed, whatever the timing."""
        result = self.result
        return (
            result.total_requests,
            result.served_requests,
            result.cancelled_requests,
            float(result.unified_cost).hex(),
            result.distance_queries,
            self.events_processed,
        )


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def replay(workload, inputs, tracer=None, *, sharded_reference: bool = False) -> Replay:
    """Build a cold platform, stream every request through it, drain, check."""
    out = Replay()
    # the previous platform is garbage by now; collecting it here keeps peak
    # memory independent of how many replays the run holds
    gc.collect()
    if tracer is not None:
        tracer.install_setup()
    cpu_before = _children_cpu_s()
    built = workloads.build_platform(workload, inputs, sharded_reference=sharded_reference)
    service = built.service
    out.setup_s, out.backend_build_s = built.setup_s, built.backend_build_s
    terminal: dict[int, int] = {}

    def note(decision) -> None:
        if decision.status is DecisionStatus.DEFERRED:
            return
        terminal[decision.request_id] = terminal.get(decision.request_id, 0) + 1
        if decision.reason is RejectionReason.SATURATED:
            out.failed += 1

    def apply(action) -> None:
        started = clock()
        for resolved in service.advance_to(action.time):
            note(resolved)
        service.apply_network_update(action.apply)
        out.update_s.append(clock() - started)

    clock = time.perf_counter
    timeline, cursor = inputs.timeline, 0
    latencies = out.latencies
    try:
        if tracer is not None:
            tracer.install(service)
        started = clock()
        for request in inputs.requests:
            while cursor < len(timeline) and timeline[cursor].time <= request.release_time:
                apply(timeline[cursor])
                cursor += 1
            sent = clock()
            decision = service.submit(request)
            latencies.append(clock() - sent)
            note(decision)
            for resolved in service.poll_decisions():
                note(resolved)
        for action in timeline[cursor:]:
            apply(action)
        out.result = service.drain()
        for resolved in service.poll_decisions():
            note(resolved)
        out.wall_s = clock() - started
    finally:
        if tracer is not None:
            tracer.remove()
        built.close()  # reaps the shard workers; drain already did on the good path
    out.workers_cpu_s = _children_cpu_s() - cpu_before

    checking = clock()
    snapshot = service.snapshot()
    out.events_processed = snapshot.events_processed
    out.failed += snapshot.worker_failures
    counters = built.oracle.counters
    out.front_door_queries = counters.distance_queries
    out.dijkstra_runs = counters.dijkstra_runs
    out.backend_settled = sum(counters.backend_settled.values())
    out.path_cache_hit_rate = float(built.oracle.cache_statistics()["path_cache_hit_rate"])
    out.completed = check.completed_records(service.fleet)
    out.violations = check.check_fleet(
        service.fleet, enforce_deadlines=workload.disruption_free
    )
    for request in inputs.requests:
        if terminal.get(request.id, 0) != 1:
            out.violations.append({"kind": "terminal_decisions", "request": request.id,
                                   "count": terminal.get(request.id, 0)})
    out.failed += len(out.violations)
    out.check_s = clock() - checking
    return out


# ---------------------------------------------------------------- one workload


def percentile(sorted_values: list[float], share: float) -> float:
    return sorted_values[min(int(len(sorted_values) * share), len(sorted_values) - 1)]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest child's (0 without children)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 trace_out: str | None = None) -> dict:
    """Run one workload; returns the record."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate_inputs(workload, seed, smoke)

    if trace:
        # the untraced replay is the base of the overhead ratio and the proof
        # that tracing changes no result
        tracer = tracing.Tracer()
        plain, traced = [replay(workload, inputs)], [replay(workload, inputs, tracer)]
    else:
        tracer, traced = None, []
        count = 1 if smoke else max(1, round(seconds / REPLAY_SECONDS))
        plain = [replay(workload, inputs) for _ in range(count)]
    replays = plain + traced
    reference_s = 0.0

    problems: list[dict] = [v for r in replays for v in r.violations]
    fingerprints = {r.fingerprint() for r in replays}
    if len(fingerprints) != 1:
        problems.append({"kind": "results_differ_between_replays",
                         "fingerprints": sorted(map(str, fingerprints))})
    if workload.cluster_shards and trace:
        # the cluster equivalence contract, in the traced run only: the untraced run is the one
        # the driver repeats twenty times per workload, `peak_rss_mb` is read there, and the
        # in-process twin costs 12 s and as much memory as the front door
        reference = replay(workload, inputs, sharded_reference=True)
        reference_s = reference.setup_s + reference.wall_s
        mine, theirs = plain[0].result, reference.result
        for field in ("served_requests", "unified_cost", "mean_wait_seconds",
                      "mean_detour_ratio"):
            if getattr(mine, field) != getattr(theirs, field):
                problems.append({"kind": "cluster_differs_from_sharded", "field": field,
                                 "cluster": getattr(mine, field),
                                 "sharded": getattr(theirs, field)})
        problems.extend(reference.violations)
    if tracer is not None:
        shimmed = tracer.counts.get("network.traced_queries", 0.0)
        counted = sum(r.front_door_queries for r in traced)
        if shimmed != counted:
            problems.append({"kind": "traced_queries_differ_from_oracle_counter",
                             "traced": shimmed, "counter": counted})

    first = plain[0]
    attempted, failed = sum(r.attempted for r in replays), sum(r.failed for r in replays)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "reportable": not smoke,
        "sizes": inputs.sizes(),
        "phases": {
            "setup_s": sum(r.setup_s for r in replays),
            "generate_s": inputs.generate_s,
            "measured_s": sum(r.wall_s for r in replays),
            "check_s": sum(r.check_s for r in replays) + reference_s,
        },
        "replays": len(replays),
        # how much the host interfered: the raw wall and set-up time of each replay
        "replay_wall_s": [r.wall_s for r in replays],
        "replay_setup_s": [r.setup_s for r in replays],
        "submit_samples": len(first.latencies),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "counts": {
            "served_requests": first.result.served_requests,
            "cancelled_requests": first.result.cancelled_requests,
            "deadline_violations": first.result.deadline_violations,
            "network.distance_queries": first.result.distance_queries,
            "engine.events_processed": first.events_processed,
        },
    }
    if trace:
        record["metrics"] = per_layer_metrics(tracer, workload, first, traced[0], inputs)
        if trace_out:
            tracer.write_spans(trace_out)
    else:
        values = end_to_end_values(plain)
        record["submit_p50_ms"] = values["submit_p50_ms"]
        record["metrics"] = {key: {"value": values[key], "unit": unit}
                             for key, unit in END_TO_END_UNITS.items()}
    return record


def fastest(replays: list[Replay], series) -> list[float]:
    """Per operation, the fastest of its repetitions over the replays.

    Every replay performs the same operations on the same inputs, and
    interference from the host only ever adds time, so the minimum over the
    replays is the steadiest estimate of what an operation costs the program
    (README.md, "How a timing is estimated", has the measurements).
    """
    return [min(times) for times in zip(*map(series, replays))]


def end_to_end_values(replays: list[Replay]) -> dict[str, float]:
    """What a user of the service sees, each operation (set-up too) at its fastest replay."""
    submits = fastest(replays, lambda r: r.latencies)
    updates = fastest(replays, lambda r: r.update_s)
    # drain and the loop's own bookkeeping
    rest = min(r.wall_s - sum(r.latencies) - sum(r.update_s) for r in replays)
    ordered = sorted(submits)
    result = replays[0].result
    return {
        "throughput_rps": len(submits) / (sum(submits) + sum(updates) + rest),
        # printed and recorded, but no entry of BENCHMARK.json: on closures_batch the median
        # falls in the gap between a bare enqueue (6-12 us, 45-48 % of submits) and one that
        # first processes due events (25 us and up), and jumps between them with the seed
        "submit_p50_ms": percentile(ordered, 0.50) * 1e3,
        "submit_p90_ms": percentile(ordered, 0.90) * 1e3,
        "submit_p99_ms": percentile(ordered, 0.99) * 1e3,
        "setup_s": min(r.setup_s for r in replays),
        "peak_rss_mb": peak_rss_mb(),
        "unified_cost": result.unified_cost,
        "served_rate": result.served_rate,
    }


def per_layer_metrics(tracer, workload, plain: Replay, traced: Replay, inputs) -> dict:
    """The traced replay's aggregates, by layer.

    Every metric is reported on every workload; a layer that does not run on
    a workload (the cluster on ``dense_city``, the dispatcher's own spans on
    ``cluster_k2``, where dispatch happens inside the shard workers) reads 0.
    """
    values: dict[str, tuple[float, str]] = {}

    def put(key: str, value: float, unit: str) -> None:
        values[key] = (float(value), unit)

    def calls(key: str, span: str) -> None:
        put(key, tracer.calls(span), "count")

    def secs(key: str, *spans: str) -> None:
        put(key, sum(tracer.seconds(span) for span in spans), "s")

    def self_s(key: str, *prefixes: str) -> None:
        put(key, tracer.self_seconds(*prefixes), "s")

    def count(key: str) -> float:
        return tracer.counts.get(key, 0.0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    extra = traced.result.extra
    sharding = "cluster" if "cluster_local_hits" in extra else "sharding"

    calls("service.submit_calls", "service.submit")
    secs("service.submit_s", "service.submit")
    self_s("service.self_s", "service.")
    secs("service.drain_s", "service.drain")

    secs("engine.submit_s", "engine.submit")
    self_s("engine.self_s", "engine.")
    put("engine.events_processed", traced.events_processed, "count")
    secs("engine.advance_until_s", "engine.advance_until")
    secs("engine.finish_s", "engine.finish")

    calls("fleet.states_of_calls", "fleet.states_of")
    secs("fleet.states_of_s", "fleet.states_of")
    calls("fleet.state_of_calls", "fleet.state_of")
    secs("fleet.state_of_s", "fleet.state_of")
    secs("fleet.idle_partition_s", "fleet.idle_partition")
    calls("fleet.advance_all_calls", "fleet.advance_all")
    secs("fleet.advance_all_s", "fleet.advance_all")
    put("fleet.states_returned", count("fleet.states_returned"), "count")
    self_s("fleet.self_s", "fleet.")

    outcomes = count("dispatch.outcomes")
    calls("dispatch.dispatch_calls", "dispatch.dispatch")
    secs("dispatch.dispatch_s", "dispatch.dispatch")
    calls("dispatch.flush_calls", "dispatch.flush")
    secs("dispatch.flush_s", "dispatch.flush")
    self_s("dispatch.self_s", "dispatch.")
    secs("dispatch.setup_s", "setup.dispatcher")
    put("dispatch.candidates_mean", share(count("dispatch.candidates"), outcomes), "count")
    put("dispatch.insertions_mean", share(count("dispatch.insertions"), outcomes), "count")
    put("dispatch.pruned_share",
        1.0 - share(count("dispatch.insertions"), count("dispatch.candidates"))
        if count("dispatch.candidates") else 0.0, "share")
    put("dispatch.decision_rejected_share",
        share(count("dispatch.decision_rejected"), outcomes), "share")

    calls("insertion.lower_bounds_calls", "insertion.lower_bounds")
    secs("insertion.lower_bounds_s", "insertion.lower_bounds")
    calls("insertion.best_insertion_calls", "insertion.best_insertion")
    secs("insertion.best_insertion_s", "insertion.best_insertion")
    put("insertion.feasible_share",
        share(count("insertion.feasible"), tracer.calls("insertion.best_insertion")), "share")
    secs("insertion.with_insertion_s", "insertion.with_insertion")
    self_s("insertion.self_s", "insertion.")

    calls("index.near_calls", "index.near")
    secs("index.near_s", "index.near")
    put("index.members_returned_mean",
        share(count("index.members_returned"), tracer.calls("index.near")), "count")
    calls("index.update_calls", "index.update")
    secs("index.update_s", "index.update")
    secs("index.rebuild_s", "index.rebuild")
    self_s("index.self_s", "index.")

    for op in ("distance", "batched", "path", "euclid", "refresh"):
        calls(f"network.{op}_calls", f"network.{op}")
        secs(f"network.{op}_s", f"network.{op}")
    self_s("network.self_s", "network.")
    put("network.distance_queries", traced.result.distance_queries, "count")
    put("network.dijkstra_runs", traced.dijkstra_runs, "count")
    put("network.backend_settled", traced.backend_settled, "count")
    put("network.path_cache_hit_rate", traced.path_cache_hit_rate, "share")
    put("network.backend_build_s", traced.backend_build_s, "s")

    put("scenarios.compile_s", inputs.generate_s if workload.program else 0.0, "s")
    calls("scenarios.update_calls", "scenarios.update")
    secs("scenarios.update_s", "scenarios.update")
    put("scenarios.update_max_s", max(traced.update_s, default=0.0), "s")

    dispatched = extra.get(f"{sharding}_local_hits", 0.0) + extra.get(f"{sharding}_escalations", 0.0)
    put("sharding.local_hit_share", share(extra.get(f"{sharding}_local_hits", 0.0), dispatched),
        "share")
    put("sharding.escalations", extra.get(f"{sharding}_escalations", 0.0), "count")
    put("sharding.global_fallbacks", extra.get(f"{sharding}_global_fallbacks", 0.0), "count")

    secs("cluster.dispatch_s", "cluster.dispatch")
    calls("cluster.send_calls", "cluster.send")
    secs("cluster.send_s", "cluster.send")
    secs("cluster.pickle_s", "cluster.pickle")
    put("cluster.sent_bytes", count("cluster.sent_bytes"), "B")
    secs("cluster.recv_wait_s", "cluster.poll", "cluster.recv")
    self_s("cluster.front_self_s", "cluster.dispatch", "cluster.flush")
    self_s("cluster.self_s", "cluster.")
    put("cluster.commands_sent", extra.get("cluster_commands_sent", 0.0), "count")
    put("cluster.workers_cpu_s", traced.workers_cpu_s, "s")
    secs("cluster.spawn_s", "setup.cluster_spawn")
    put("cluster.retries", extra.get("cluster_retries", 0.0), "count")
    put("cluster.worker_failures", extra.get("cluster_worker_failures", 0.0), "count")

    in_spans = sum(
        entry[2] for span, entry in tracer.totals.items() if not span.startswith("setup.")
    )
    put("workloads.generate_s", inputs.generate_s, "s")
    put("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio")
    put("trace.coverage", in_spans / traced.wall_s, "share")
    put("trace.untraced_s", traced.wall_s - in_spans, "s")

    return {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}


# ------------------------------------------------------------------ reporting


def environment(seed: int, seconds: float) -> dict:
    """The fingerprint every result file carries."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "seconds": seconds,
    }


def print_record(record: dict) -> None:
    label = "" if record["reportable"] else "  [smoke sizes: numbers are NOT reportable]"
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}{label}")
    print(f"   sizes {record['sizes']}")
    print(f"   phases {({k: round(v, 3) for k, v in record['phases'].items()})}  "
          f"replays {record['replays']}  submit samples {record['submit_samples']}")
    layer = None
    for key, metric in record["metrics"].items():
        if record["trace"] and key.split(".")[0] != layer:
            layer = key.split(".")[0]
            print(f"   -- {layer}: should move {LAYER_MOVES[layer]}")
        print(f"   {key:<36} {metric['value']:>16.6f} {metric['unit']}")
    if "submit_p50_ms" in record:
        print(f"   {'submit_p50_ms':<36} {record['submit_p50_ms']:>16.6f} ms")
    print(f"   {'failed_share':<36} {record['failed_share']:>16.6f} share")
    print(f"   attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for problem in record["problems"]:
        print(f"   PROBLEM {problem}")


def run_all(args) -> int:
    """Every workload in its own subprocess, one at a time (the box has 2 cores)."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    merged = {"schema": 1, "env": environment(args.seed, args.seconds), "smoke": args.smoke,
              "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".e2e_run_") as scratch:
        for name in workloads.WORKLOADS:
            entry = merged["workloads"].setdefault(name, {})
            for mode in modes:
                child_out = os.path.join(scratch, f"{name}.{mode}.json")
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(mode), "--out", child_out]
                if args.smoke:
                    command.append("--smoke")
                if mode and args.trace_out:
                    command += ["--trace-out", f"{args.trace_out}.{name}.jsonl"]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                if done.returncode != 0 or not os.path.exists(child_out):
                    print(f"{name} (trace {mode}) exited with {done.returncode}", file=sys.stderr)
                    status = 1
                    continue
                with open(child_out, encoding="utf-8") as handle:
                    record = json.load(handle)
                kind = "per_layer" if mode else "end_to_end"
                entry[kind] = {key: metric["value"] for key, metric in record["metrics"].items()}
                if not mode:
                    entry["submit_p50_ms"] = record["submit_p50_ms"]
                entry.setdefault("sizes", record["sizes"])
                entry.setdefault("counts", record["counts"])
                entry[f"phases_trace{mode}"] = record["phases"]
                entry["attempted"] = entry.get("attempted", 0) + record["attempted"]
                entry["failed"] = entry.get("failed", 0) + record["failed"]
                entry["correct"] = entry.get("correct", True) and record["correct"]
                if not record["correct"]:
                    status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1)
            handle.write("\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (default: all, "
                        "each in a subprocess)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per run, in replays of about "
                        f"{REPLAY_SECONDS:.0f} s each")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--trace-out", help="write sampled span records here as JSON lines")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one replay; numbers are not reportable")
    parser.add_argument("--out", help="write the full result record (with environment) here")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid names: "
                     f"{', '.join(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          args.trace_out)
    print_record(record)
    if args.out:
        record["env"] = environment(args.seed, args.seconds)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
