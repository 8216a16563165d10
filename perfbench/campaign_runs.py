"""broadcast-cells and traffic-sweep: paper experiments run as campaigns.

A *round* runs each experiment of the workload the way ``repro campaign
run <experiment> --scale quick --store-backend sqlite`` does: default
engine (``auto``), fifo schedule, no shards, retry budget 2, a fresh
SQLite store per experiment.  broadcast-cells uses two worker
processes; traffic-sweep runs serially in this process.  Each round's
records and rows are checked (see :mod:`checks`), and a run repeats
whole rounds until its time is used.

After each round comes a burst of the *hit* phase: the same campaigns
re-run against their now full stores, so every unit is answered from
the store -- what a second ``repro campaign run`` does.  Closed loop,
one campaign per sample; the bursts take ``HIT_SHARE`` of the run's
time, spread over the run so that the machine's slow drift weighs on
them as it weighs on the rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

import checks
from layers import LayerTrace
from measure import (
    check,
    cpu_s,
    peak_rss_mb,
    percentile,
    reap_pool_workers,
    rounds_until,
    time_child,
)

SCALE = "quick"

#: Share of the run's time given to the hit bursts.
HIT_SHARE = 0.15

#: Fresh interpreters timed for ``setup_s`` (median taken).
SETUP_REPEATS = 9

#: What ``setup_s`` times: a fresh interpreter's package import,
#: the campaign declarations and the creation of each store.
SETUP_CODE = """
import os
from repro.campaigns import open_store
from repro.experiments.runner import campaign_for
for experiment in {experiments!r}:
    campaign_for(experiment, {scale!r}, {seed})
    open_store(f"setup-{{os.getpid()}}-{{experiment}}.sqlite").records()
"""


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    experiments: Tuple[str, ...]
    workers: int


BROADCAST_CELLS = CampaignWorkload("broadcast-cells", ("fig1", "table1", "table2"), 2)
TRAFFIC_SWEEP = CampaignWorkload("traffic-sweep", ("fig3",), 1)


@dataclass
class Round:
    """One round's outputs and host measurements."""

    records: Dict[str, List[Any]] = field(default_factory=dict)
    rows: Dict[str, List[Any]] = field(default_factory=dict)
    stores: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    campaign_s: float = 0.0
    aggregate_s: float = 0.0


def run_round(
    workload: CampaignWorkload, specs: Dict[str, Any], directory: Path, trace_dir=None
) -> Round:
    from repro.campaigns import aggregate, open_store, run_campaign
    from repro.experiments.runner import FORMATTERS

    directory.mkdir(parents=True)
    result = Round()
    reap_pool_workers()
    cpu_before, started = cpu_s(), time.perf_counter()
    for experiment, spec in specs.items():
        store = open_store(directory / f"{experiment}.sqlite")
        campaign_started = time.perf_counter()
        records = run_campaign(
            spec,
            workers=workload.workers,
            store=store,
            trace_dir=trace_dir,
            engine="auto",
        )
        aggregate_started = time.perf_counter()
        rows = aggregate(experiment, records)
        result.aggregate_s += time.perf_counter() - aggregate_started
        result.campaign_s += aggregate_started - campaign_started
        FORMATTERS[experiment](rows)
        result.records[experiment], result.rows[experiment] = records, rows
        result.stores[experiment] = store
    reap_pool_workers()
    result.wall_s = time.perf_counter() - started
    result.cpu_s = cpu_s() - cpu_before
    return result


def check_round(
    failures: List[str], specs: Dict[str, Any], rnd: Round
) -> Tuple[Dict[str, int], int, int]:
    """Check one round; returns (program counts, units attempted, failed)."""
    counts = {"units": 0, "delivered": 0, "saturated": 0}
    failed = 0
    for experiment, spec in specs.items():
        units = {unit.unit_hash: unit for unit in spec.units}
        records, rows = rnd.records[experiment], rnd.rows[experiment]
        counts["units"] += len(records)
        failed += sum(1 for record in records if not record.ok)
        checks.check_store(failures, rnd.stores[experiment].path, list(units))
        if experiment == "fig3":
            counts["saturated"] += checks.check_fig3(failures, units, records, rows)
        else:
            counts["delivered"] += checks.check_broadcast_records(
                failures, units, records
            )
        if experiment == "fig1":
            checks.check_fig1(failures, rows)
        elif experiment.startswith("table"):
            checks.check_cv_table(failures, experiment, rows)
    return counts, counts["units"], failed


def hit_phase(
    failures: List[str],
    workload: CampaignWorkload,
    specs: Dict[str, Any],
    rnd: Round,
    seconds: float,
) -> Tuple[List[float], int, float]:
    """Re-answer each campaign from its full store until ``seconds`` pass.

    Returns (per-campaign latencies, units answered, phase wall time).
    """
    from repro.campaigns import aggregate, run_campaign
    from repro.experiments.runner import FORMATTERS

    latencies: List[float] = []
    answered = 0
    mismatched = set()
    order = list(specs)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not latencies:
        experiment = order[len(latencies) % len(order)]
        sample_started = time.perf_counter()
        records = run_campaign(
            specs[experiment],
            workers=workload.workers,
            store=rnd.stores[experiment],
            engine="auto",
        )
        rows = aggregate(experiment, records)
        FORMATTERS[experiment](rows)
        latencies.append(time.perf_counter() - sample_started)
        answered += len(records)
        if rows != rnd.rows[experiment]:
            mismatched.add(experiment)
    wall = time.perf_counter() - started
    for experiment in sorted(mismatched):
        failures.append(f"{experiment}: rows answered from the store differ")
    return latencies, answered, wall


def _spool_metrics(trace_dir: Path, workers: int) -> Dict[str, Tuple[float, str]]:
    """Pool and store figures from the program's own span spool."""
    from repro.obs.trace import read_trace_dir

    durations: Dict[str, List[float]] = {}
    for record in read_trace_dir(trace_dir):
        if record.get("type") == "span":
            durations.setdefault(record["name"], []).append(
                record["end_s"] - record["start_s"]
            )

    def median_ms(name: str) -> float:
        values = durations.get(name)
        return median(values) * 1e3 if values else 0.0

    executed = durations.get("unit.execute", [])
    execute_s = sum(executed)
    campaign_s = sum(durations.get("campaign", []))
    return {
        "campaigns.pool.units": (len(executed), "count"),
        "campaigns.pool.execute_s": (execute_s, "s"),
        "campaigns.pool.idle_s": (workers * campaign_s - execute_s, "s"),
        "campaigns.store.claim_ms": (median_ms("store.try_claim"), "ms"),
        "campaigns.store.append_ms": (median_ms("store.append"), "ms"),
        "campaigns.store.release_ms": (median_ms("store.release"), "ms"),
        "campaigns.store.get_ms": (median_ms("store.get"), "ms"),
    }


def setup_times(workload: CampaignWorkload, seed: int, directory: Path) -> List[float]:
    code = SETUP_CODE.format(experiments=workload.experiments, scale=SCALE, seed=seed)
    return time_child(code, SETUP_REPEATS, directory)


def run(
    workload: CampaignWorkload, seed: int, seconds: float, traced: bool, directory: Path
) -> Dict[str, Any]:
    """One benchmark run; returns the result fields for ``measure.emit``."""
    from repro.campaigns import execute_unit
    from repro.experiments.runner import campaign_for

    failures: List[str] = []
    specs = {e: campaign_for(e, SCALE, seed) for e in workload.experiments}
    attempted = failed = 0
    round_counts: List[Dict[str, int]] = []

    def checked(rnd: Round) -> Round:
        nonlocal attempted, failed
        counts, units, bad = check_round(failures, specs, rnd)
        round_counts.append(counts)
        attempted += units
        failed += bad
        return rnd

    if not traced:
        setup = setup_times(workload, seed, directory)
        rounds: List[Round] = []
        latencies: List[float] = []
        answered, hit_wall = 0, 0.0
        spent: List[float] = []  # each round plus its hit burst
        started = time.perf_counter()
        while rounds_until(seconds, started, spent):
            rnd = checked(run_round(workload, specs, directory / f"round{len(rounds)}"))
            rounds.append(rnd)
            burst = rnd.wall_s * HIT_SHARE / (1.0 - HIT_SHARE)
            samples, units, wall = hit_phase(failures, workload, specs, rnd, burst)
            latencies += samples
            answered += units
            hit_wall += wall
            spent.append(rnd.wall_s + wall)
        metrics = {
            "wall_s": (median([r.wall_s for r in rounds]), "s"),
            "cpu_s": (median([r.cpu_s for r in rounds]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "hit_qps": (answered / hit_wall, "answers/s"),
            "hit_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "hit_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
            "miss_s": (median([r.campaign_s for r in rounds]), "s"),
        }
        print(
            f"{workload.name}: {len(rounds)} round(s) of"
            f" {[round(r.wall_s, 3) for r in rounds]} s, {len(latencies)} hit"
            f" samples, setup samples {[round(s, 3) for s in setup]} s"
        )
        report = ""
    else:
        base = checked(run_round(workload, specs, directory / "untraced"))
        spool = directory / "spool"
        trace = LayerTrace()
        in_process = workload.workers == 1
        if in_process:
            with trace:
                rnd = checked(run_round(workload, specs, directory / "traced", spool))
        else:
            rnd = checked(run_round(workload, specs, directory / "traced", spool))
            # Workers are separate processes: time the units' layers by
            # executing every unit once more here, serially.
            with trace:
                for spec in specs.values():
                    for unit in spec.units:
                        execute_unit(unit, engine="auto")
        metrics = _spool_metrics(spool, workload.workers)
        metrics["campaigns.aggregate_s"] = (rnd.aggregate_s, "s")
        metrics.update(trace.layer_metrics())
        report = trace.report()
        trace.write(directory.parent / f"spans-{workload.name}.jsonl")
        print(
            f"tracing overhead ({workload.name}): traced wall {rnd.wall_s:.4f} s"
            f" - untraced wall {base.wall_s:.4f} s = {rnd.wall_s - base.wall_s:+.4f} s"
        )
        if not in_process:
            print(
                f"  (layer times below come from re-executing all"
                f" {sum(len(s) for s in specs.values())} units in this process)"
            )

    counts = dict(round_counts[-1])
    if traced:
        counts.update(trace.counts())
    for later in round_counts[1:]:
        check(
            failures,
            later == round_counts[0],
            f"program counts differ between rounds: {round_counts[0]} vs {later}",
        )
    return {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": counts,
        "report": report,
    }
