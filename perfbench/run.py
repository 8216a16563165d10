"""End-to-end benchmark of the broadcast-latency reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload broadcast-cells --seed 0 --seconds 20 --trace 0

Workloads: ``broadcast-cells`` (Fig. 1 and Tables 1-2 as a two-worker
campaign), ``traffic-sweep`` (Fig. 3, serial) and ``estimator-service``
(``repro serve`` under one closed-loop client).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` is a separate run that prints
the per-layer metrics, each layer's self time and the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 only when
every output check passed; 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import sys

import measure

#: End-to-end metrics: name -> unit (every workload prints all of them).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hit_qps": "answers/s",
    "hit_p50_ms": "ms",
    "hit_p95_ms": "ms",
    "miss_s": "s",
}

#: Per-layer metrics: name -> unit.  A layer a workload does not reach
#: reads 0 there (e.g. the batch engine on traffic-sweep).
PER_LAYER = {
    "campaigns.pool.units": "count",
    "campaigns.pool.execute_s": "s",
    "campaigns.pool.idle_s": "s",
    "campaigns.store.claim_ms": "ms",
    "campaigns.store.append_ms": "ms",
    "campaigns.store.release_ms": "ms",
    "campaigns.store.get_ms": "ms",
    "campaigns.aggregate_s": "s",
    "core.schedule_calls": "count",
    "core.schedule_s": "s",
    "core.batch.sources_batched": "count",
    "core.batch.sources_fallback": "count",
    "core.batch.batched_ratio": "ratio",
    "sim.batch.plan_s": "s",
    "sim.batch.sweep_s": "s",
    "core.executors.event_s": "s",
    "core.executors.barrier_s": "s",
    "network.builds": "count",
    "network.build_s": "s",
    "sim.rng.streams": "count",
    "sim.rng.stream_s": "s",
    "traffic.init_s": "s",
    "traffic.run_s": "s",
    "sim.engine.run_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "events/s",
    "sim.engine.heap_peak": "count",
    "sim.engine.timeout_pool_hit_ratio": "ratio",
    "network.wormhole.batched_ratio": "ratio",
    "sim.resources.channel_waits": "count",
    "metrics.reduce_s": "s",
    "service.answer_p50_ms": "ms",
    "service.http_ms": "ms",
    "service.spec_us": "us",
    "service.stats_ms": "ms",
    "service.answers": "count",
    "service.simulate_s": "s",
}

WORKLOADS = ("broadcast-cells", "traffic-sweep", "estimator-service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measure.require_program()

    import campaign_runs
    import service_loop

    traced = bool(args.trace)
    with measure.run_dir(args.workload) as directory:
        if args.workload == "estimator-service":
            result = service_loop.run(args.seed, args.seconds, traced, directory)
        else:
            workload = {
                "broadcast-cells": campaign_runs.BROADCAST_CELLS,
                "traffic-sweep": campaign_runs.TRAFFIC_SWEEP,
            }[args.workload]
            result = campaign_runs.run(workload, args.seed, args.seconds, traced, directory)

    wanted = PER_LAYER if traced else END_TO_END
    measured = result["metrics"]
    for name, (_, unit) in measured.items():
        if wanted.get(name) != unit:
            raise RuntimeError(f"metric {name} ({unit}) is not declared so")
    metrics = {
        name: (measured.get(name, (0.0, unit))[0], unit) for name, unit in wanted.items()
    }
    if result["report"]:
        print(result["report"])
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not result["failures"]
    measure.emit(correct, result["attempted"], result["failed"], metrics, result["counts"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
