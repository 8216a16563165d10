"""Steadiness check: run workloads back to back and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 1                  # every workload once
    python3 perfbench/steady.py --runs 5                  # every workload, seed 0
    python3 perfbench/steady.py --workloads traffic-sweep --seeds 0,1,2,3,4
    python3 perfbench/steady.py --runs 3 --trace 1        # per-layer counts

Each run is ``run.py`` in a child process; its line shows the
operations attempted and failed and every metric with its unit, then
the run's ``counts``.  For every end-to-end metric
it prints the median, the quartiles and the relative spread
(``(q3 - q1) / median``, quartiles as ``statistics.quantiles(n=4)``
gives them) next to the metric's bound from ``BENCHMARK.json``; a
spread above a third of its bound is flagged ``WIDE``.  The command
fails (exit 1) if a run fails its checks, or if the program's counts
(the ``counts`` line each run prints) differ between runs that share a
seed: for one seed they must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from measure import ROOT, spread
from run import END_TO_END, PER_LAYER, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One child run; returns (result object, counts dict)."""
    process = subprocess.run(
        [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(process.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({process.returncode})")
    counts = next(
        json.loads(line[len("counts "):]) for line in lines if line.startswith("counts ")
    )
    return json.loads(lines[-1]), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", default=None, help="comma list (default: 0 each run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[section]}
        if listed != declared:
            raise SystemExit(f"BENCHMARK.json {section} does not match run.py")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds else [0] * args.runs
    )
    ok = True
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = defaultdict(list)
        counts_by_seed: Dict[int, List[dict]] = defaultdict(list)
        shares = set()
        for seed in seeds:
            result, counts = run_once(workload, seed, seconds, args.trace)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            counts_by_seed[seed].append(counts)
            shares.add(result["failed"] / result["attempted"])
            ok &= result["correct"]
            print(
                f"{workload} seed {seed}: attempted={result['attempted']}"
                f" failed={result['failed']} correct={result['correct']} "
                + " ".join(
                    f"{n}={m['value']:.6g} {m['unit']}"
                    for n, m in result["metrics"].items()
                )
                + f"\n  counts {json.dumps(counts, sort_keys=True)}",
                flush=True,
            )
        print(f"\n{workload}: {len(seeds)} runs, failed share(s) {sorted(shares)}")
        print(f"  {'metric':<36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            mid, q1, q3, rel = spread(series)
            bound = bounds.get(name)
            flag = " WIDE" if args.trace == 0 and bound and rel > bound / 3 else ""
            bound_text = f"{bound:.2f}" if bound else "-"
            print(f"  {name:<36s} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3f} {bound_text:>6s}{flag}")
        for seed, runs in counts_by_seed.items():
            if any(c != runs[0] for c in runs[1:]):
                ok = False
                print(f"  COUNTS DIFFER for seed {seed}: {runs}")
        if len(shares) > 1:
            ok = False
            print("  FAILED SHARE DIFFERS between runs")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
