"""Layer spans for the traced runs, recorded from outside the program.

:class:`LayerTrace` patches the public entry points of each program
layer with thin wrappers that open a span around every call.  Spans
stay in memory (one tuple each) until :meth:`LayerTrace.write` dumps
them as JSON lines at the end of the run; per-layer totals, self times
and call counts are folded as the spans close.  A layer's *self* time
is its inclusive time minus the time its child spans (calls into other
traced layers made from inside it) cover.

The simulation kernel already counts its own work in
``Environment.profile()``; the ``sim.engine`` span reads that profile
before and after each ``Environment.run`` and keeps the differences.
``run_batch_broadcasts`` accepts a ``profile`` argument for its
batched-versus-fallback counts, which the ``core.batch`` span supplies
when the caller did not.

Nothing here changes what the program computes: every wrapper calls
the original with the original arguments (plus that ``profile``
observer) and returns its result untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTrace"]

#: Kernel counters summed over every ``Environment.run``.
_PROFILE_SUMS = (
    "dispatched",
    "timeout_pool_hits",
    "timeout_pool_misses",
    "channel_waits",
    "worm_hops_batched",
    "worm_hops_slow",
)


class LayerTrace:
    """In-memory span recorder for the program's layers.

    Use as a context manager: entering patches the layers, leaving
    restores every original attribute.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.kernel: Counter = Counter()
        self.heap_peak = 0
        self.reduce_s = 0.0
        self.batch_sources: Counter = Counter()
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``layer``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else None
        frame = [0.0, span_id]  # [time covered by child spans, id]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            elapsed = ended - started
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.total[layer] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                self.calls[layer] += 1
                self.spans.append((span_id, parent, layer, started, ended))

    def durations(self, layer: str) -> List[float]:
        """Every recorded duration of ``layer`` (seconds)."""
        return [end - start for _, _, name, start, end in self.spans if name == layer]

    # -- patching -------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        self._restore.append((owner, attr, None if inherited else original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as the span ``layer``."""
        self._patch(
            owner,
            attr,
            lambda original: lambda *a, **k: self.call(layer, original, *a, **k),
        )

    def __enter__(self) -> "LayerTrace":
        from repro.campaigns import pool
        from repro.campaigns.store import SqliteStore
        from repro.core import batch_broadcast
        from repro.core.base import BroadcastAlgorithm
        from repro.core.executors import EventDrivenExecutor
        from repro.experiments import common
        from repro.network.network import NetworkSimulator
        from repro.service import estimator
        from repro.sim.engine import Environment
        from repro.sim.rng import RandomStreams
        from repro.traffic.workload import MixedTrafficSimulation

        self.wrap(pool, "execute_unit", "campaigns.pool.unit")
        for op in ("try_claim", "append", "release", "get"):
            self.wrap(SqliteStore, op, f"campaigns.store.{op}")
        self.wrap(BroadcastAlgorithm, "schedule", "core.schedule")
        self._patch(batch_broadcast, "run_batch_broadcasts", self._batch)
        self.wrap(batch_broadcast, "plan_broadcast", "sim.batch.plan")
        self.wrap(batch_broadcast, "sweep_broadcasts", "sim.batch.sweep")
        self.wrap(EventDrivenExecutor, "execute", "core.executors.event")
        self.wrap(common, "run_barrier_broadcasts", "core.executors.barrier")
        self.wrap(NetworkSimulator, "__init__", "network.build")
        self.wrap(RandomStreams, "__getitem__", "sim.rng.stream")
        self.wrap(MixedTrafficSimulation, "__init__", "traffic.init")
        self._patch(MixedTrafficSimulation, "run", self._traffic_run)
        self._patch(Environment, "run", self._engine_run)
        self.wrap(estimator, "run_campaign", "service.simulate")
        self.wrap(estimator, "spec_for_query", "service.spec")
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers with observers -----------------------------------------------
    def _batch(self, original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            from repro.obs.simprof import SimProfile

            profile = kwargs.get("profile")
            if profile is None:
                profile = kwargs["profile"] = SimProfile()
            before = (profile.batch_sources_batched, profile.batch_sources_fallback)
            result = self.call("core.batch", original, *args, **kwargs)
            with self._lock:
                self.batch_sources["batched"] += (
                    profile.batch_sources_batched - before[0]
                )
                self.batch_sources["fallback"] += (
                    profile.batch_sources_fallback - before[1]
                )
            return result

        return traced

    def _engine_run(self, original: Callable) -> Callable:
        def traced(env: Any, *args: Any, **kwargs: Any) -> Any:
            before = env.profile()
            try:
                return self.call("sim.engine.run", original, env, *args, **kwargs)
            finally:
                after = env.profile()
                with self._lock:
                    for key in _PROFILE_SUMS:
                        self.kernel[key] += after[key] - before[key]
                    self.heap_peak = max(self.heap_peak, after["heap_peak"])

        return traced

    def _traffic_run(self, original: Callable) -> Callable:
        def traced(sim: Any, *args: Any, **kwargs: Any) -> Any:
            engine_before = self.total["sim.engine.run"]
            started = time.perf_counter()
            try:
                return self.call("traffic.run", original, sim, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                engine = self.total["sim.engine.run"] - engine_before
                with self._lock:
                    self.reduce_s += elapsed - engine

        return traced

    # -- results -----------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """The simulation-side per-layer metrics (names as in BENCHMARK.json)."""
        k = self.kernel
        batched, fallback = self.batch_sources["batched"], self.batch_sources["fallback"]
        requested = batched + fallback
        run_s = self.total["sim.engine.run"]
        hops = k["worm_hops_batched"] + k["worm_hops_slow"]
        pool_hits = k["timeout_pool_hits"] + k["timeout_pool_misses"]
        return {
            "core.schedule_calls": (self.calls["core.schedule"], "count"),
            "core.schedule_s": (self.total["core.schedule"], "s"),
            "core.batch.sources_batched": (batched, "count"),
            "core.batch.sources_fallback": (fallback, "count"),
            "core.batch.batched_ratio": (batched / requested if requested else 0.0, "ratio"),
            "sim.batch.plan_s": (self.total["sim.batch.plan"], "s"),
            "sim.batch.sweep_s": (self.total["sim.batch.sweep"], "s"),
            "core.executors.event_s": (self.total["core.executors.event"], "s"),
            "core.executors.barrier_s": (self.total["core.executors.barrier"], "s"),
            "network.builds": (self.calls["network.build"], "count"),
            "network.build_s": (self.total["network.build"], "s"),
            "sim.rng.streams": (self.calls["sim.rng.stream"], "count"),
            "sim.rng.stream_s": (self.total["sim.rng.stream"], "s"),
            "traffic.init_s": (self.total["traffic.init"], "s"),
            "traffic.run_s": (self.total["traffic.run"], "s"),
            "sim.engine.run_s": (run_s, "s"),
            "sim.engine.events": (k["dispatched"], "count"),
            "sim.engine.events_per_s": (k["dispatched"] / run_s if run_s else 0.0, "events/s"),
            "sim.engine.heap_peak": (self.heap_peak, "count"),
            "sim.engine.timeout_pool_hit_ratio": (
                k["timeout_pool_hits"] / pool_hits if pool_hits else 0.0,
                "ratio",
            ),
            "network.wormhole.batched_ratio": (
                k["worm_hops_batched"] / hops if hops else 0.0,
                "ratio",
            ),
            "sim.resources.channel_waits": (k["channel_waits"], "count"),
            "metrics.reduce_s": (self.reduce_s, "s"),
        }

    def counts(self) -> Dict[str, int]:
        """The program's own counts, which must repeat exactly per seed."""
        return {
            "core.schedule_calls": self.calls["core.schedule"],
            "core.batch.sources_fallback": self.batch_sources["fallback"],
            "network.builds": self.calls["network.build"],
            "sim.engine.events": self.kernel["dispatched"],
            "sim.rng.streams": self.calls["sim.rng.stream"],
        }

    def report(self) -> str:
        """One line per layer: calls, inclusive time and self time."""
        lines = [f"  {'layer':<28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for layer in sorted(self.total, key=lambda name: -self.self_s[name]):
            lines.append(
                f"  {layer:<28s} {self.calls[layer]:>9d}"
                f" {self.total[layer]:>10.4f} {self.self_s[layer]:>10.4f}"
            )
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "layer": layer,
                         "start_s": start, "end_s": end}
                    )
                    + "\n"
                )
