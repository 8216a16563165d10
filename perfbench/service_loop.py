"""estimator-service: ``repro serve`` driven by one closed-loop client.

The client holds one kept-alive HTTP/1.1 connection, as HTTP client
libraries do, and sends its next request only when the previous reply
has been read.

* **Miss phase** -- ``MISS_ROUNDS`` rounds, each of distinct first-time
  queries (broadcast and traffic points made from the seed): send them
  all, then redeem every ticket through ``/v1/result``.  A round's time
  runs from its first query until its last ticket redeemed as a hit.
* **Hit phase** -- cycle over every query the miss phase asked, for the
  rest of the run's time (at least a quarter of it), reading
  ``/v1/stats`` every ``STATS_EVERY`` answers as a dashboard would.
  Bounded by time, not by count, so it keeps its length when answers
  get faster.

Each answer's result must equal the record this process computes for
the same unit through ``execute_unit``; at the end ``/v1/stats`` must
count exactly the queries and redeems sent.

The untraced run boots ``repro serve`` as a child process (its boot is
``setup_s``).  The traced run first repeats that session, for the
tracing overhead, then serves the same loop from an
``EstimatorServer`` inside this process so :class:`layers.LayerTrace`
can time the service's own layers.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from layers import LayerTrace
from measure import (
    check,
    child_env,
    cpu_s,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
)

MISS_ROUNDS = 3
BROADCASTS_PER_ROUND = 6
TRAFFIC_PER_ROUND = 2
STATS_EVERY = 25
BOOTS = 7
BOOT_TIMEOUT_S = 60.0

#: The batch-means budget of ``repro fig3 --scale quick`` (the service's
#: own default is the full-scale budget, far longer per miss).
TRAFFIC_PARAMS = {
    "batch_size": 15,
    "num_batches": 5,
    "discard": 1,
    "max_sim_time_us": 30000.0,
}


def make_queries(seed: int) -> List[List[Dict[str, Any]]]:
    """``MISS_ROUNDS`` lists of distinct query documents, from the seed.

    Broadcast points sit on the 8x8x8 mesh, each from its own random
    source (the replication index picks it); two per round also ask for
    the step-barrier twin.  Traffic points sit on
    the 4x4x4 mesh, each with its own seed: one traffic point's cost
    swings several-fold with its seed, and points that shared one seed
    would swing together.
    """
    rng = random.Random(seed)
    combos = [(a, load) for a in ("RD", "EDN", "DB", "AB") for load in (1.0, 2.0, 4.0)]
    rng.shuffle(combos)
    rounds = []
    for r in range(MISS_ROUNDS):
        docs: List[Dict[str, Any]] = []
        for i in range(BROADCASTS_PER_ROUND):
            doc = {
                "algorithm": ("RD", "EDN", "DB", "AB")[i % 4],
                "dims": [8, 8, 8],
                "length_flits": rng.choice((32, 64, 100)),
                "seed": seed,
                "replication": r * BROADCASTS_PER_ROUND + i,
            }
            if i >= 4:  # also ask for the step-barrier twin, as Tables 1-2 do
                doc["params"] = {"barrier": True}
            docs.append(doc)
        for algorithm, load in combos[r * TRAFFIC_PER_ROUND:(r + 1) * TRAFFIC_PER_ROUND]:
            docs.append(
                {
                    "algorithm": algorithm,
                    "dims": [4, 4, 4],
                    "length_flits": 32,
                    "load": load,
                    "seed": rng.randrange(2**31),
                    "params": TRAFFIC_PARAMS,
                }
            )
        rounds.append(docs)
    return rounds


class Client:
    """One kept-alive connection; every call is timed and counted."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.sent = {"query": 0, "result": 0, "stats": 0}

    def call(self, op: str, method: str, path: str, doc=None) -> Tuple[Dict[str, Any], float]:
        """Send one request; a reply other than 200 comes back as ``status: http-<code>``."""
        body = None if doc is None else json.dumps(doc).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - started
        self.sent[op] += 1
        if response.status != 200:
            return {"status": f"http-{response.status}", "error": payload.decode()}, elapsed
        return json.loads(payload), elapsed

    def close(self) -> None:
        self.conn.close()


class Session:
    """One service session: miss rounds, then the hit phase."""

    def __init__(self, client: Client, expected: Dict[str, Dict[str, Any]]):
        self.client = client
        self.expected = expected
        self.failures: List[str] = []
        self.miss_s: List[float] = []
        self.hits: List[float] = []
        self.stats_s: List[float] = []
        self.answers_seen: List[int] = []
        self.hit_wall = 0.0
        self.bad_answers = 0

    def _answered(self, answer: Dict[str, Any]) -> bool:
        """True for a hit whose result equals the directly computed record."""
        if answer.get("status") != "hit":
            return False
        if answer["result"] != self.expected[answer["unit"]]:
            self.failures.append(f"{answer['unit'][:12]}: result differs from execute_unit")
        return True

    def miss_round(self, docs: List[Dict[str, Any]]) -> None:
        started = time.perf_counter()
        tickets = []
        for doc in docs:
            answer, _ = self.client.call("query", "POST", "/v1/query", doc)
            if answer["status"] != "pending":
                self.failures.append(f"first query answered {answer['status']}, not pending")
                self.bad_answers += 1
                continue
            tickets.append(answer["ticket"])
        for ticket in tickets:
            while True:
                answer, _ = self.client.call("result", "GET", f"/v1/result?ticket={ticket}")
                if self._answered(answer):
                    break
                if answer["status"] != "pending":
                    self.failures.append(f"ticket {ticket[:12]} answered {answer['status']}")
                    self.bad_answers += 1
                    break
                time.sleep(0.002)
        self.miss_s.append(time.perf_counter() - started)

    def hit_phase(self, docs: List[Dict[str, Any]], seconds: float) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(self.hits) < len(docs):
            doc = docs[len(self.hits) % len(docs)]
            answer, elapsed = self.client.call("query", "POST", "/v1/query", doc)
            if not self._answered(answer):
                self.failures.append(f"hit phase answered {answer['status']}")
                self.bad_answers += 1
            self.hits.append(elapsed)
            if len(self.hits) % STATS_EVERY == 0:
                stats, elapsed = self.client.call("stats", "GET", "/v1/stats")
                self.stats_s.append(elapsed)
                self.answers_seen.append(stats.get("answers", 0))
        self.hit_wall = time.perf_counter() - started

    def final_stats(self) -> Dict[str, Any]:
        stats, _ = self.client.call("stats", "GET", "/v1/stats")
        if "answers" not in stats:
            raise RuntimeError(f"/v1/stats failed: {stats}")
        sent = self.client.sent["query"] + self.client.sent["result"]
        check(
            self.failures,
            stats["answers"] == sent,
            f"/v1/stats counts {stats['answers']} answers for {sent} sent",
        )
        return stats


def expected_records(rounds: List[List[Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Each query's record, computed here through ``execute_unit``."""
    from repro.campaigns import execute_unit
    from repro.service.estimator import spec_for_query

    expected = {}
    for docs in rounds:
        for doc in docs:
            spec = spec_for_query(doc)
            expected[spec.unit_hash] = execute_unit(spec, engine="auto").result
    # The service answers with the stored JSON, so compare JSON forms.
    return json.loads(json.dumps(expected))


def boot(store: Path, cwd: Path) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; return (process, port, seconds until it answers)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store), "--port", "0"],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                conn.request("GET", "/v1/status")
                response = conn.getresponse()
                response.read()  # unread bytes would make close() reset
                ok = response.status == 200
                conn.close()
                if ok:
                    return process, port, time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                raise RuntimeError("repro serve did not answer /v1/status")
            time.sleep(0.005)
    except BaseException:
        stop(process)
        raise


def stop(process: subprocess.Popen) -> None:
    """Drain the service (SIGTERM) and wait for it to exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def _session(
    port: int, rounds, expected, seconds: float, server_pid: Optional[int]
) -> Tuple["Session", Dict[str, Any], float, float]:
    """Run both phases; returns (session, final stats, miss CPU s, peak MB)."""
    client = Client("127.0.0.1", port)
    session = Session(client, expected)
    try:
        started = time.perf_counter()
        cpu_before = cpu_s() + (proc_cpu_s(server_pid) if server_pid else 0.0)
        for docs in rounds:
            session.miss_round(docs)
        miss_cpu = cpu_s() + (proc_cpu_s(server_pid) if server_pid else 0.0) - cpu_before
        remaining = max(seconds - (time.perf_counter() - started), seconds / 4)
        session.hit_phase([doc for docs in rounds for doc in docs], remaining)
        stats = session.final_stats()
        peak = proc_peak_rss_mb(server_pid) if server_pid else 0.0
    finally:
        client.close()
    return session, stats, miss_cpu, peak


def _child_session(directory: Path, rounds, expected, seconds: float):
    """Boot ``BOOTS`` services (the last one serves); run the session."""
    boots = []
    for i in range(BOOTS):
        process, port, boot_s = boot(directory / f"service-{i}.sqlite", directory)
        boots.append(boot_s)
        if i < BOOTS - 1:
            stop(process)
    try:
        result = _session(port, rounds, expected, seconds, process.pid)
    finally:
        stop(process)
    return boots, result


def run(seed: int, seconds: float, traced: bool, directory: Path) -> Dict[str, Any]:
    rounds = make_queries(seed)
    expected = expected_records(rounds)
    # A traced run needs this child session only for its miss-phase
    # wall time (the untraced side of the tracing overhead).
    boots, (session, stats, miss_cpu, server_peak) = _child_session(
        directory, rounds, expected, 0.0 if traced else seconds
    )
    failures = list(session.failures)
    attempted = sum(session.client.sent.values())
    counts = {"queries": sum(len(docs) for docs in rounds), "units": len(expected)}
    if not traced:
        metrics = {
            "wall_s": (sum(session.miss_s), "s"),
            "cpu_s": (miss_cpu, "s"),
            "setup_s": (median(boots), "s"),
            "peak_rss_mb": (server_peak, "MB"),
            "hit_qps": (len(session.hits) / session.hit_wall, "answers/s"),
            "hit_p50_ms": (percentile(session.hits, 0.50) * 1e3, "ms"),
            "hit_p95_ms": (percentile(session.hits, 0.95) * 1e3, "ms"),
            "miss_s": (median(session.miss_s), "s"),
        }
        print(
            f"estimator-service: {len(session.hits)} hits over {session.hit_wall:.2f} s,"
            f" boots {[round(b, 4) for b in boots]},"
            f" service p50 {stats['answer_latency_s']['p50'] * 1e3:.3f} ms"
            f" vs client p50 {percentile(session.hits, 0.5) * 1e3:.3f} ms"
        )
        return {
            "failures": failures,
            "attempted": attempted,
            "failed": session.bad_answers,
            "metrics": metrics,
            "counts": counts,
            "report": "",
        }

    from repro.campaigns import open_store
    from repro.service import EstimatorServer, EstimatorService

    untraced_wall = sum(session.miss_s)
    with LayerTrace() as trace:
        service = EstimatorService(open_store(directory / "traced.sqlite"), engine="auto")
        server = EstimatorServer(service, port=0).start()
        try:
            port = int(server.url.rsplit(":", 1)[1])
            traced, traced_stats, _, _ = _session(port, rounds, expected, seconds, None)
        finally:
            server.close()
    failures += traced.failures
    attempted += sum(traced.client.sent.values())
    traced_wall = sum(traced.miss_s)
    print(
        f"tracing overhead (estimator-service): traced miss-phase wall"
        f" {traced_wall:.4f} s - untraced {untraced_wall:.4f} s"
        f" = {traced_wall - untraced_wall:+.4f} s"
    )
    answer_p50_ms = traced_stats["answer_latency_s"]["p50"] * 1e3
    client_p50_ms = percentile(traced.hits, 0.50) * 1e3
    spec_calls = trace.calls["service.spec"]
    store_ms = {
        op: median(trace.durations(f"campaigns.store.{op}") or [0.0]) * 1e3
        for op in ("try_claim", "append", "release", "get")
    }
    executed = trace.total["campaigns.pool.unit"]
    metrics = {
        "campaigns.pool.units": (trace.calls["campaigns.pool.unit"], "count"),
        "campaigns.pool.execute_s": (executed, "s"),
        "campaigns.pool.idle_s": (traced_wall - executed, "s"),
        "campaigns.store.claim_ms": (store_ms["try_claim"], "ms"),
        "campaigns.store.append_ms": (store_ms["append"], "ms"),
        "campaigns.store.release_ms": (store_ms["release"], "ms"),
        "campaigns.store.get_ms": (store_ms["get"], "ms"),
        **trace.layer_metrics(),
        "service.answer_p50_ms": (answer_p50_ms, "ms"),
        "service.http_ms": (client_p50_ms - answer_p50_ms, "ms"),
        "service.spec_us": (
            trace.total["service.spec"] / spec_calls * 1e6 if spec_calls else 0.0,
            "us",
        ),
        "service.stats_ms": (median(traced.stats_s) * 1e3, "ms"),
        "service.answers": (traced_stats["answers"], "count"),
        "service.simulate_s": (median(trace.durations("service.simulate")), "s"),
    }
    print(
        f"  /v1/stats: {median(traced.stats_s) * 1e3:.3f} ms median per call,"
        f" {traced.answers_seen[-1] if traced.answers_seen else 0} answers at the last poll"
    )
    trace.write(directory.parent / "spans-estimator-service.jsonl")
    counts.update(trace.counts())
    return {
        "failures": failures,
        "attempted": attempted,
        "failed": session.bad_answers + traced.bad_answers,
        "metrics": metrics,
        "counts": counts,
        "report": trace.report(),
    }
