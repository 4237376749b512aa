"""The ``serve_mix`` workload: ``repro serve`` under a read/write mix.

The server runs in its own process with its default configuration (two
worker processes, result cache on, no budget).  Set-up spawns it, waits
for ``/healthz``, installs the run's generation-0 relations with three
``POST /mutate`` calls and runs every query once.  The load then comes
from two keep-alive connections of this process.  The reader sends rounds
of 100 requests: Zipf(1.2) reads of the eight serving queries and, at
fixed positions, a write that it hands to the writer's connection without
waiting for it, so each write overlaps the reads that follow it.  The
writer sends its writes one at a time, in order: each swaps one of R, S
or T for its next seeded variant.  A round ends when its writes have been
acknowledged.

Responses are kept as raw bytes during the window and checked after it:
each must equal the dict-join answer on a generation live between its
send and receive.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import select
import signal
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from inputs import (
    SERVING_QUERIES,
    SERVING_SCHEMES,
    client_schedule,
    generation_state,
    mutation_plan,
    serving_variants,
)
from measure import OUT_DIR, Tracer, median, percentile, vm_hwm_mb
from oracles import evaluate_query, live_generations

#: Server spawns per run; ``setup_s`` reports their median.  A spawn takes
#: about 0.3 s, so five keep the median steady at little cost.
SETUP_REPEATS = 5

#: ``latency_tail_ms`` percentile.  ``project[A, C, D](R * S * T)`` is 3 of
#: every 100 requests and misses the cache on nearly every read, since each
#: write invalidates one of its operands; it is the slowest cluster, and p99
#: sits inside it, with about 100 samples beyond it at a 25 s run.  p99.8,
#: the highest percentile with 10 samples beyond it, caught the host's rare
#: stalls instead and spread by 0.30 over ten runs.
TAIL_PERCENTILE = 99

#: How long the server may take to print its address and answer /healthz.
START_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve --port 0`` process and its workers."""

    def __init__(self, root: str, log_path: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self.worker_pids: List[int] = []
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = perf_counter() + START_TIMEOUT_S
        buffered = b""
        stream = self.process.stdout
        while perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        self.stop()
        raise RuntimeError(f"repro serve did not report its address: {buffered[-500:]!r}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def wait_healthy(self) -> None:
        deadline = perf_counter() + START_TIMEOUT_S
        while True:
            conn = self.connect()
            try:
                status, _ = request(conn, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            sleep(0.01)

    def stop(self) -> None:
        """SIGINT the front, wait, then make sure no worker outlives it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = perf_counter() + 30
        while any(os.path.exists(f"/proc/{pid}") for pid in self.worker_pids):
            if perf_counter() > deadline:
                break
            sleep(0.02)
        self.process.stdout.close()
        self._log.close()


def request(conn: http.client.HTTPConnection, method: str, path: str, body: Optional[bytes] = None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def stats(server: Server) -> Dict:
    conn = server.connect()
    status, body = request(conn, "GET", "/stats")
    conn.close()
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(body)


def plan_builds(snapshot: Dict) -> int:
    return sum(
        session.get("plan_builds", 0)
        for worker in snapshot["pool"]["workers"]
        for session in worker["sessions"].values()
    )


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> Dict:
    variants = serving_variants(seed)
    mutate_bodies = {
        (name, v): json.dumps({"name": name, "rows": rows}).encode()
        for name, rows in variants.items()
        for v, rows in enumerate(rows)
    }
    query_bodies = [json.dumps({"query": text}).encode() for text, _, _ in SERVING_QUERIES]
    tracer = Tracer(trace)
    log_path = os.path.join(OUT_DIR, f"serve-{seed}.log")
    wrong: List[str] = []  # responses the oracle rejects
    errors: List[str] = []  # non-200 responses, overflows, stale serves
    failed = 0
    warm_records = []

    setups = []
    server: Optional[Server] = None
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            root_span = tracer.open("setup", request=f"setup{rep}")
            start = perf_counter()
            span = tracer.open("serve.spawn", root_span, f"setup{rep}")
            server = Server(root, log_path)
            server.wait_healthy()
            tracer.close(span)
            conn = server.connect()
            span = tracer.open("server.mutate", root_span, f"setup{rep}")
            for name in ("R", "S", "T"):
                status, body = request(conn, "POST", "/mutate", mutate_bodies[(name, 0)])
                if status != 200:
                    raise RuntimeError(f"installing {name} answered {status}: {body[:200]!r}")
            tracer.close(span)
            for q, payload in enumerate(query_bodies):
                span = tracer.open("server.query", root_span, f"setup{rep}")
                status, body = request(conn, "POST", "/query", payload)
                warm_records.append((q, status, body))
                tracer.close(span)
            setups.append(perf_counter() - start)
            tracer.close(root_span)
            conn.close()
            server.worker_pids = [w["pid"] for w in stats(server)["pool"]["workers"]]

        before = stats(server)
        window = _drive(server, seed, seconds, trace, tracer, query_bodies, mutate_bodies)
        after = stats(server)
        server.worker_pids = [w["pid"] for w in after["pool"]["workers"]]
        peak_rss = vm_hwm_mb(server.process.pid) + sum(vm_hwm_mb(p) for p in server.worker_pids)
    finally:
        if server is not None:
            server.stop()

    # -- checks, after the window ------------------------------------------
    records, mutations, elapsed = window["records"], window["mutations"], window["elapsed"]
    sends = [m[0] for m in mutations]
    acks = [m[1] for m in mutations]
    answers: Dict[Tuple[int, Tuple[int, int, int]], frozenset] = {}
    states = [generation_state(g) for g in range(len(mutations) + 1)]

    def answer(q: int, state: Tuple[int, int, int]) -> frozenset:
        _text, output, terms = SERVING_QUERIES[q]
        names = sorted({t if isinstance(t, str) else t[0] for t in terms})
        key = (q, tuple(state["RST".index(n)] if n in names else -1 for n in "RST"))
        if key not in answers:
            relations = {n: variants[n][state["RST".index(n)]] for n in names}
            answers[key] = evaluate_query(output, terms, SERVING_SCHEMES, relations)
        return answers[key]

    verdicts: Dict[Tuple, Optional[Tuple[str, str]]] = {}

    def check_query(q: int, status: int, body: bytes, live) -> Optional[Tuple[str, str]]:
        """``None`` if the response is right, else ``("errors"|"wrong", why)``."""
        if status != 200:
            return "errors", f"status {status}: {body[:200]!r}"
        parsed = json.loads(body)
        if parsed.get("spill_overflows", 0):
            return "errors", "spill_overflows > 0"
        output = SERVING_QUERIES[q][1]
        columns = parsed["columns"]
        if sorted(columns) != sorted(output):
            return "wrong", f"columns {columns}, expected {list(output)}"
        order = [columns.index(a) for a in output]
        got = frozenset(tuple(row[i] for i in order) for row in parsed["rows"])
        if len(got) != len(parsed["rows"]) or parsed["rowcount"] != len(got):
            return "wrong", "duplicate rows or a wrong rowcount"
        low, high = live
        for g in range(low, high + 1):
            if got == answer(q, states[g]):
                return None
        stale = [g for g in range(len(states)) if got == answer(q, states[g])]
        return "wrong", (
            f"rows match no generation live in [{low}, {high}] but {stale[-3:]} "
            f"(cached={parsed.get('cached')}, worker={parsed.get('worker')}, "
            f"replans={parsed.get('replans')}, rowcount={parsed['rowcount']})"
        )

    outcome = {"wrong": wrong, "errors": errors}
    for q, status, body in warm_records:
        problem = check_query(q, status, body, (0, 0))
        if problem:
            outcome[problem[0]].append(f"warm {SERVING_QUERIES[q][0]}: {problem[1]}")

    latencies: List[float] = []
    hits, misses, worker_ms, overhead, sizes = [], [], [], [], []
    traced_ms, untraced_ms = [], []  # read times, span work included, by round kind
    for record in records:
        kind, q, t_send, t_recv, status, body, traced, outer = record
        latencies.append(t_recv - t_send)
        if kind == "query":
            (traced_ms if traced else untraced_ms).append(outer)
        if kind == "mutate":
            if status != 200 or json.loads(body).get("workers_updated") != 2:
                failed += 1
                errors.append(f"mutate answered {status}: {body[:200]!r}")
            continue
        live = live_generations(t_send, t_recv, sends, acks)
        key = (q, live, body)
        if key not in verdicts:
            verdicts[key] = check_query(q, status, body, live)
        if verdicts[key]:
            failed += 1
            category, why = verdicts[key]
            outcome[category].append(f"{SERVING_QUERIES[q][0]}: {why}")
            continue
        if traced:
            parsed = json.loads(body)
            ms = (t_recv - t_send) * 1000.0
            sizes.append(len(body))
            if parsed.get("cached"):
                hits.append(ms)
            else:
                misses.append(ms)
                worker_ms.append(parsed["elapsed_ms"])
                overhead.append(ms - parsed["elapsed_ms"])

    cache_before, cache_after = before["cache"], after["cache"]
    stale_served = cache_after["cache_stale_served"] - cache_before["cache_stale_served"]
    if stale_served:
        failed += stale_served
        errors.append(f"cache_stale_served grew by {stale_served}")

    end_to_end = {
        "throughput_ops_s": (len(records) / elapsed, "ops/s"),
        "latency_p50_ms": (median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (percentile(latencies, TAIL_PERCENTILE) * 1000.0, "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    per_layer = {}
    if trace:
        hit_delta = cache_after["cache_hits"] - cache_before["cache_hits"]
        miss_delta = cache_after["cache_misses"] - cache_before["cache_misses"]
        per_layer = {
            "server.hit_ms": median(hits),
            "server.miss_ms": median(misses),
            "server.mutate_ms": median(s.ms for s in tracer.by_name("server.mutate") if s.request.startswith("r")),
            "worker.execute_ms": median(worker_ms),
            "server.front_overhead_ms": median(overhead),
            "server.cache_hit_ratio": hit_delta / max(1, hit_delta + miss_delta),
            "server.cache_stale_fill_drops": cache_after["cache_stale_fill_drops"] - cache_before["cache_stale_fill_drops"],
            "worker.plan_builds": plan_builds(after) - plan_builds(before),
            "server.response_bytes": median(sizes),
            "trace.overhead_ratio": median(traced_ms) / median(untraced_ms),
        }
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"),
            {"workload": workload, "seed": seed, "requests": len(records), "mutations": len(mutations)},
        )
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


class _Writer(threading.Thread):
    """The writer's connection: sends the writes the reader hands it, in order."""

    def __init__(self, server: Server, tracer: Tracer, mutate_bodies: Dict,
                 records: List[Tuple], mutations: List[Tuple[float, float]]):
        super().__init__(name="perfbench-writer", daemon=True)
        self.jobs: "queue.Queue[Optional[Tuple[int, str, bool]]]" = queue.Queue()
        self.error: Optional[BaseException] = None
        self._conn = server.connect()
        self._tracer = tracer
        self._bodies = mutate_bodies
        self._records = records
        self._mutations = mutations

    def run(self) -> None:
        try:
            while True:
                job = self.jobs.get()
                try:
                    if job is None:
                        return
                    if self.error is None:
                        self._write(*job)
                except BaseException as error:  # re-raised by the reader
                    self.error = error
                finally:
                    self.jobs.task_done()
        finally:
            self._conn.close()

    def _write(self, k: int, request_id: str, traced: bool) -> None:
        name, variant = mutation_plan(k)
        outer = perf_counter()
        span = self._tracer.open("server.mutate", request=request_id) if traced else None
        t_send = perf_counter()
        status, body = request(self._conn, "POST", "/mutate", self._bodies[(name, variant)])
        t_recv = perf_counter()
        self._tracer.close(span)
        self._mutations.append((t_send, t_recv))
        self._records.append(
            ("mutate", k, t_send, t_recv, status, body, traced, perf_counter() - outer)
        )


def _drive(server: Server, seed: int, seconds: float, trace: bool, tracer: Tracer,
           query_bodies: List[bytes], mutate_bodies: Dict) -> Dict:
    """Run the reader and the writer for ``seconds``; return what they recorded.

    A record is ``(kind, query or write number, send, receive, status,
    body, traced, outer)``; ``outer`` is the request's time with its span
    opened and closed, so traced and untraced requests compare fairly.
    """
    mutations: List[Tuple[float, float]] = []
    records: List[Tuple] = []
    writer = _Writer(server, tracer, mutate_bodies, records, mutations)
    writer.start()
    conn = server.connect()
    schedule = client_schedule(seed)
    rounds = writes = 0
    start = perf_counter()
    deadline = start + seconds
    try:
        while True:
            traced = trace and rounds % 2 == 1
            for position, entry in enumerate(next(schedule)):
                request_id = f"r{rounds}.{position}"
                if entry < 0:
                    writes += 1
                    writer.jobs.put((writes, request_id, traced))
                    continue
                outer = perf_counter()
                span = tracer.open("server.query", request=request_id) if traced else None
                t_send = perf_counter()
                status, body = request(conn, "POST", "/query", query_bodies[entry])
                t_recv = perf_counter()
                tracer.close(span)
                records.append(
                    ("query", entry, t_send, t_recv, status, body, traced, perf_counter() - outer)
                )
            writer.jobs.join()  # a round ends when its writes are acknowledged
            if writer.error is not None:
                raise writer.error
            rounds += 1
            if perf_counter() >= deadline and (rounds >= 2 or not trace):
                break
        elapsed = perf_counter() - start
    finally:
        writer.jobs.put(None)
        writer.join()
        conn.close()
    return {"records": records, "mutations": mutations, "elapsed": elapsed}
