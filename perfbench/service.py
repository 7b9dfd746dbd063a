"""``service`` workload: open-loop traffic against an ``rt-dbscan serve`` process.

One generator (one asyncio thread, two connections) drives a server started
with a 5k-point window, ε=0.10 (about the stream workload's 23 mean
neighbours), min_pts=10, a state dir and periodic checkpoints.  A **heavy**
tenant, pre-filled to a full window in set-up, sends one 250-point chunk
every 0.2 s, so its updates hold the event loop about a third of the
time; four **light** tenants send 20-point chunks as one seeded Poisson
stream of 20 requests per second.  Connection A carries the heavy ingests
and a ``query_labels`` per light tenant in turn; connection B carries the
light ingests and a ``stats`` probe.  Every latency is timed from the
request's due time, so a stalled event loop is charged to every request it
delays.

The sizes keep a run steady.  The 5k window keeps each heavy update short
enough that a run holds some 80 of them; with a 20k window a run below
saturation holds about ten, fewer than one refit/rebuild cycle, and its
latencies moved by more than half from seed to seed.  At 40 light requests
per second the light tenants' own updates held the loop a fifth of the
time, which put the median ack at the knee between acks answered at once
and acks stalled behind an update.

Checks: the final heavy-tenant labels equal a batch ``grid`` fit of the last
window of points the generator sent, and each light tenant's labels equal an
offline serial ``consume`` of its accepted chunks.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .common import Outcome, labels_match, median, percentile, tail

MIN_PTS = 10
STREAM = "drift-blobs"
HOST = "127.0.0.1"
HEAVY = "heavy"
#: the checkout whose ``src/repro`` the server runs.
ROOT = Path(__file__).resolve().parent.parent
#: a run whose generator sent its p99 request later than this is invalid.
GEN_LATE_LIMIT_S = 0.05
#: a reply that has not arrived this long after the last send is a timeout.
REPLY_TIMEOUT_S = 60.0

SCALES = {
    "full": {
        "window": 5_000, "eps": 0.10, "heavy_chunk": 250, "heavy_interval": 0.2,
        "light_tenants": 4, "light_chunk": 20, "light_rate": 20.0,
        "query_rate": 2.0, "stats_rate": 10.0, "checkpoint_interval": 5.0,
    },
    "tiny": {
        "window": 1_000, "eps": 0.06, "heavy_chunk": 100, "heavy_interval": 0.5,
        "light_tenants": 2, "light_chunk": 10, "light_rate": 20.0,
        "query_rate": 2.0, "stats_rate": 4.0, "checkpoint_interval": 1.0,
    },
}
SETUP_REPEATS = 3


class InvalidRun(RuntimeError):
    """The generator could not keep to its schedule; the run measures nothing."""


def _read_proc(pid: int) -> tuple[float, float]:
    """``(cpu seconds, peak RSS MiB)`` of a live process from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    rss = 0.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                rss = int(line.split()[1]) / 1024.0
    return cpu, rss


@dataclass
class State:
    proc: subprocess.Popen
    port: int
    seed: int
    workdir: Path
    cfg: dict
    heavy_chunks: object
    light_chunks: dict
    heavy_sent: list = field(default_factory=list)
    light_sent: dict = field(default_factory=dict)
    heavy_before: dict = field(default_factory=dict)

    def client(self):
        from repro.service.client import RetryPolicy, ServiceClient

        return ServiceClient(HOST, self.port, policy=RetryPolicy(max_attempts=1, timeout_s=120.0))

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except Exception:  # the server may already be gone; kill below
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _session_stats(stats_body: dict, tenant: str) -> dict:
    """One tenant's entry of a ``stats`` reply ({} when absent)."""
    return stats_body.get("sessions", {}).get("tenants", {}).get(tenant, {})


def setup(seed: int, scale: str, threads: int, workdir: Path) -> State:
    from repro.data.stream import make_stream

    cfg = SCALES[scale]
    tmp = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
    port_file = tmp / "port"
    env = dict(os.environ, REPRO_NATIVE_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--eps", str(cfg["eps"]), "--min-pts", str(MIN_PTS), "--window", str(cfg["window"]),
        "--port", "0", "--port-file", str(port_file),
        "--state-dir", str(tmp / "state"),
        "--checkpoint-interval", str(cfg["checkpoint_interval"]),
    ]
    with open(tmp / "server.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 120.0
    while not (port_file.exists() and port_file.read_text().strip()):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait(timeout=30)
            raise RuntimeError(f"server did not start; see {tmp / 'server.log'}")
        time.sleep(0.02)
    heavy = make_stream(STREAM, 1_000_000, cfg["heavy_chunk"], seed=seed)
    lights = {
        f"light-{t}": make_stream(STREAM, 1_000_000, cfg["light_chunk"], seed=seed + 1 + t)
        for t in range(cfg["light_tenants"])
    }
    state = State(proc, int(port_file.read_text()), seed, tmp, cfg, heavy, lights)
    state.light_sent = {t: [] for t in lights}
    try:
        with state.client() as client:
            for _ in range(cfg["window"] // cfg["heavy_chunk"]):
                chunk = next(heavy)
                reply = client.ingest(HEAVY, chunk)
                if not reply.ok:
                    raise RuntimeError(f"pre-fill ingest refused: {reply.status} {reply.error}")
                state.heavy_sent.append(chunk)
            if not client.query_labels(HEAVY).ok:
                raise RuntimeError("pre-fill drain failed")
            state.heavy_before = _session_stats(client.stats().body, HEAVY)
    except BaseException:
        state.close()
        raise
    return state


@dataclass
class Event:
    due: float
    conn: str
    op: str
    tenant: str | None
    line: bytes
    chunk: np.ndarray | None = None


def schedule(state: State, seconds: float) -> list[Event]:
    """Every request of the timed phase with its due offset, pre-encoded."""
    from repro.service.protocol import encode_line

    cfg = state.cfg
    events: list[Event] = []

    def ingest(due, conn, tenant, chunk):
        line = encode_line({"op": "ingest", "tenant": tenant, "points": chunk.tolist()})
        events.append(Event(due, conn, "ingest", tenant, line, chunk))

    # Light requests, queries and probes arrive as seeded Poisson processes:
    # a fixed period would lock them to the heavy tenant's phase, so each
    # would see the same part of every heavy update and the latencies would
    # jump as the update's length crossed a period boundary.
    rng = np.random.default_rng([state.seed, 1])

    def arrivals(rate: float) -> np.ndarray:
        times = np.cumsum(rng.exponential(1.0 / rate, size=int(seconds * rate * 2) + 16))
        return times[times < seconds]

    for i in range(int(seconds / cfg["heavy_interval"])):
        ingest(i * cfg["heavy_interval"], "A", HEAVY, next(state.heavy_chunks))
    tenants = sorted(state.light_chunks)
    for j, due in enumerate(arrivals(cfg["light_rate"])):
        tenant = tenants[j % len(tenants)]
        ingest(due, "B", tenant, next(state.light_chunks[tenant]))
    for k, due in enumerate(arrivals(cfg["query_rate"])):
        tenant = tenants[k % len(tenants)]
        line = encode_line({"op": "query_labels", "tenant": tenant})
        events.append(Event(due, "A", "query_labels", tenant, line))
    for due in arrivals(cfg["stats_rate"]):
        events.append(Event(due, "B", "stats", None, encode_line({"op": "stats"})))
    events.sort(key=lambda e: e.due)
    return events


async def _drive(port: int, events: list[Event], pid: int, tracer, trace: bool) -> dict:
    """Send every event at its due time; match replies FIFO per connection."""
    loop = asyncio.get_running_loop()
    conns = {}
    for name in ("A", "B"):
        reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 26)
        conns[name] = (reader, writer, deque())
    records: list[dict] = []
    done = asyncio.Event()
    remaining = {"n": len(events)}

    async def read_loop(name: str) -> None:
        reader, _, pending = conns[name]
        while pending or remaining["n"]:
            line = await reader.readline()
            now = loop.time()
            if not line:
                return
            event, due, sent, traced = pending.popleft()
            reply = json.loads(line)
            if traced:
                tracer.record(f"service.request.{event.op}", sent, now,
                              tenant=event.tenant, due=due)
            records.append({
                "op": event.op, "tenant": event.tenant, "event": event, "due": due,
                "sent": sent, "recv": now, "status": reply.get("status"), "traced": traced,
            })
            remaining["n"] -= 1
            if remaining["n"] == 0:
                done.set()

    readers = [asyncio.create_task(read_loop(name)) for name in conns]
    cpu0, _ = _read_proc(pid)
    t0 = loop.time() + 0.05
    for i, event in enumerate(events):
        due = t0 + event.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        _, writer, pending = conns[event.conn]
        # A traced run records a span for every other request, inline on
        # the generator's loop, so the bookkeeping costs what it would.
        pending.append((event, due, loop.time(), trace and i % 2 == 1))
        writer.write(event.line)
    try:
        await asyncio.wait_for(done.wait(), timeout=REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    wall = loop.time() - t0
    cpu1, _ = _read_proc(pid)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer, _ in conns.values():
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return {"records": records, "wall": wall, "cpu": cpu1 - cpu0}


def check_heavy(labels, core, reference) -> str | None:
    if not labels_match(labels, core, reference.labels, reference.core_mask):
        return "heavy tenant: labels differ from a batch grid fit of its last window"
    return None


def check_light(tenant: str, labels, core, offline) -> str | None:
    if not labels_match(labels, core, offline.labels, offline.core_mask):
        return f"{tenant}: labels differ from an offline serial consume of its chunks"
    return None


def _scrape_quantile(text: str, metric: str, quantile: str) -> float:
    match = re.search(rf'^{metric}\{{quantile="{quantile}"\}} (\S+)$', text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def run(state: State, seconds: float, tracer, trace: bool) -> Outcome:
    from repro import RTDBSCAN, StreamingRTDBSCAN

    out = Outcome()
    cfg = state.cfg
    events = schedule(state, seconds)
    result = asyncio.run(_drive(state.port, events, state.proc.pid, tracer, trace))
    records = result["records"]
    out.attempted = len(events)
    missing = len(events) - len(records)
    for _ in range(missing):
        out.fail("request timed out without a reply")

    for rec in records:
        if rec["status"] != "ok":
            out.fail(f"{rec['op']} for {rec['tenant']}: status {rec['status']}")
        elif rec["op"] == "ingest":
            chunk = rec["event"].chunk
            if rec["tenant"] == HEAVY:
                state.heavy_sent.append(chunk)
            else:
                state.light_sent[rec["tenant"]].append(chunk)

    def latencies(op, light=True, traced=None):
        return [r["recv"] - r["due"] for r in records
                if r["op"] == op and (r["tenant"] != HEAVY) == light
                and (traced is None or r["traced"] == traced)]

    acks = latencies("ingest", traced=False)
    queries = latencies("query_labels")
    stats_rtt = latencies("stats", light=True)
    late = [r["sent"] - r["due"] for r in records]
    gen_late_p99 = percentile(late, 99)
    if gen_late_p99 > GEN_LATE_LIMIT_S:
        raise InvalidRun(
            f"generator p99 lateness {gen_late_p99:.4f}s exceeds {GEN_LATE_LIMIT_S}s")

    with state.client() as client:
        stats_body = client.stats().body
        metrics_text = client.metrics_text()
        _, rss = _read_proc(state.proc.pid)
        heavy_reply = client.query_labels(HEAVY)
        light_replies = {t: client.query_labels(t) for t in sorted(state.light_sent)}

    window = np.vstack(state.heavy_sent)[-cfg["window"]:]
    reference = RTDBSCAN(eps=cfg["eps"], min_pts=MIN_PTS, backend="grid").fit(window)
    out.attempted += 1 + len(light_replies)
    if not heavy_reply.ok:
        out.fail(f"heavy tenant: final query_labels {heavy_reply.status}")
    else:
        error = check_heavy(heavy_reply.body["labels"], heavy_reply.body["core_mask"], reference)
        if error:
            out.fail(error)
    for tenant, reply in light_replies.items():
        engine = StreamingRTDBSCAN(cfg["eps"], MIN_PTS, window=cfg["window"])
        engine.consume(state.light_sent[tenant])
        offline = engine.result()
        engine.release()
        if not reply.ok:
            out.fail(f"{tenant}: final query_labels {reply.status}")
            continue
        error = check_light(tenant, reply.body["labels"], reply.body["core_mask"], offline)
        if error:
            out.fail(error)

    heavy_after = _session_stats(stats_body, HEAVY)
    eng0, eng1 = state.heavy_before.get("engine", {}), heavy_after.get("engine", {})
    n_updates = eng1.get("num_updates", 0) - eng0.get("num_updates", 0)
    sim = ((eng1.get("total_simulated_seconds", 0.0) - eng0.get("total_simulated_seconds", 0.0))
           / n_updates if n_updates else 0.0)

    def per_update(key: str) -> float:
        c0, c1 = eng0.get("counts", {}), eng1.get("counts", {})
        return (c1.get(key, 0) - c0.get(key, 0)) / n_updates if n_updates else 0.0

    ingests = [r for r in records if r["op"] == "ingest"]
    busy = sum(r["status"] == "busy" for r in ingests)
    out.end_to_end = {
        "op_p50_s": (median(acks), len(acks)),
        "op_tail_s": (tail(acks)[0], len(acks)),
        "sim_device_s": (sim, n_updates),
        "peak_rss_mb": (rss, 1),
    }
    out.detail = {
        "ack_p50_s": (median(acks), "s", len(acks)),
        "ack_p99_s": (percentile(acks, 99), "s", len(acks)),
        "query_p50_s": (median(queries), "s", len(queries)),
        "heavy_updates": (n_updates, "count", n_updates),
        "mean_neighbors": (float(np.mean(reference.neighbor_counts)), "count", 1),
        "failed_frac": (out.failed / out.attempted, "1", out.attempted),
    }
    # The session's latency ring also holds the pre-fill updates, so the
    # timed-phase mean comes from the engine's running wall total; the ring's
    # p99 is set by the full-window updates of the timed phase.
    latency = heavy_after.get("update_latency", {})
    update_wall = eng1.get("total_wall_seconds", 0.0) - eng0.get("total_wall_seconds", 0.0)
    service_stats = stats_body.get("service", {})
    out.layers = {
        "service.update_mean_s": (update_wall / n_updates if n_updates else 0.0, n_updates),
        "service.update_p99_s": (latency.get("p99_s", 0.0), latency.get("count", 0)),
        "service.checkpoint_p99_s": (
            _scrape_quantile(metrics_text, "rtdbscan_checkpoint_write_seconds", "0.99"), 1),
        "service.stats_rtt_p99_s": (percentile(stats_rtt, 99), len(stats_rtt)),
        "service.batch_chunks_mean": (service_stats.get("mean_batch_chunks", 0.0), 1),
        "service.busy_frac": (busy / len(ingests) if ingests else 0.0, len(ingests)),
        "service.server_cpu_util": (result["cpu"] / result["wall"], 1),
        "service.gen_late_p99_s": (gen_late_p99, len(late)),
        "service.mean_neighbors": (float(np.mean(reference.neighbor_counts)), 1),
        "rtcore.node_visits": (per_update("rt_node_visits"), n_updates),
        "dbscan.unions": (per_update("union_ops"), n_updates),
        "dbscan.atomics": (per_update("atomic_ops"), n_updates),
    }
    if trace:
        traced_acks = latencies("ingest", traced=True)
        base = median(acks)
        out.layers["bench.trace_overhead_frac.service"] = (
            median(traced_acks) / base - 1.0 if base else 0.0, len(traced_acks))
    return out
