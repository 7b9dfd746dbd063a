"""``stream`` workload: one streaming engine, incremental updates, checkpoints.

Closed loop, one caller.  One ``StreamingRTDBSCAN`` (``rt`` backend) takes
``drift-blobs`` in 500-point chunks into a 20k-point sliding window with a
fixed ε=0.06 and min_pts=10, so mean neighbours per point stay the same at
window fill and in steady state.  Filling the window is set-up.  Every
``checkpoint_every`` timed updates the loop makes a checkpoint round trip on
the live engine (``snapshot`` -> ``SnapshotStore.save`` -> ``load`` ->
``StreamingRTDBSCAN.restore``) and the stream continues on the restored
engine.

Checks at every checkpoint: the window labels and core mask equal a batch
``grid`` fit of ``engine.window_points``, and the restored engine's labels
equal the donor's.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import (
    Outcome, labels_match, median, percentile, report_counts, self_peak_rss_mb, tail,
)

EPS = 0.06
MIN_PTS = 10
STREAM = "drift-blobs"
QUERY_METHODS = ("query_csr", "query_pairs", "query_counts")

SCALES = {
    "full": {"window": 20_000, "chunk": 500, "min_updates": 100, "checkpoint_every": 20},
    "tiny": {"window": 1_000, "chunk": 100, "min_updates": 6, "checkpoint_every": 3},
}
SETUP_REPEATS = 3


@dataclass
class State:
    engine: object
    chunks: object
    cfg: dict
    workdir: Path
    last: object = None
    fill_mean_neighbors: float = 0.0

    def close(self) -> None:
        self.engine.release()
        shutil.rmtree(self.workdir, ignore_errors=True)


def grid_reference(points: np.ndarray):
    from repro import RTDBSCAN

    return RTDBSCAN(eps=EPS, min_pts=MIN_PTS, backend="grid").fit(points)


def setup(seed: int, scale: str, threads: int, workdir: Path) -> State:
    from repro import StreamingRTDBSCAN
    from repro.data.stream import make_stream

    cfg = SCALES[scale]
    chunks = make_stream(STREAM, 1_000_000, cfg["chunk"], seed=seed)
    engine = StreamingRTDBSCAN(EPS, MIN_PTS, window=cfg["window"], native_threads=threads)
    last = None
    for _ in range(cfg["window"] // cfg["chunk"]):
        last = engine.update(next(chunks))
    ref = grid_reference(engine.window_points)
    return State(
        engine, chunks, cfg, Path(tempfile.mkdtemp(prefix="stream-", dir=workdir)), last,
        float(np.mean(ref.neighbor_counts)),
    )


def check_checkpoint(window_labels, window_core, reference, restored_labels,
                     restored_core) -> list[str]:
    """Errors of one checkpoint: stream vs batch grid fit, restored vs donor."""
    errors = []
    if not labels_match(window_labels, window_core, reference.labels, reference.core_mask):
        errors.append("window labelling differs from a batch grid fit of the window")
    if not labels_match(restored_labels, restored_core, window_labels, window_core):
        errors.append("restored engine's labelling differs from the donor's")
    return errors


def _instrument(tracer, engine, trace: bool) -> None:
    if not trace:
        return

    def launch_attrs(result) -> dict:
        stats = result[-1]
        return {
            "confirmed": int(getattr(stats, "confirmed_hits", 0)),
            "intersections": int(getattr(stats, "intersection_calls", 0)),
        }

    tracer.instrument(
        engine.scene,
        {m: "streaming.query" for m in QUERY_METHODS},
        {m: launch_attrs for m in QUERY_METHODS},
    )


def _checkpoint(state: State, tracer, traced: bool, out: Outcome, ckpt: dict) -> None:
    from repro import StreamingRTDBSCAN
    from repro.service.store import SnapshotStore

    store = SnapshotStore(state.workdir)
    donor = state.engine
    with tracer.operation("stream.checkpoint", traced=traced):
        t0 = time.perf_counter()
        with tracer.span("streaming.snapshot"):
            t = time.perf_counter()
            snapshot = donor.snapshot()
            ckpt["snapshot"].append(time.perf_counter() - t)
        with tracer.span("service.store.save"):
            t = time.perf_counter()
            path = store.save("bench", snapshot)
            ckpt["save"].append(time.perf_counter() - t)
        with tracer.span("service.store.load"):
            t = time.perf_counter()
            record = store.load("bench")
            ckpt["load"].append(time.perf_counter() - t)
        with tracer.span("streaming.replay"):
            t = time.perf_counter()
            restored = StreamingRTDBSCAN.restore(record["snapshot"])
            ckpt["replay"].append(time.perf_counter() - t)
        ckpt["round_trip"].append(time.perf_counter() - t0)
    ckpt["bytes"].append(path.stat().st_size)

    reference = grid_reference(donor.window_points)
    ckpt["mean_neighbors"].append(float(np.mean(reference.neighbor_counts)))
    got = restored.result()
    out.attempted += 1
    for error in check_checkpoint(state.last.labels, state.last.core_mask, reference,
                                  got.labels, got.core_mask):
        out.fail(f"checkpoint {len(ckpt['round_trip'])}: {error}")
    donor.release()
    state.engine = restored


def run(state: State, seconds: float, tracer, trace: bool) -> Outcome:
    out = Outcome()
    cfg = state.cfg
    updates: list[dict] = []
    ckpt = {k: [] for k in ("snapshot", "save", "load", "replay", "round_trip", "bytes",
                            "mean_neighbors")}
    _instrument(tracer, state.engine, trace)
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(updates) < cfg["min_updates"]:
        chunk = next(state.chunks)
        traced = trace and len(updates) % 2 == 1
        with tracer.operation("stream.update", traced=traced):
            t0 = time.perf_counter()
            update = state.engine.update(chunk)
            wall = time.perf_counter() - t0
        trace_id = tracer.spans[-1].trace_id if traced else None
        out.attempted += 1
        state.last = update
        updates.append({
            "wall": wall, "traced": traced, "trace_id": trace_id,
            "sim": update.report.total_simulated_seconds,
            "counts": report_counts(update.report),
            "phases": {p.name: p.wall_seconds for p in update.report.phases},
            "reclustered": bool(update.reclustered), "action": update.accel_action,
        })
        if len(updates) % cfg["checkpoint_every"] == 0:
            _checkpoint(state, tracer, trace and len(ckpt["round_trip"]) % 2 == 1, out, ckpt)
            _instrument(tracer, state.engine, trace)

    plain = [u["wall"] for u in updates if not u["traced"]]
    sims = [u["sim"] for u in updates]
    out.end_to_end = {
        "op_p50_s": (median(plain), len(plain)),
        "op_tail_s": (tail(plain)[0], len(plain)),
        "sim_device_s": (median(sims), len(sims)),
        "peak_rss_mb": (self_peak_rss_mb(), 1),
    }
    n_ck = len(ckpt["round_trip"])
    out.detail = {
        "update_p50_s": (median(plain), "s", len(plain)),
        "update_p90_s": (percentile(plain, 90), "s", len(plain)),
        "restore_s": (median(ckpt["round_trip"]), "s", n_ck),
        "sim_device_s": (median(sims), "s", len(sims)),
        "mean_neighbors.fill": (state.fill_mean_neighbors, "count", 1),
        "mean_neighbors.steady": (median(ckpt["mean_neighbors"]), "count", n_ck),
    }

    n = len(updates)
    out.layers = {
        f"streaming.{phase}_s": (median(u["phases"].get(phase, 0.0) for u in updates), n)
        for phase in ("evict", "scene_update", "core_update", "cluster_update")
    }
    out.layers.update({
        "streaming.recluster_frac": (sum(u["reclustered"] for u in updates) / n, n),
        "streaming.rebuild_frac": (sum(u["action"] == "rebuild" for u in updates) / n, n),
        "streaming.mean_neighbors": (median(ckpt["mean_neighbors"]), n_ck),
        "streaming.snapshot_s": (median(ckpt["snapshot"]), n_ck),
        "streaming.replay_s": (median(ckpt["replay"]), n_ck),
        "service.store.save_s": (median(ckpt["save"]), n_ck),
        "service.store.load_s": (median(ckpt["load"]), n_ck),
        "service.store.ckpt_bytes": (median(ckpt["bytes"]), n_ck),
        "rtcore.node_visits": (median(u["counts"].get("rt_node_visits", 0) for u in updates), n),
        "dbscan.unions": (median(u["counts"].get("union_ops", 0) for u in updates), n),
        "dbscan.atomics": (median(u["counts"].get("atomic_ops", 0) for u in updates), n),
    })
    if trace:
        traced = [u for u in updates if u["traced"]]
        ids = {u["trace_id"] for u in traced}
        queries = [s for s in tracer.spans if s.name == "streaming.query" and s.trace_id in ids]
        query_ids = {s.span_id for s in queries}
        outer = [s for s in queries if s.parent not in query_ids]
        per_update = {i: 0.0 for i in ids}
        for s in outer:
            per_update[s.trace_id] += s.duration
        intersections = sum(s.attrs.get("intersections", 0) for s in outer)
        confirmed = sum(s.attrs.get("confirmed", 0) for s in outer)
        out.layers["streaming.query_s"] = (median(per_update.values()), len(traced))
        out.layers["rtcore.hit_ratio"] = (
            confirmed / intersections if intersections else 0.0, len(traced))
        base = median(plain)
        out.layers["bench.trace_overhead_frac.stream"] = (
            median(u["wall"] for u in traced) / base - 1.0 if base else 0.0, len(traced))
    return out
