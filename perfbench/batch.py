"""``batch`` workload: the paper's Algorithm 3 on one dataset, four ways.

Closed loop, one caller.  Set-up generates a seeded 2-D ``porto`` dataset,
calibrates ε with the k-distance heuristic (q=0.30, min_pts=10) and runs one
warm-up ``rt`` fit.  Each timed round then fits the dataset with
``RTDBSCAN`` on the ``rt``, ``grid`` and ``kdtree`` backends and with
``TiledRTDBSCAN(backend="rt", tiles=4, workers=2)`` on threads.

Checks: the four labellings are identical to each other and across rounds,
and each kind's simulated device seconds and op counts repeat exactly.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np

from .common import Outcome, median, percentile, report_counts, self_peak_rss_mb, tail

MIN_PTS = 10
EPS_QUANTILE = 0.30
KINDS = ("rt", "grid", "kdtree", "tiled")
BACKENDS = ("rt", "grid", "kdtree")
TILES = 4
TILE_WORKERS = 2

SCALES = {
    "full": {"num_points": 100_000, "min_rounds": 4},
    "tiny": {"num_points": 3_000, "min_rounds": 2},
}
SETUP_REPEATS = 3


@dataclass
class State:
    points: np.ndarray
    eps: float
    threads: int
    min_rounds: int
    mean_neighbors: float

    def close(self) -> None:
        pass


def _make(kind: str, eps: float, threads: int):
    from repro import RTDBSCAN, TiledRTDBSCAN

    if kind == "tiled":
        return TiledRTDBSCAN(
            eps=eps, min_pts=MIN_PTS, backend="rt", tiles=TILES, workers=TILE_WORKERS,
            executor_mode="thread", native_threads=threads,
        )
    return RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=kind, native_threads=threads)


def setup(seed: int, scale: str, threads: int, workdir) -> State:
    from repro.bench.experiments import calibrate_eps
    from repro.data.registry import generate

    del workdir  # nothing to write
    cfg = SCALES[scale]
    points = generate("porto", cfg["num_points"], seed=seed)
    eps = calibrate_eps(points, MIN_PTS, EPS_QUANTILE)
    warm = _make("rt", eps, threads).fit(points)
    return State(points, eps, threads, cfg["min_rounds"], float(np.mean(warm.neighbor_counts)))


def fingerprint(result) -> tuple:
    """What must repeat exactly across rounds for one fit kind."""
    counts = report_counts(result.report)
    return result.report.total_simulated_seconds, tuple(sorted(counts.items()))


def check_fit(kind: str, labels, reference_labels, fp, reference_fp) -> str | None:
    """Error message when a fit disagrees with the run's reference, else None."""
    if not np.array_equal(labels, reference_labels):
        return f"{kind}: labels differ from the reference labelling"
    if reference_fp is not None and fp != reference_fp:
        return f"{kind}: simulated seconds / op counts differ across rounds"
    return None


def _install(tracer) -> None:
    # The packages re-export functions named like their modules
    # (``repro.dbscan.rt_dbscan``), so fetch the modules themselves.
    rt_mod = importlib.import_module("repro.dbscan.rt_dbscan")
    tiled_mod = importlib.import_module("repro.partition.tiled")

    def launch_attrs(result) -> dict:
        stats = result[-1]
        attrs = {
            "confirmed": int(getattr(stats, "confirmed_hits", 0)),
            "intersections": int(getattr(stats, "intersection_calls", 0)),
        }
        if len(result) == 3:
            attrs["edges"] = int(np.asarray(result[1]).size)
        return attrs

    tracer.patch_factory(
        rt_mod, "make_backend",
        {"neighbor_counts": "neighbors.count", "neighbor_csr": "neighbors.csr"},
        span="neighbors.build",
        annotate={"neighbor_counts": launch_attrs, "neighbor_csr": launch_attrs},
    )
    tracer.patch(rt_mod, "form_clusters_csr", "dbscan.union_find")
    tracer.patch_factory(tiled_mod, "Tiler", {"split": "partition.split"})
    tracer.patch(
        tiled_mod, "run_tile", "partition.tile",
        annotate=lambda r: {"owned": int(r.num_owned), "halo": int(r.num_halo)},
    )
    tracer.patch(tiled_mod, "merge_tiles", "partition.merge")


def _layer_metrics(tracer, fits: list[dict]) -> dict:
    """Per-layer metrics from the traced fits (grouped by trace id)."""
    by_trace: dict[int, list] = {}
    for span in tracer.spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    def total(spans, name):
        return sum(s.duration for s in spans if s.name == name)

    out: dict[str, tuple[float, int]] = {}
    traced = [f for f in fits if f["trace_id"] is not None]
    for backend in BACKENDS:
        mine = [by_trace.get(f["trace_id"], []) for f in traced if f["kind"] == backend]
        n = len(mine)
        for metric, span in (("build_s", "neighbors.build"), ("count_s", "neighbors.count"),
                             ("csr_s", "neighbors.csr")):
            out[f"neighbors.{metric}.{backend}"] = (median(total(s, span) for s in mine), n)
        out[f"neighbors.traversals.{backend}"] = (
            median(sum(1 for x in s if x.name in ("neighbors.count", "neighbors.csr"))
                   for s in mine), n)
        out[f"dbscan.union_find_s.{backend}"] = (
            median(total(s, "dbscan.union_find") for s in mine), n)

    rt_spans = [by_trace.get(f["trace_id"], []) for f in traced if f["kind"] == "rt"]
    launches = [x for s in rt_spans for x in s if x.name in ("neighbors.count", "neighbors.csr")]
    intersections = sum(x.attrs.get("intersections", 0) for x in launches)
    confirmed = sum(x.attrs.get("confirmed", 0) for x in launches)
    out["rtcore.hit_ratio"] = (confirmed / intersections if intersections else 0.0, len(rt_spans))
    out["neighbors.csr_edges"] = (
        median(sum(x.attrs.get("edges", 0) for x in s if x.name == "neighbors.csr")
               for s in rt_spans), len(rt_spans))

    tiled = [(f, by_trace.get(f["trace_id"], [])) for f in traced if f["kind"] == "tiled"]
    n = len(tiled)
    tile_sums = [total(s, "partition.tile") for _, s in tiled]
    out["partition.split_s"] = (median(total(s, "partition.split") for _, s in tiled), n)
    out["partition.tile_s.max"] = (
        median(max((x.duration for x in s if x.name == "partition.tile"), default=0.0)
               for _, s in tiled), n)
    out["partition.tile_s.sum"] = (median(tile_sums), n)
    out["partition.merge_s"] = (median(total(s, "partition.merge") for _, s in tiled), n)
    owned = sum(x.attrs.get("owned", 0) for _, s in tiled for x in s if x.name == "partition.tile")
    halo = sum(x.attrs.get("halo", 0) for _, s in tiled for x in s if x.name == "partition.tile")
    out["partition.halo_frac"] = (halo / owned if owned else 0.0, n)
    out["partition.parallel_eff"] = (
        median(ts / (TILE_WORKERS * f["wall"]) for ts, (f, _) in zip(tile_sums, tiled)), n)
    return out


def run(state: State, seconds: float, tracer, trace: bool) -> Outcome:
    out = Outcome()
    if trace:
        _install(tracer)
    fits: list[dict] = []
    reference_labels = None
    reference_fp: dict[str, tuple] = {}
    rounds: list[float] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(rounds) < state.min_rounds:
        # A traced run alternates traced and untraced rounds, so the two
        # sides sample the same conditions and their ratio is the overhead.
        traced = trace and len(rounds) % 2 == 1
        round_wall = 0.0
        for kind in KINDS:
            clusterer = _make(kind, state.eps, state.threads)
            with tracer.operation(f"batch.fit.{kind}", traced=traced):
                t0 = time.perf_counter()
                result = clusterer.fit(state.points)
                wall = time.perf_counter() - t0
            round_wall += wall
            out.attempted += 1
            fp = fingerprint(result)
            if reference_labels is None:
                reference_labels = result.labels
            error = check_fit(kind, result.labels, reference_labels, fp, reference_fp.get(kind))
            reference_fp.setdefault(kind, fp)
            if error:
                out.fail(f"round {len(rounds)}: {error}")
            counts = dict(fp[1])
            fits.append({
                "kind": kind, "wall": wall, "traced": traced,
                "trace_id": tracer.spans[-1].trace_id if traced and tracer.spans else None,
                "sim": fp[0], "counts": counts,
            })
        rounds.append(round_wall)

    plain = [f for f in fits if not f["traced"]]
    walls = {k: [f["wall"] for f in plain if f["kind"] == k] for k in KINDS}
    round_walls = [r for i, r in enumerate(rounds) if not (trace and i % 2 == 1)]
    rt_fits = [f for f in fits if f["kind"] == "rt"]
    sim = median(f["sim"] for f in rt_fits)

    out.end_to_end = {
        "op_p50_s": (median(round_walls), len(round_walls)),
        "op_tail_s": (tail(round_walls)[0], len(round_walls)),
        "sim_device_s": (sim, len(rt_fits)),
        "peak_rss_mb": (self_peak_rss_mb(), 1),
    }
    for kind in KINDS:
        out.detail[f"fit_{kind}_s"] = (median(walls[kind]), "s", len(walls[kind]))
    out.detail["sim_device_s"] = (sim, "s", len(rt_fits))
    out.detail["rounds"] = (len(rounds), "count", len(rounds))
    out.detail["eps"] = (state.eps, "1", 1)
    out.detail["mean_neighbors"] = (state.mean_neighbors, "count", 1)

    rt_counts = rt_fits[0]["counts"] if rt_fits else {}
    out.layers = {
        "rtcore.node_visits": (rt_counts.get("rt_node_visits", 0), len(rt_fits)),
        "dbscan.unions": (rt_counts.get("union_ops", 0), len(rt_fits)),
        "dbscan.atomics": (rt_counts.get("atomic_ops", 0), len(rt_fits)),
    }
    if trace:
        out.layers.update(_layer_metrics(tracer, fits))
        traced_rounds = [r for i, r in enumerate(rounds) if i % 2 == 1]
        base = median(round_walls)
        out.layers["bench.trace_overhead_frac.batch"] = (
            median(traced_rounds) / base - 1.0 if base else 0.0, len(traced_rounds))
    return out
