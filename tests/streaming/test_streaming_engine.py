"""Streaming engine correctness: batch equivalence and window edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.stream import drift_blob_stream
from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import rt_dbscan
from repro.metrics.agreement import compare_results
from repro.metrics.ari import adjusted_rand_index
from repro.streaming import RefitPolicy, StreamingRTDBSCAN


def _blobs(n: int, seed: int, centers: int = 5, std: float = 0.2):
    pts, _ = make_blobs(n, centers=centers, std=std, seed=seed)
    return pts


class TestBatchEquivalence:
    """No-eviction feeds must reproduce the batch labelling exactly."""

    def test_single_chunk_equals_batch_labels(self):
        pts = _blobs(800, seed=11)
        batch = rt_dbscan(pts, eps=0.3, min_pts=5)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        update = engine.update(pts)
        assert np.array_equal(update.labels, batch.labels)
        assert np.array_equal(update.core_mask, batch.core_mask)
        assert adjusted_rand_index(update.labels, batch.labels) == 1.0

    @pytest.mark.parametrize("seed,chunk", [(3, 100), (7, 137), (21, 400)])
    def test_chunked_feed_matches_batch(self, seed, chunk):
        pts = _blobs(800, seed=seed)
        batch = rt_dbscan(pts, eps=0.3, min_pts=5)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        last = None
        for lo in range(0, pts.shape[0], chunk):
            last = engine.update(pts[lo : lo + chunk])
        assert last is not None
        assert np.array_equal(last.labels, batch.labels)
        assert adjusted_rand_index(last.labels, batch.labels) == 1.0
        # The cached neighbour counts must match batch stage 1 exactly.
        assert np.array_equal(engine.result().neighbor_counts, batch.neighbor_counts)

    def test_result_is_dbscan_equivalent_to_batch(self):
        pts = _blobs(600, seed=5, centers=4)
        engine = StreamingRTDBSCAN(eps=0.35, min_pts=4)
        for lo in range(0, 600, 200):
            engine.update(pts[lo : lo + 200])
        batch = rt_dbscan(pts, eps=0.35, min_pts=4)
        report = compare_results(batch, engine.result(), points=pts)
        assert report.equivalent, report.as_dict()


class TestSlidingWindow:
    def test_window_respected_and_oldest_evicted(self):
        pts = _blobs(500, seed=9)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=200)
        for lo in range(0, 500, 100):
            update = engine.update(pts[lo : lo + 100])
        assert update.window_size == 200
        # The window holds exactly the newest 200 points, in arrival order.
        assert np.array_equal(update.window_arrivals, np.arange(300, 500))
        assert np.allclose(np.asarray(engine.window_points)[:, :2], pts[300:])

    @pytest.mark.parametrize("seed", [1, 13])
    def test_every_window_equivalent_to_batch_on_window(self, seed):
        """After each slide, labels agree with batch DBSCAN on the window."""
        rng_stream = drift_blob_stream(6, 120, seed=seed, num_clusters=3, drift=0.3)
        engine = StreamingRTDBSCAN(eps=0.25, min_pts=4, window=360)
        for chunk in rng_stream:
            update = engine.update(chunk)
            window_pts = np.asarray(engine.window_points)
            batch = rt_dbscan(window_pts, eps=0.25, min_pts=4)
            report = compare_results(batch, engine.result(), points=window_pts)
            assert report.equivalent, report.as_dict()
            assert np.array_equal(update.core_mask, batch.core_mask)

    def test_eviction_that_splits_a_cluster(self):
        # A --- bridge --- B along a line; evicting the bridge must split
        # the single chain cluster into two.
        A = np.column_stack([np.linspace(0.0, 2.0, 9), np.zeros(9)])
        bridge = np.column_stack([np.linspace(2.5, 4.5, 5), np.zeros(5)])
        B = np.column_stack([np.linspace(5.0, 7.0, 9), np.zeros(9)])
        engine = StreamingRTDBSCAN(eps=0.6, min_pts=2, window=18, initial_capacity=32)
        engine.update(bridge)
        joined = engine.update(A)
        assert joined.num_clusters == 1  # A + bridge form one chain
        split = engine.update(B)  # bridge (oldest) evicted
        assert split.num_evicted == 5
        assert split.reclustered
        assert split.num_clusters == 2
        window_pts = np.asarray(engine.window_points)
        batch = rt_dbscan(window_pts, eps=0.6, min_pts=2)
        assert np.array_equal(split.labels, batch.labels)

    def test_chunk_larger_than_window_keeps_newest_points(self):
        pts = _blobs(300, seed=2)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=100)
        update = engine.update(pts)
        assert update.window_size == 100
        assert np.allclose(np.asarray(engine.window_points)[:, :2], pts[200:])


class TestEdgeCases:
    def test_empty_engine_has_empty_window(self):
        engine = StreamingRTDBSCAN(eps=0.5, min_pts=3)
        assert engine.window_size == 0
        result = engine.result()
        assert result.labels.shape == (0,)
        assert result.num_clusters == 0

    def test_empty_chunk_is_a_noop(self):
        engine = StreamingRTDBSCAN(eps=0.5, min_pts=3)
        update = engine.update(np.empty((0, 2)))
        assert update.window_size == 0
        assert update.accel_action == "none"
        pts = _blobs(200, seed=4)
        before = engine.update(pts)
        after = engine.update(np.empty((0, 2)))
        assert np.array_equal(before.labels, after.labels)
        assert after.num_new == 0 and after.num_evicted == 0

    def test_duplicate_points_across_chunks(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 4.0, size=(250, 2))
        engine = StreamingRTDBSCAN(eps=0.35, min_pts=4)
        engine.update(pts)
        update = engine.update(pts)  # every point arrives a second time
        batch = rt_dbscan(np.vstack([pts, pts]), eps=0.35, min_pts=4)
        assert np.array_equal(update.labels, batch.labels)
        assert adjusted_rand_index(update.labels, batch.labels) == 1.0

    def test_promotion_across_chunks(self):
        # Each chunk alone is too sparse to form cores; together they do.
        base = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        extra = np.array([[0.0, 0.1], [0.1, 0.1], [6.0, 6.0]])
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=3)
        first = engine.update(base)
        assert first.num_clusters == 0
        second = engine.update(extra)
        batch = rt_dbscan(np.vstack([base, extra]), eps=0.3, min_pts=3)
        assert np.array_equal(second.labels, batch.labels)
        assert second.num_clusters == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=-1.0, min_pts=3)
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=0.5, min_pts=0)
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=0.5, min_pts=3, window=0)
        with pytest.raises(ValueError):
            RefitPolicy(mode="bogus")


class TestMaintenancePolicy:
    def test_auto_policy_refits_for_small_updates(self):
        pts = _blobs(1200, seed=6)
        engine = StreamingRTDBSCAN(
            eps=0.3, min_pts=5, window=1000, initial_capacity=1100,
            policy=RefitPolicy(mode="auto"),
        )
        for lo in range(0, 1200, 60):
            engine.update(pts[lo : lo + 60])
        scene = engine.scene.summary()
        assert scene["num_refits"] > scene["num_builds"]
        assert engine.total_counts.bvh_refit_prims > 0

    def test_refit_and_rebuild_modes_agree_on_labels(self):
        pts = _blobs(600, seed=8)
        results = {}
        for mode in ("auto", "rebuild"):
            engine = StreamingRTDBSCAN(
                eps=0.3, min_pts=5, window=500, initial_capacity=600,
                policy=RefitPolicy(mode=mode),
            )
            for lo in range(0, 600, 100):
                update = engine.update(pts[lo : lo + 100])
            results[mode] = (update.labels, engine.summary())
        labels_auto, summary_auto = results["auto"]
        labels_rebuild, summary_rebuild = results["rebuild"]
        assert np.array_equal(labels_auto, labels_rebuild)
        # Identical clustering, cheaper maintenance on the refit path.
        assert (
            summary_auto["total_simulated_seconds"]
            < summary_rebuild["total_simulated_seconds"]
        )

    def test_capacity_growth_forces_rebuild(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, initial_capacity=64)
        first = engine.update(_blobs(60, seed=1))
        assert first.accel_action == "rebuild"
        second = engine.update(_blobs(300, seed=2))  # overflows capacity 64
        assert second.accel_action == "rebuild"
        assert engine.scene.capacity >= 360

    def test_for_feed_pre_sizes_the_slot_buffer(self):
        """for_feed sizes the scene from the tiler occupancy bound: the slot
        buffer never grows, so only the first commit is a build."""
        feed = _blobs(900, seed=3)
        chunks = [feed[lo : lo + 300] for lo in range(0, 900, 300)]
        engine = StreamingRTDBSCAN.for_feed(
            feed, 0.3, 5, chunk_size=300, policy=RefitPolicy(mode="refit")
        )
        assert engine.scene.capacity >= 900
        for chunk in chunks:
            engine.update(chunk)
        assert engine.scene.num_builds == 1

        # Same labels as an ordinary unbounded engine over the same chunks.
        plain = StreamingRTDBSCAN(eps=0.3, min_pts=5, initial_capacity=256)
        for chunk in chunks:
            plain.update(chunk)
        np.testing.assert_array_equal(
            engine.result().labels, plain.result().labels
        )

    def test_for_feed_capacity_always_covers_the_feed(self):
        """The pre-sized buffer must hold the whole feed the engine ingests
        (the planner's shard bound is per-shard-engine, not for this one)."""
        feed = _blobs(600, seed=9)
        engine = StreamingRTDBSCAN.for_feed(
            feed, 0.3, 5, chunk_size=200, policy=RefitPolicy(mode="refit")
        )
        for lo in range(0, 600, 200):
            engine.update(feed[lo : lo + 200])
        assert engine.scene.capacity >= 600
        assert engine.scene.num_builds == 1


class TestLifecycle:
    """release()/snapshot()/context-manager — the serving layer's hooks."""

    def test_release_is_idempotent_and_counted(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        engine.update(_blobs(200, seed=2))
        assert not engine.released
        engine.release()
        engine.release()
        assert engine.released
        assert engine.num_releases == 1

    def test_context_manager_releases_on_exit(self):
        with StreamingRTDBSCAN(eps=0.3, min_pts=5) as engine:
            engine.update(_blobs(150, seed=6))
            assert not engine.released
        assert engine.released
        assert engine.num_releases == 1

    def test_reingest_after_release_revives_engine(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        engine.update(_blobs(150, seed=6))
        engine.release()
        engine.update(_blobs(150, seed=7))
        assert not engine.released
        engine.release()
        assert engine.num_releases == 2

    def test_snapshot_mirrors_result(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=120)
        for chunk in drift_blob_stream(3, 60, seed=8):
            engine.update(chunk)
        snap = engine.snapshot()
        result = engine.result()
        assert snap["window_size"] == 120
        assert snap["labels"] == result.labels.tolist()
        assert snap["core_mask"] == result.core_mask.tolist()
        assert snap["window_arrivals"] == result.extra["window_arrivals"].tolist()
        assert snap["num_clusters"] == result.num_clusters
        assert snap["num_noise"] == result.num_noise
        assert snap["released"] is False
        assert snap["summary"]["num_updates"] == 3


# A filled 6k drift-blobs window taking 300-point slides: big enough that a
# refitted tree's extra node visits reach the build-minus-refit gap within a
# few updates.
_WINDOW, _SLIDE, _SLIDES, _EPS, _MIN_PTS = 6000, 300, 8, 0.11, 10


def _drift_window_run(policy: RefitPolicy, **engine_kwargs):
    """Fill the window in one update, then slide it; per-slide records."""
    chunks = list(drift_blob_stream(_WINDOW // _SLIDE + _SLIDES, _SLIDE, seed=4))
    engine = StreamingRTDBSCAN(
        eps=_EPS, min_pts=_MIN_PTS, window=_WINDOW, policy=policy, **engine_kwargs
    )
    engine.update(np.vstack(chunks[: _WINDOW // _SLIDE]))
    updates = [engine.update(chunk) for chunk in chunks[_WINDOW // _SLIDE :]]
    return {
        "actions": [u.accel_action for u in updates],
        "sims": [u.report.total_simulated_seconds for u in updates],
        "labels": [u.labels for u in updates],
        "total": engine.summary()["total_simulated_seconds"],
        "builds": engine.scene.num_builds,
    }


@pytest.fixture(scope="module")
def mode_runs():
    return {
        "auto": _drift_window_run(RefitPolicy(mode="auto")),
        # auto with the churn cap out of the way: only traversal pricing can
        # trigger a rebuild.
        "auto-priced": _drift_window_run(RefitPolicy(churn_rebuild_fraction=1.0)),
        "rebuild": _drift_window_run(RefitPolicy(mode="rebuild")),
        "refit": _drift_window_run(RefitPolicy(mode="refit")),
    }


class TestTraversalPricedPolicy:
    def test_auto_is_no_dearer_than_either_fixed_mode(self, mode_runs):
        for name in ("auto", "auto-priced"):
            assert mode_runs[name]["total"] <= mode_runs["rebuild"]["total"]
            assert mode_runs[name]["total"] < mode_runs["refit"]["total"]

    def test_traversal_penalty_alone_triggers_rebuilds(self, mode_runs):
        assert "rebuild" in mode_runs["auto-priced"]["actions"]
        # The slot buffer never grows after the fill, so no rebuild above
        # was forced by capacity.
        assert mode_runs["refit"]["builds"] == 1

    def test_labels_identical_across_modes(self, mode_runs):
        ref = mode_runs["rebuild"]["labels"]
        for name in ("auto", "auto-priced", "refit"):
            for got, want in zip(mode_runs[name]["labels"], ref):
                np.testing.assert_array_equal(got, want)

    def test_decisions_identical_across_kernel_tiers(self, mode_runs):
        """The rebuild decision reads exact op counters, so numpy and the
        native tier at any thread count take the same actions."""
        from repro.native import dispatch

        policy = RefitPolicy(churn_rebuild_fraction=1.0)
        tiers = [dict(native=False)]
        if dispatch.available():
            tiers += [dict(native=True, native_threads=1), dict(native=True, native_threads=2)]
        ref = mode_runs["auto-priced"]
        for tier in tiers:
            run = _drift_window_run(policy, **tier)
            assert run["actions"] == ref["actions"], tier
            assert run["sims"] == ref["sims"], tier
            for got, want in zip(run["labels"], ref["labels"]):
                np.testing.assert_array_equal(got, want)
