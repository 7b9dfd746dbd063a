"""StreamingScene, RefitPolicy and the refit plumbing through the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import csr_row_ids
from repro.bvh.refit import refit
from repro.dbscan.disjoint_set import ParallelDisjointSet
from repro.geometry.aabb import AABB
from repro.perf.cost_model import DEFAULT_COST_MODEL, OpCounts
from repro.rtcore.device import RTDevice
from repro.rtcore.owl import owl_context_create
from repro.streaming import RefitPolicy, StreamingScene


class TestCostModelRefit:
    def test_refit_prices_below_build(self):
        for unit in ("rt", "sm"):
            assert (
                DEFAULT_COST_MODEL.refit_time_s(10_000, unit=unit)
                < DEFAULT_COST_MODEL.build_time_s(10_000, unit=unit)
            )

    def test_refit_pays_no_pipeline_setup(self):
        # For tiny primitive counts the build is dominated by the fixed
        # OptiX setup cost, which refit must not pay.
        build = DEFAULT_COST_MODEL.build_time_s(1, unit="rt")
        refit = DEFAULT_COST_MODEL.refit_time_s(1, unit="rt")
        assert refit < build / 5

    def test_opcounts_tracks_refit_prims(self):
        counts = OpCounts(bvh_refit_prims=7)
        merged = OpCounts().merge(counts)
        assert merged.bvh_refit_prims == 7
        assert "bvh_refit_prims" in merged.as_dict()


class TestOWLRefit:
    def test_group_refit_updates_bounds_and_charges_device(self):
        device = RTDevice()
        centers = np.random.default_rng(0).uniform(0, 5, size=(64, 3))
        context = owl_context_create(device)
        _, geom = context.create_sphere_geom_type(centers, 0.4)
        group = context.build_group(geom)
        # Move a primitive, refit, and check the root bounds follow it.
        geom.primitives.centers[0] = np.array([50.0, 50.0, 50.0])
        seconds = group.refit_accel()
        assert seconds > 0
        bvh = group.pipeline.bvh
        assert bvh.node_upper[0][0] >= 50.0
        assert bvh.builder.endswith("+refit")
        assert device.total_counts.bvh_refit_prims == 64
        # Refitting again must not stack another "+refit" suffix.
        group.refit_accel()
        assert bvh.builder.count("+refit") == 1 or group.pipeline.bvh.builder.count("+refit") == 1
        context.destroy()


class TestRefitPolicy:
    def test_invalid_structure_forces_rebuild(self):
        policy = RefitPolicy(mode="refit")
        action = policy.choose(
            cost_model=DEFAULT_COST_MODEL, num_prims=100,
            churn_fraction=0.0, structure_valid=False,
        )
        assert action == "rebuild"

    def test_modes(self):
        kwargs = dict(cost_model=DEFAULT_COST_MODEL, num_prims=1000, churn_fraction=0.1)
        assert RefitPolicy(mode="rebuild").choose(**kwargs) == "rebuild"
        assert RefitPolicy(mode="refit").choose(**kwargs) == "refit"
        assert RefitPolicy(mode="auto").choose(**kwargs) == "refit"

    def test_auto_rebuilds_on_high_churn(self):
        policy = RefitPolicy(mode="auto", churn_rebuild_fraction=0.25)
        assert (
            policy.choose(cost_model=DEFAULT_COST_MODEL, num_prims=1000, churn_fraction=0.5)
            == "rebuild"
        )

    def test_stale_traversal_rebuilds_at_the_build_refit_gap(self):
        policy = RefitPolicy(mode="auto", churn_rebuild_fraction=1.0)
        gap = DEFAULT_COST_MODEL.build_time_s(1000) - DEFAULT_COST_MODEL.refit_time_s(1000)
        kwargs = dict(cost_model=DEFAULT_COST_MODEL, num_prims=1000, churn_fraction=0.1)
        assert policy.choose(**kwargs) == "refit"
        assert policy.choose(**kwargs, stale_traversal_s=0.999 * gap) == "refit"
        assert policy.choose(**kwargs, stale_traversal_s=gap) == "rebuild"
        assert policy.choose(**kwargs, stale_traversal_s=2 * gap) == "rebuild"
        # The fixed modes ignore the traversal penalty.
        for mode in ("refit", "rebuild"):
            assert RefitPolicy(mode=mode).choose(**kwargs, stale_traversal_s=2 * gap) == mode


def _per_node_refit_bounds(bvh, lower, upper):
    """Reference refit: per-leaf reduction, then one node at a time bottom-up."""
    node_lower = bvh.node_lower.copy()
    node_upper = bvh.node_upper.copy()
    for i in np.flatnonzero(bvh.leaf_mask):
        prims = bvh.prim_indices[bvh.prim_start[i] : bvh.prim_start[i] + bvh.prim_count[i]]
        node_lower[i] = lower[prims].min(axis=0)
        node_upper[i] = upper[prims].max(axis=0)
    for i in np.flatnonzero(~bvh.leaf_mask)[::-1]:
        node_lower[i] = np.minimum(node_lower[bvh.left[i]], node_lower[bvh.right[i]])
        node_upper[i] = np.maximum(node_upper[bvh.left[i]], node_upper[bvh.right[i]])
    return node_lower, node_upper


class TestLevelwiseRefit:
    @pytest.mark.parametrize("builder", ["lbvh", "sah"])
    def test_matches_per_node_loop_after_park_and_recycle(self, builder):
        rng = np.random.default_rng(3)
        scene = StreamingScene(0.2, RTDevice(), builder=builder, initial_capacity=512)
        slots = scene.allocate(500)
        scene.set_points(slots, rng.uniform(0, 4, size=(500, 3)))
        scene.commit(RefitPolicy())
        built = scene.pipeline.bvh
        scene.deallocate(slots[::3])
        again = scene.allocate(100)
        scene.set_points(again, rng.uniform(-2, 6, size=(100, 3)))
        action, _, _ = scene.commit(RefitPolicy(mode="refit"))
        assert action == "refit"

        got = scene.pipeline.bvh
        bounds = scene.pipeline.geometry.bounds()
        ref_lower, ref_upper = _per_node_refit_bounds(built, bounds.lower, bounds.upper)
        np.testing.assert_array_equal(got.node_lower, ref_lower)
        np.testing.assert_array_equal(got.node_upper, ref_upper)
        # Refit keeps the topology and only moves bounds.
        np.testing.assert_array_equal(got.left, built.left)
        np.testing.assert_array_equal(got.prim_indices, built.prim_indices)

    def test_single_leaf_tree(self):
        scene = StreamingScene(0.2, RTDevice(), initial_capacity=2)
        slots = scene.allocate(2)
        scene.set_points(slots, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        scene.commit(RefitPolicy())
        bvh = scene.pipeline.bvh
        moved = AABB(np.full((2, 3), -1.0), np.full((2, 3), 3.0))
        out = refit(bvh, moved)
        assert np.array_equal(out.node_lower[0], [-1.0, -1.0, -1.0])
        assert np.array_equal(out.node_upper[0], [3.0, 3.0, 3.0])



class TestStreamingScene:
    def _scene(self, **kwargs) -> StreamingScene:
        return StreamingScene(0.5, RTDevice(), initial_capacity=16, **kwargs)

    def test_allocate_recycles_lowest_slots_first(self):
        scene = self._scene()
        slots = scene.allocate(4)
        scene.set_points(slots, np.zeros((4, 3)))
        scene.commit(RefitPolicy())
        scene.deallocate(slots[[2, 0]])
        again = scene.allocate(3)
        assert list(again) == [0, 2, 4]

    def test_growth_marks_rebuild(self):
        scene = self._scene()
        slots = scene.allocate(10)
        scene.set_points(slots, np.random.default_rng(1).uniform(0, 1, (10, 3)))
        action, _, _ = scene.commit(RefitPolicy())
        assert action == "rebuild"
        more = scene.allocate(20)  # exceeds capacity 16
        assert scene.capacity >= 30
        scene.set_points(more, np.random.default_rng(2).uniform(0, 1, (20, 3)))
        action, _, counts = scene.commit(RefitPolicy(mode="refit"))
        assert action == "rebuild"  # growth invalidates the topology
        assert counts.bvh_build_prims == scene.capacity

    def test_parked_slots_never_hit(self):
        scene = self._scene()
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.6, 0.0, 0.0]])
        slots = scene.allocate(3)
        scene.set_points(slots, pts)
        scene.commit(RefitPolicy())
        scene.deallocate(slots[1:2])
        scene.commit(RefitPolicy())
        indptr, indices, _ = scene.query_csr(slots[[0, 2]])
        # With the middle sphere parked the remaining points are 0.6 apart —
        # beyond eps=0.5 — so no pair may survive, least of all one
        # involving the parked slot.
        np.testing.assert_array_equal(indptr, [0, 0, 0])
        assert indices.size == 0

    def test_query_excludes_self_and_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 2, size=(40, 3))
        scene = StreamingScene(0.4, RTDevice(), initial_capacity=64)
        slots = scene.allocate(40)
        scene.set_points(slots, pts)
        scene.commit(RefitPolicy())
        indptr, p, stats = scene.query_csr(slots)
        q = slots[csr_row_ids(indptr)]
        got = set(zip(q.tolist(), p.tolist()))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        expect = {
            (i, j)
            for i in range(40)
            for j in range(40)
            if i != j and d2[i, j] <= 0.4**2
        }
        assert got == expect
        assert stats.num_rays == 40

    def test_empty_query_is_free(self):
        scene = self._scene()
        indptr, indices, stats = scene.query_csr(np.empty(0, dtype=np.intp))
        np.testing.assert_array_equal(indptr, [0])
        assert indices.size == 0
        assert stats.counts.kernel_launches == 0

    def test_stale_traversal_accumulates_until_a_rebuild(self):
        rng = np.random.default_rng(5)
        scene = StreamingScene(0.15, RTDevice(), initial_capacity=2048)
        policy = RefitPolicy(mode="auto", churn_rebuild_fraction=1.0)
        slots = scene.allocate(2000)
        scene.set_points(slots, rng.uniform(0, 4, size=(2000, 3)))
        assert scene.commit(policy)[0] == "rebuild"
        scene.query_csr(slots)
        summary = scene.summary()
        assert summary["baseline_ray_s"] > 0.0
        assert summary["stale_traversal_s"] == 0.0

        # Recycle a quarter of the slots at new positions: the refitted
        # tree's leaves now straddle the domain and each query costs more.
        scene.deallocate(slots[::4])
        moved = scene.allocate(500)
        scene.set_points(moved, rng.uniform(0, 4, size=(500, 3)))
        assert scene.commit(policy)[0] == "refit"
        live = scene.active_slots()
        cm = scene.device.cost_model
        gap = cm.build_time_s(scene.capacity) - cm.refit_time_s(scene.capacity)
        for _ in range(100):
            scene.query_csr(live)
            if scene.stale_traversal_s >= gap:
                break
        assert scene.stale_traversal_s >= gap
        assert scene.churn_fraction < 1.0
        assert scene.commit(policy)[0] == "rebuild"
        assert scene.stale_traversal_s == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingScene(0.0)
        with pytest.raises(ValueError):
            StreamingScene(0.5, initial_capacity=0)
        with pytest.raises(ValueError):
            StreamingScene(0.5, growth_factor=1.0)


class TestDisjointSetGrow:
    def test_grow_preserves_sets(self):
        forest = ParallelDisjointSet(4)
        forest.union_edges(np.array([0]), np.array([1]))
        forest.grow(8)
        assert len(forest) == 8
        assert forest.find(0) == forest.find(1)
        assert forest.find(6) == 6
        with pytest.raises(ValueError):
            forest.grow(2)
