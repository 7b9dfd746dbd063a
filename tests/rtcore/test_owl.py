"""Tests for the OWL-style wrapper facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import csr_row_ids
from repro.rtcore.device import RTDevice
from repro.rtcore.owl import OWLGeomType, owl_context_create


def _points(n=150, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=(n, 2))


class TestOWLContext:
    def test_context_uses_default_device(self):
        ctx = owl_context_create()
        assert isinstance(ctx.device, RTDevice)

    def test_invalid_geom_kind_raises(self):
        with pytest.raises(ValueError):
            OWLGeomType(kind="boxes")

    def test_sphere_geom_roundtrip(self):
        pts = _points()
        ctx = owl_context_create()
        geom_type, geom = ctx.create_sphere_geom_type(
            np.column_stack([pts, np.zeros(len(pts))]), 0.4
        )
        assert geom_type.kind == "spheres"
        assert geom.num_primitives == len(pts)
        group = ctx.build_group(geom)
        assert group.build_seconds > 0
        indptr, pi, stats = group.launch_csr(np.column_stack([pts, np.zeros(len(pts))]))
        assert stats.num_rays == len(pts)
        # Self hits are excluded by default.
        assert not np.any(csr_row_ids(indptr) == pi)
        ctx.destroy()
        assert ctx.device.memory.used_bytes == 0

    def test_launch_counts_equals_launch_csr_rows(self):
        pts = np.column_stack([_points(100, seed=2), np.zeros(100)])
        ctx = owl_context_create()
        _, geom = ctx.create_sphere_geom_type(pts, 0.5)
        group = ctx.build_group(geom)
        counts, _ = group.launch_counts(pts)
        indptr, _, _ = group.launch_csr(pts)
        np.testing.assert_array_equal(counts, np.diff(indptr))

    def test_triangle_geom_type(self):
        pts = np.column_stack([_points(40, seed=3), np.zeros(40)])
        ctx = owl_context_create()
        geom_type, geom = ctx.create_triangle_geom_type(pts, 0.5, subdivisions=0)
        assert geom_type.kind == "triangles"
        assert geom.num_primitives == 40 * 20
        group = ctx.build_group(geom)
        indptr, pi, stats = group.launch_csr(pts)
        # Triangle-mode hits are mapped back to owner data points.
        assert pi.max(initial=-1) < 40
        assert stats.anyhit_calls >= stats.confirmed_hits

    def test_triangle_hits_match_sphere_hits(self):
        pts = np.column_stack([_points(60, seed=4), np.zeros(60)])
        ctx = owl_context_create()
        _, sphere_geom = ctx.create_sphere_geom_type(pts, 0.6)
        _, tri_geom = ctx.create_triangle_geom_type(pts, 0.6, subdivisions=0)
        sphere_group = ctx.build_group(sphere_geom)
        tri_group = ctx.build_group(tri_geom)
        sphere_ptr, sphere_idx, _ = sphere_group.launch_csr(pts)
        tri_ptr, tri_idx, _ = tri_group.launch_csr(pts)
        np.testing.assert_array_equal(tri_ptr, sphere_ptr)
        np.testing.assert_array_equal(tri_idx, sphere_idx)

    def test_group_without_programs_raises(self):
        pts = np.column_stack([_points(10), np.zeros(10)])
        ctx = owl_context_create()
        _, geom = ctx.create_sphere_geom_type(pts, 0.3)
        geom.geom_type.programs = None
        group = ctx.build_group(geom)
        with pytest.raises(ValueError, match="program group"):
            group.launch_csr(pts)


class TestTriangleLaunchCounts:
    """Triangle mode's CSR launch charges what the AnyHit ablation charges.

    Pinned values: one launch of 80 ε-rays (ε = 0.6) over the icosphere
    scene of ``_points(80, seed=7)``.  Every traversal candidate is an
    Intersection call, every confirmed triangle hit an AnyHit call, and
    ``confirmed_hits`` counts the de-duplicated (ray, owner) neighbours.
    """

    PINNED = {
        0: dict(intersection_calls=4258, anyhit_calls=1341, confirmed_hits=160,
                node_visits=8770),
        1: dict(intersection_calls=2323, anyhit_calls=729, confirmed_hits=148,
                node_visits=11084),
    }

    @staticmethod
    def _triangle_group(subdivisions):
        pts = np.column_stack([_points(80, seed=7), np.zeros(80)])
        ctx = owl_context_create()
        _, tri_geom = ctx.create_triangle_geom_type(pts, 0.6, subdivisions=subdivisions)
        return pts, ctx, ctx.build_group(tri_geom)

    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_count_launch_charges_anyhit_per_triangle_hit(self, subdivisions):
        pts, _, group = self._triangle_group(subdivisions)
        counts, stats = group.launch_counts(pts)
        pinned = self.PINNED[subdivisions]
        assert counts.sum() == stats.confirmed_hits == pinned["anyhit_calls"]
        assert stats.anyhit_calls == pinned["anyhit_calls"]
        assert stats.intersection_calls == pinned["intersection_calls"]
        assert stats.traversal.node_visits == pinned["node_visits"]

    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_row_counts_hint_is_checked(self, subdivisions):
        pts, _, group = self._triangle_group(subdivisions)
        indptr, indices, _ = group.launch_csr(pts)
        hinted_ptr, hinted_idx, _ = group.launch_csr(pts, row_counts=np.diff(indptr))
        np.testing.assert_array_equal(hinted_ptr, indptr)
        np.testing.assert_array_equal(hinted_idx, indices)
        bad = np.diff(indptr)
        bad[0] += 1
        with pytest.raises(ValueError, match="row 0"):
            group.launch_csr(pts, row_counts=bad)

    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_counts_and_adjacency(self, subdivisions):
        pts, ctx, tri_group = self._triangle_group(subdivisions)
        _, sphere_geom = ctx.create_sphere_geom_type(pts, 0.6)
        sphere_ptr, sphere_idx, _ = ctx.build_group(sphere_geom).launch_csr(pts)
        before = ctx.device.total_counts.anyhit_calls
        tri_ptr, tri_idx, stats = tri_group.launch_csr(pts)

        pinned = self.PINNED[subdivisions]
        assert stats.intersection_calls == pinned["intersection_calls"]
        assert stats.anyhit_calls == pinned["anyhit_calls"]
        assert stats.confirmed_hits == pinned["confirmed_hits"] == tri_idx.size
        assert stats.traversal.node_visits == pinned["node_visits"]
        assert stats.counts.rt_node_visits == pinned["node_visits"]
        assert ctx.device.total_counts.anyhit_calls - before == pinned["anyhit_calls"]

        # Canonical CSR: ascending, duplicate-free owner ids per row.
        rows = csr_row_ids(tri_ptr)
        assert np.all((np.diff(tri_idx) > 0) | (np.diff(rows) > 0))
        sphere_edges = set(zip(csr_row_ids(sphere_ptr).tolist(), sphere_idx.tolist()))
        tri_edges = set(zip(rows.tolist(), tri_idx.tolist()))
        if subdivisions == 0:
            np.testing.assert_array_equal(tri_ptr, sphere_ptr)
            np.testing.assert_array_equal(tri_idx, sphere_idx)
        else:
            # Finer triangles' boxes cover less of each sphere: a subset.
            assert tri_edges < sphere_edges
