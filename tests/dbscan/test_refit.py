"""Tests for DBSCANResult.refit — the Section VI-B minPts shortcut."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import RTDBSCAN, rt_dbscan


@pytest.fixture(scope="module")
def blobs():
    pts, _ = make_blobs(500, centers=3, std=0.25, seed=21)
    return pts


@pytest.fixture(scope="module")
def fitted(blobs):
    return rt_dbscan(blobs, eps=0.4, min_pts=5)


class TestRefit:
    @pytest.mark.parametrize("new_min_pts", [1, 3, 8, 20, 100])
    def test_matches_fresh_fit(self, blobs, fitted, new_min_pts):
        refit = fitted.refit(new_min_pts)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=new_min_pts)
        np.testing.assert_array_equal(refit.labels, fresh.labels)
        np.testing.assert_array_equal(refit.core_mask, fresh.core_mask)

    def test_skips_stage_one(self, fitted):
        # The stored counts are reused as-is — no re-count happens.
        refit = fitted.refit(10)
        assert refit.neighbor_counts is fitted.neighbor_counts
        assert refit.report is None

    def test_params_updated_eps_preserved(self, fitted):
        refit = fitted.refit(10)
        assert refit.params.min_pts == 10
        assert refit.params.eps == fitted.params.eps
        assert refit.extra["refit_from_min_pts"] == fitted.params.min_pts

    def test_refit_chains(self, blobs, fitted):
        twice = fitted.refit(10).refit(3)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=3)
        np.testing.assert_array_equal(twice.labels, fresh.labels)

    def test_invalid_min_pts_raises(self, fitted):
        with pytest.raises(ValueError):
            fitted.refit(0)

    def test_requires_stored_counts(self, blobs):
        result = RTDBSCAN(eps=0.4, min_pts=5, keep_neighbor_counts=False).fit(blobs)
        with pytest.raises(ValueError, match="neighbor_counts"):
            result.refit(10)

    @pytest.mark.parametrize("backend", ["grid", "kdtree", "brute"])
    def test_refit_from_any_backend(self, blobs, backend):
        fitted = RTDBSCAN(eps=0.4, min_pts=5, backend=backend).fit(blobs)
        refit = fitted.refit(12)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=12)
        np.testing.assert_array_equal(refit.labels, fresh.labels)


class TestRefitCountHint:
    """refit hands the stored counts to the CSR launch as its row-count hint."""

    @pytest.fixture
    def hints(self, monkeypatch):
        from repro.neighbors.backend import KDTreeNeighborBackend

        seen = []
        real = KDTreeNeighborBackend.neighbor_csr

        def spy(self, queries=None, *, row_counts=None):
            seen.append(row_counts)
            return real(self, queries, row_counts=row_counts)

        monkeypatch.setattr(KDTreeNeighborBackend, "neighbor_csr", spy)
        return seen

    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree", "brute"])
    def test_exact_counts_are_the_hint(self, blobs, backend, hints):
        fitted = RTDBSCAN(eps=0.4, min_pts=5, backend=backend).fit(blobs)
        hints.clear()  # the kdtree fit's own stage 2 goes through the spy too
        twice = fitted.refit(12).refit(3)
        assert len(hints) == 2
        assert all(h is fitted.neighbor_counts for h in hints)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=3)
        np.testing.assert_array_equal(twice.labels, fresh.labels)

    def test_tiled_counts_are_the_hint(self, blobs, hints):
        from repro.partition.tiled import TiledRTDBSCAN

        fitted = TiledRTDBSCAN(eps=0.4, min_pts=5, tiles=4).fit(blobs)
        refit = fitted.refit(8)
        assert len(hints) == 1 and hints[0] is fitted.neighbor_counts
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=8)
        np.testing.assert_array_equal(refit.labels, fresh.labels)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"triangle_mode": True},
            {"backend": "sampled", "backend_kwargs": {"sample_rate": 0.5}},
        ],
        ids=["triangles", "sampled"],
    )
    def test_inexact_counts_are_not_a_hint(self, blobs, hints, kwargs):
        # Tessellated spheres and sampled candidates both undercount some
        # points, so their counts are not the exact CSR row lengths.
        fitted = RTDBSCAN(eps=0.4, min_pts=5, **kwargs).fit(blobs)
        exact = rt_dbscan(blobs, eps=0.4, min_pts=5).neighbor_counts
        assert not np.array_equal(fitted.neighbor_counts, exact)
        hints.clear()
        refit = fitted.refit(3)
        assert hints == [None]
        np.testing.assert_array_equal(refit.core_mask, fitted.neighbor_counts >= 3)

    def test_wrong_counts_raise(self, blobs):
        import dataclasses

        fitted = rt_dbscan(blobs, eps=0.4, min_pts=5)
        counts = fitted.neighbor_counts.copy()
        counts[7] += 1
        tampered = dataclasses.replace(fitted, neighbor_counts=counts)
        with pytest.raises(ValueError, match="at row 7:"):
            tampered.refit(8)
