"""Count once: one traversal per charged launch on the native tier.

The cost model charges Algorithm 3's two launches (stage-1 counts, stage-2
CSR).  On the host the stage-2 CSR is sized from the stage-1 counts, so a
native fit runs exactly two traversal-kernel calls — not a third count
pass — while its charged operation counts stay those of the numpy tier.
The fill kernels the hint feeds are bounded: a row never writes past its
``indptr`` slice, whatever the caller hinted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import make_backend
from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.native import dispatch
from repro.partition.tiled import TiledRTDBSCAN

pytestmark = pytest.mark.skipif(
    not dispatch.available(), reason="native kernel tier unavailable"
)

EPS = 0.35
MIN_PTS = 6
TRAVERSALS = frozenset(("bvh_sphere", "grid_scan"))
SENTINEL = -7


@pytest.fixture(scope="module")
def points():
    pts, _ = make_blobs(800, centers=3, std=0.3, seed=17)
    return pts


class _KernelSpy:
    """Proxy over the native kernels that counts traversal-kernel calls."""

    def __init__(self, real, calls):
        self._real = real
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name not in TRAVERSALS:
            return attr

        def counted(*args, **kwargs):
            self._calls.append(name)
            return attr(*args, **kwargs)

        return counted


@pytest.fixture
def traversal_calls(monkeypatch):
    calls: list[str] = []
    real = dispatch.kernels

    def spy():
        nk = real()
        return None if nk is None else _KernelSpy(nk, calls)

    monkeypatch.setattr(dispatch, "kernels", spy)
    return calls


def _assert_same_charges(a, b):
    assert [p.name for p in a.report.phases] == [p.name for p in b.report.phases]
    for pa, pb in zip(a.report.phases, b.report.phases):
        assert pa.counts.as_dict() == pb.counts.as_dict(), pa.name
    assert a.report.total_simulated_seconds == b.report.total_simulated_seconds


class TestTraversalCount:
    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree"])
    def test_monolithic_fit_traverses_twice(self, points, backend, traversal_calls):
        native = RTDBSCAN(eps=EPS, min_pts=MIN_PTS, backend=backend, native=True).fit(points)
        assert len(traversal_calls) == 2
        numpy_r = RTDBSCAN(eps=EPS, min_pts=MIN_PTS, backend=backend, native=False).fit(points)
        assert native.extra["kernel_tier"] == "native"
        assert np.array_equal(native.labels, numpy_r.labels)
        _assert_same_charges(native, numpy_r)
        launches = [p.counts.kernel_launches for p in native.report.phases]
        assert launches == [p.counts.kernel_launches for p in numpy_r.report.phases]

    def test_tiled_fit_traverses_twice_per_tile(self, points, traversal_calls):
        native = TiledRTDBSCAN(
            eps=EPS, min_pts=MIN_PTS, backend="rt", tiles=4, native=True
        ).fit(points)
        assert len(traversal_calls) == 2 * native.extra["num_tiles"]
        numpy_r = TiledRTDBSCAN(
            eps=EPS, min_pts=MIN_PTS, backend="rt", tiles=4, native=False
        ).fit(points)
        assert np.array_equal(native.labels, numpy_r.labels)
        _assert_same_charges(native, numpy_r)

    def test_refit_traverses_once(self, points, traversal_calls):
        fitted = RTDBSCAN(eps=EPS, min_pts=MIN_PTS, native=True).fit(points)
        traversal_calls.clear()
        refit = fitted.refit(MIN_PTS + 4)
        assert traversal_calls == ["bvh_sphere"]
        fresh = RTDBSCAN(eps=EPS, min_pts=MIN_PTS + 4, native=False).fit(points)
        assert np.array_equal(refit.labels, fresh.labels)


class TestBoundedFill:
    """Kernel level: short hints never write past ``indptr[-1]``."""

    def _short_hint(self, counts):
        hint = np.maximum(counts - 1, 0)
        assert counts[-1] > 0  # the last row would overrun into the tail
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(hint, out=indptr[1:])
        buf = np.full(int(indptr[-1]) + 64, SENTINEL, dtype=np.int64)
        return indptr, buf

    def test_bvh_sphere_fill_is_bounded(self, points):
        finder = make_backend("kdtree", points, EPS)
        try:
            counts, _ = finder.neighbor_counts()
            indptr, buf = self._short_hint(counts)
            actual = np.zeros_like(counts)
            nk = dispatch.kernels()
            assert nk.bvh_sphere(
                finder.points, finder.points, finder.bvh, finder.points, EPS * EPS,
                exclude_self=True, indptr=indptr, row_counts=actual, indices=buf,
            )
        finally:
            finder.release()
        assert np.all(buf[indptr[-1]:] == SENTINEL)
        assert np.array_equal(actual, counts)

    def test_grid_scan_fill_is_bounded(self, points):
        finder = make_backend("grid", points, EPS)
        try:
            counts, _ = finder.neighbor_counts()
            indptr, buf = self._short_hint(counts)
            actual = np.zeros_like(counts)
            grid = finder.grid
            nk = dispatch.kernels()
            assert nk.grid_scan(
                finder.points, finder._grid_soa(), grid.order, grid.cell_table,
                grid.cell_indptr, grid.origin, grid.cell_size, grid.dims,
                EPS * EPS, True, indptr=indptr, row_counts=actual, indices=buf,
            ) is not None
        finally:
            finder.release()
        assert np.all(buf[indptr[-1]:] == SENTINEL)
        assert np.array_equal(actual, counts)
