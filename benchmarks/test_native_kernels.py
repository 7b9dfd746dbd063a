"""Microbenchmarks for the compiled hot-loop kernels.

Unlike the paper-reproduction benchmarks in this directory (which model the
paper's *simulated* GPU timings), these measure real wall-clock on the host:
each native kernel against the numpy loop it replaces, at the call-site
granularity the dispatcher uses.  They exist to localise a regression when
the perf profile's end-to-end speedup gate trips — run them to see *which*
kernel lost its edge.

Excluded from tier-1 (and plain ``pytest`` runs): wall-clock microbenches are
load-sensitive and would flake CI, and they need the compiled tier.  Opt in
with::

    REPRO_NATIVE_BENCH=1 pytest benchmarks/test_native_kernels.py --benchmark-only -s
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate

if os.environ.get("REPRO_NATIVE_BENCH", "") != "1":
    pytest.skip(
        "native microbenches are opt-in: set REPRO_NATIVE_BENCH=1",
        allow_module_level=True,
    )

from repro.native import dispatch

if not dispatch.available():
    pytest.skip("native kernel tier unavailable", allow_module_level=True)

N = int(20_000 * float(os.environ.get("REPRO_BENCH_SCALE", "0.5")))
MIN_PTS = 10


@pytest.fixture(scope="module")
def workload():
    pts = generate("ngsim", N, seed=7)
    eps = calibrate_eps(pts, MIN_PTS, 0.25)
    return pts, eps


def _timed_fit(benchmark, backend, pts, eps, native):
    from repro.dbscan.rt_dbscan import RTDBSCAN

    clusterer = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend, native=native)
    result = benchmark.pedantic(lambda: clusterer.fit(pts), rounds=3, iterations=1)
    expected = "native" if native else "numpy"
    assert result.extra["kernel_tier"] == expected
    return result


@pytest.mark.parametrize("native", (False, True), ids=("numpy", "native"))
class TestKernelMicrobench:
    def test_grid_stencil_gather(self, benchmark, workload, native):
        """27-stencil cell gather: the grid backend's whole query path."""
        pts, eps = workload
        _timed_fit(benchmark, "grid", pts, eps, native)

    def test_bvh_sphere_traversal(self, benchmark, workload, native):
        """Wavefront/DFS sphere-vs-BVH traversal: the rt backend hot loop."""
        pts, eps = workload
        _timed_fit(benchmark, "rt", pts, eps, native)

    def test_brute_blocked_scan(self, benchmark, workload, native):
        """Blocked all-pairs distance scan (quarter scale: O(n^2))."""
        pts, eps = workload
        _timed_fit(benchmark, "brute", pts[: max(N // 4, 500)], eps, native)

    def test_kdtree_build(self, benchmark, workload, native):
        """Median-split kd-tree build over the ε-sphere boxes (kdtree backend)."""
        from repro.bvh.kdtree import build_kdtree, build_kdtree_native
        from repro.geometry.aabb import AABB
        from repro.geometry.transforms import ensure_points3d

        pts, eps = workload
        p3 = ensure_points3d(pts)
        bounds = AABB(p3 - eps, p3 + eps)
        build = build_kdtree_native if native else build_kdtree
        bvh = benchmark.pedantic(
            lambda: build(bounds, leaf_size=16), rounds=3, iterations=1
        )
        assert bvh is not None

    def test_union_find_formation(self, benchmark, workload, native):
        """Cluster-formation union pass, isolated via a precomputed CSR."""
        pts, eps = workload
        from repro.api.registry import make_backend
        from repro.dbscan.disjoint_set import ParallelDisjointSet

        finder = make_backend("grid", pts, eps)
        try:
            indptr, indices, _ = finder.neighbor_csr()
        finally:
            finder.release()
        counts = np.diff(indptr)
        core = counts >= MIN_PTS
        # Core-to-core edges, exactly as the formation pass emits them.
        src = np.repeat(np.arange(pts.shape[0]), counts)
        keep = core[src] & core[indices]
        a, b = src[keep], indices[keep]

        def unions():
            ds = ParallelDisjointSet(pts.shape[0])
            with dispatch.override(native):
                ds.union_edges(a, b)
            return ds

        benchmark.pedantic(unions, rounds=3, iterations=1)
