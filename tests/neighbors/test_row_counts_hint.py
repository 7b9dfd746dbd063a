"""The ``neighbor_csr(row_counts=...)`` hint: count once, validate always.

Stage 2 of Algorithm 3 passes stage 1's neighbour counts so the native
kernels size the CSR up front and traverse once.  The hint must never change
the answer: a correct hint yields the unhinted CSR and charged counts byte
for byte, and a wrong one raises ``ValueError`` naming the first bad row on
every tier — never a truncated or overrun adjacency.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import check_row_counts, hinted_indptr
from repro.api.registry import make_backend
from repro.data.synthetic import make_blobs
from repro.native import dispatch

BACKENDS = ("rt", "grid", "kdtree")
EPS = 0.35

TIERS = [
    pytest.param(False, id="numpy"),
    pytest.param(
        True,
        id="native",
        marks=pytest.mark.skipif(
            not dispatch.available(), reason="native kernel tier unavailable"
        ),
    ),
]


@pytest.fixture(scope="module")
def points():
    pts, _ = make_blobs(700, centers=3, std=0.3, seed=5)
    return pts


def _csr(backend, pts, native, queries=None, hint=None):
    with dispatch.override(native):
        finder = make_backend(backend, pts, EPS)
        try:
            counts, _ = finder.neighbor_counts(queries)
            if hint is None:
                hint = counts
            return counts, finder.neighbor_csr(queries, row_counts=hint)
        finally:
            finder.release()


@pytest.mark.parametrize("native", TIERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestRowCountsHint:
    def test_hinted_csr_matches_unhinted(self, points, backend, native):
        counts, (ip, ix, stats) = _csr(backend, points, native)
        with dispatch.override(native):
            finder = make_backend(backend, points, EPS)
            try:
                ip0, ix0, stats0 = finder.neighbor_csr()
            finally:
                finder.release()
        assert np.array_equal(np.diff(ip), counts)
        assert ip.tobytes() == ip0.tobytes()
        assert ix.dtype == ix0.dtype and ix.tobytes() == ix0.tobytes()
        assert stats.counts.as_dict() == stats0.counts.as_dict()
        assert stats.confirmed_hits == stats0.confirmed_hits == ix.size

    def test_external_queries_count_the_self_hit(self, points, backend, native):
        # The tiled convention: querying the indexed points as external
        # queries has no self filter, so each count includes the self hit
        # and still equals the CSR row length.
        queries = points[:200]
        counts, (ip, ix, _) = _csr(backend, points, native, queries=queries)
        rows = np.repeat(np.arange(200), np.diff(ip))
        assert np.array_equal(np.diff(ip), counts)
        assert np.all(np.bincount(rows[ix == rows], minlength=200) == 1)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_off_by_one_hint_raises(self, points, backend, native, delta):
        with dispatch.override(native):
            finder = make_backend(backend, points, EPS)
            try:
                counts, _ = finder.neighbor_counts()
                row = int(np.flatnonzero(counts > 0)[len(counts) // 3])
                bad = counts.copy()
                bad[row] += delta
                with pytest.raises(ValueError, match=f"at row {row}:"):
                    finder.neighbor_csr(row_counts=bad)
            finally:
                finder.release()

    def test_malformed_hint_raises(self, points, backend, native):
        with dispatch.override(native):
            finder = make_backend(backend, points, EPS)
            try:
                counts, _ = finder.neighbor_counts()
                with pytest.raises(ValueError, match="one integer per query row"):
                    finder.neighbor_csr(row_counts=counts[:-1])
                negative = counts.copy()
                negative[0] = -1
                with pytest.raises(ValueError, match="non-negative"):
                    finder.neighbor_csr(row_counts=negative)
            finally:
                finder.release()


class TestHelpers:
    def test_hinted_indptr(self):
        assert hinted_indptr(np.array([2, 0, 3]), 3).tolist() == [0, 2, 2, 5]
        with pytest.raises(ValueError):
            hinted_indptr(np.array([1.0, 2.0]), 2)

    def test_check_row_counts(self):
        check_row_counts(None, np.array([1, 2]))
        check_row_counts(np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(ValueError, match="at row 1: hinted 3, found 2"):
            check_row_counts(np.array([1, 3]), np.array([1, 2]))
