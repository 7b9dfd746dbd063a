"""Median-split kd-tree: numpy builder vs the native ``kdtree_build`` kernel.

Both builders split on the key (centroid on the widest axis, primitive id)
and store leaves ascending, so they must emit byte-identical BVH arrays —
including on inputs full of ties, where a value-only split would be free to
pick either of two equal primitives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.kdtree import build_kdtree, build_kdtree_native, kdtree_num_nodes
from repro.geometry.aabb import AABB
from repro.native import dispatch

FIELDS = (
    "node_lower", "node_upper", "left", "right",
    "prim_start", "prim_count", "prim_indices",
)


def _boxes(pts, r=0.25):
    pts = np.asarray(pts, dtype=np.float64)
    return AABB(pts - r, pts + r)


def _inputs():
    rng = np.random.default_rng(3)
    lattice = np.stack(
        np.meshgrid(np.arange(9), np.arange(7), np.arange(3), indexing="ij"), -1
    ).reshape(-1, 3)
    flat = np.c_[rng.random((300, 2)), np.zeros(300)]
    return {
        "uniform": rng.random((500, 3)),
        "duplicated": np.repeat(rng.random((40, 3)), 9, axis=0),
        "lattice": lattice,
        "constant_axis": flat,
        "all_equal": np.ones((37, 3)),
        "small": rng.random((16, 3)),
        "single": rng.random((1, 3)),
    }


INPUTS = _inputs()


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("leaf_size", [1, 4, 16])
def test_node_count_is_exact(name, leaf_size):
    n = INPUTS[name].shape[0]
    bvh = build_kdtree(_boxes(INPUTS[name]), leaf_size=leaf_size)
    bvh.validate()
    assert bvh.num_nodes == kdtree_num_nodes(n, leaf_size)
    if n <= leaf_size:
        assert bvh.num_nodes == 1


def test_ties_split_by_primitive_id():
    # Every centroid is equal: each split keeps the lowest ids on the left,
    # so the leaves are consecutive id ranges.
    bvh = build_kdtree(_boxes(np.zeros((10, 3))), leaf_size=2)
    assert bvh.prim_indices.tolist() == list(range(10))


@pytest.mark.skipif(not dispatch.available(), reason="native kernel tier unavailable")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("leaf_size", [1, 4, 16])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_native_build_matches_numpy(name, leaf_size, threads, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
    bounds = _boxes(INPUTS[name])
    ref = build_kdtree(bounds, leaf_size=leaf_size)
    got = build_kdtree_native(bounds, leaf_size=leaf_size)
    assert got is not None
    for field in FIELDS:
        a, b = getattr(ref, field), getattr(got, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert got.build_stats == ref.build_stats
    got.validate()


def test_native_build_defers_when_tier_off():
    with dispatch.override(False):
        assert build_kdtree_native(_boxes(np.zeros((4, 3)))) is None


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_kdtree(_boxes(np.zeros((4, 3))), leaf_size=0)
    with pytest.raises(ValueError):
        build_kdtree(_boxes(np.zeros((0, 3))))
