"""Median-split KD-tree builder, materialised in BVH array form.

A KD-tree and a BVH differ in how they *choose* splits, not in what the
query kernels need: per-node bounds, child links and leaf primitive ranges.
Building the KD-tree straight into the :class:`~repro.bvh.node.BVH` layout
means the host KD-tree backend shares the exact traversal kernels (numpy
level-synchronous wavefront *and* the native DFS) that the RT path already
runs — so numpy-vs-native parity holds by construction and the charged
traversal counts are real, not synthetic depth estimates.

Splits follow the classic construction: each internal node splits its
primitive range ``[s, e)`` at ``mid = (s + e) // 2`` along the widest axis
of the range's centroid extent (the first axis wins ties).  The lower half
is the ``mid - s`` smallest primitives by the key *(centroid on that axis,
primitive id)*; the id breaks ties between equal centroids, so every split
set is unique even on duplicated or lattice points.  Each leaf's ids are
stored ascending.  Median splits keep the tree balanced, which is also what
makes the recursion depth logarithmic, and the node count a function of
``n`` and ``leaf_size`` alone (:func:`kdtree_num_nodes`).

Two builders produce byte-identical arrays under that rule:
:func:`build_kdtree` (numpy, one ``np.lexsort`` per internal node; the
fallback tier and the parity reference) and :func:`build_kdtree_native`
(the ``kdtree_build`` C kernel, which quickselects each split).
"""

from __future__ import annotations

import numpy as np

from ..geometry.aabb import AABB, aabb_centroids
from ..native import dispatch as native_dispatch
from .node import INVALID_NODE, BVH

__all__ = ["build_kdtree", "build_kdtree_native", "kdtree_num_nodes"]


def kdtree_num_nodes(n: int, leaf_size: int) -> int:
    """Node count of the median-split tree over ``n`` primitives.

    A range longer than ``leaf_size`` splits into ``n // 2`` and
    ``n - n // 2``, so each level holds at most two distinct range sizes
    and the count takes O(log n) steps.
    """
    sizes = {int(n): 1}  # range size -> how many ranges of that size
    total = 0
    while sizes:
        children: dict[int, int] = {}
        for size, mult in sizes.items():
            total += mult
            if size > leaf_size:
                for half in (size // 2, size - size // 2):
                    children[half] = children.get(half, 0) + mult
        sizes = children
    return total


def _prepare(bounds: AABB, leaf_size: int) -> tuple[np.ndarray, np.ndarray]:
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    prim_lower = np.ascontiguousarray(bounds.lower, dtype=np.float64)
    prim_upper = np.ascontiguousarray(bounds.upper, dtype=np.float64)
    if prim_lower.shape[0] == 0:
        raise ValueError("cannot build a KD-tree over zero primitives")
    return prim_lower, prim_upper


def build_kdtree(bounds: AABB, *, leaf_size: int = 16) -> BVH:
    """Build a median-split KD-tree over the primitive ``bounds`` in numpy.

    Parameters
    ----------
    bounds:
        Per-primitive AABBs (e.g. eps-spheres around the dataset points).
    leaf_size:
        Maximum number of primitives per leaf.

    Returns
    -------
    BVH
        A balanced hierarchy in BVH array form; leaves own contiguous
        slices of the median-partitioned primitive permutation.
    """
    prim_lower, prim_upper = _prepare(bounds, leaf_size)
    n = prim_lower.shape[0]
    centroids = aabb_centroids(prim_lower, prim_upper)
    perm = np.arange(n, dtype=np.intp)

    node_lower: list[np.ndarray] = []
    node_upper: list[np.ndarray] = []
    left: list[int] = []
    right: list[int] = []
    prim_start: list[int] = []
    prim_count: list[int] = []

    max_depth = 0
    num_leaves = 0
    # Preorder DFS; each entry is (start, end, parent, is_right_child, depth).
    todo: list[tuple[int, int, int, int, int]] = [(0, n, -1, 0, 1)]
    while todo:
        s, e, parent, is_right, depth = todo.pop()
        idx = len(left)
        if parent >= 0:
            (right if is_right else left)[parent] = idx
        ids = perm[s:e]
        node_lower.append(prim_lower[ids].min(axis=0))
        node_upper.append(prim_upper[ids].max(axis=0))
        max_depth = max(max_depth, depth)
        if e - s <= leaf_size:
            perm[s:e] = np.sort(ids)
            left.append(INVALID_NODE)
            right.append(INVALID_NODE)
            prim_start.append(s)
            prim_count.append(e - s)
            num_leaves += 1
            continue
        cen = centroids[ids]
        axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
        mid = (s + e) // 2
        perm[s:e] = ids[np.lexsort((ids, cen[:, axis]))]
        left.append(0)  # patched when the child is popped
        right.append(0)
        prim_start.append(0)
        prim_count.append(0)
        todo.append((mid, e, idx, 1, depth + 1))
        todo.append((s, mid, idx, 0, depth + 1))

    return BVH(
        node_lower=np.asarray(node_lower, dtype=np.float64),
        node_upper=np.asarray(node_upper, dtype=np.float64),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        prim_start=np.asarray(prim_start, dtype=np.intp),
        prim_count=np.asarray(prim_count, dtype=np.intp),
        prim_indices=perm,
        prim_lower=prim_lower,
        prim_upper=prim_upper,
        builder="kdtree",
        leaf_size=leaf_size,
        build_stats={"levels": max_depth, "num_leaves": num_leaves},
    )


def build_kdtree_native(bounds: AABB, *, leaf_size: int = 16) -> BVH | None:
    """:func:`build_kdtree` on the native tier, or ``None`` to use numpy.

    Returns ``None`` when the native kernels are off or unavailable; the
    arrays it does return are byte-identical to :func:`build_kdtree`'s.
    """
    nk = native_dispatch.kernels()
    if nk is None:
        return None
    prim_lower, prim_upper = _prepare(bounds, leaf_size)
    built = nk.kdtree_build(
        aabb_centroids(prim_lower, prim_upper), prim_lower, prim_upper,
        leaf_size, kdtree_num_nodes(prim_lower.shape[0], leaf_size),
    )
    if built is None:
        return None
    arrays, levels, num_leaves = built
    return BVH(
        **arrays,
        prim_lower=prim_lower,
        prim_upper=prim_upper,
        builder="kdtree",
        leaf_size=leaf_size,
        build_stats={"levels": levels, "num_leaves": num_leaves},
    )
