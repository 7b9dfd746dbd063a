"""Bounding volume hierarchy storage.

Nodes are stored in structure-of-arrays form, mirroring how GPU BVH builders
lay out their trees: per-node bounds plus child links, and for leaves a
``(prim_start, prim_count)`` range into a primitive-index permutation.  All
arrays are plain NumPy so the traversal kernels can stay fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BVH", "INVALID_NODE"]

#: Sentinel for "no child" (leaf nodes).
INVALID_NODE = -1


@dataclass
class BVH:
    """A binary bounding volume hierarchy over a set of primitives.

    Attributes
    ----------
    node_lower, node_upper:
        ``(m, 3)`` per-node bounds.
    left, right:
        ``(m,)`` child node indices; ``INVALID_NODE`` for leaves.
    prim_start, prim_count:
        ``(m,)`` leaf ranges into ``prim_indices`` (zero count for internal
        nodes).
    prim_indices:
        ``(n,)`` permutation of primitive ids; each leaf owns a contiguous
        slice of it.
    prim_lower, prim_upper:
        ``(n, 3)`` bounds of the primitives, in *original* primitive order.
    """

    node_lower: np.ndarray
    node_upper: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prim_start: np.ndarray
    prim_count: np.ndarray
    prim_indices: np.ndarray
    prim_lower: np.ndarray
    prim_upper: np.ndarray
    builder: str = "lbvh"
    leaf_size: int = 4
    build_stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Structure-of-arrays lookups the wavefront traversal reads every
        # level: precomputed once at build time instead of being re-derived
        # per frontier pass.  ``children[i] = (left[i], right[i])`` lets the
        # traversal expand a frontier with a single fancy-index gather, and
        # the cached leaf mask avoids an O(num_nodes) comparison per level.
        self._leaf_mask = self.left == INVALID_NODE
        self._children = np.column_stack((self.left, self.right))

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.node_lower.shape[0])

    @property
    def num_primitives(self) -> int:
        return int(self.prim_indices.shape[0])

    @property
    def root(self) -> int:
        return 0

    def is_leaf(self, nodes: np.ndarray | int) -> np.ndarray | bool:
        """Leaf predicate for a node index or an array of node indices."""
        scalar = np.isscalar(nodes)
        arr = np.asarray(nodes)
        out = self.left[arr] == INVALID_NODE
        return bool(out) if scalar else out

    @property
    def leaf_mask(self) -> np.ndarray:
        return self._leaf_mask

    @property
    def children(self) -> np.ndarray:
        """``(m, 2)`` child-pair table (SoA layout for the wavefront kernels)."""
        return self._children

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (computed lazily, cached in build_stats)."""
        if "depth" not in self.build_stats:
            self.build_stats["depth"] = len(self.internal_levels()) + 1
        return self.build_stats["depth"]

    def internal_levels(self) -> list[np.ndarray]:
        """Internal node ids grouped by depth, root level first."""
        levels = []
        frontier = np.array([self.root], dtype=np.intp)
        while frontier.size:
            internal = frontier[~self.leaf_mask[frontier]]
            if internal.size:
                levels.append(internal)
            frontier = self.children[internal].ravel()
        return levels

    def leaf_primitives(self, node: int) -> np.ndarray:
        """Primitive ids stored in a leaf node."""
        if not self.is_leaf(node):
            raise ValueError(f"node {node} is not a leaf")
        s = int(self.prim_start[node])
        c = int(self.prim_count[node])
        return self.prim_indices[s : s + c]

    def memory_bytes(self) -> int:
        """Device-memory footprint of the acceleration structure in bytes."""
        arrays = (
            self.node_lower, self.node_upper, self.left, self.right,
            self.prim_start, self.prim_count, self.prim_indices,
            self.prim_lower, self.prim_upper,
        )
        return int(sum(a.nbytes for a in arrays))

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on failure.

        Invariants checked:

        * every primitive appears exactly once across all leaves;
        * leaf ranges are disjoint and within bounds;
        * every internal node has two valid children;
        * every node's box contains its children's boxes (and, for leaves,
          the boxes of its primitives).
        """
        n = self.num_primitives
        leaf = self.leaf_mask
        assert leaf.any(), "BVH must contain at least one leaf"
        counts = self.prim_count[leaf]
        assert counts.sum() == n, "leaves must cover every primitive exactly once"
        assert (counts > 0).all(), "leaves must be non-empty"
        covered = np.sort(self.prim_indices)
        assert np.array_equal(covered, np.arange(n)), "prim_indices must be a permutation"

        internal = ~leaf
        assert (self.left[internal] >= 0).all() and (self.right[internal] >= 0).all()
        assert (self.left[internal] < self.num_nodes).all()
        assert (self.right[internal] < self.num_nodes).all()

        # parent contains children
        li = self.left[internal]
        ri = self.right[internal]
        for child in (li, ri):
            assert np.all(self.node_lower[internal] <= self.node_lower[child] + 1e-12)
            assert np.all(self.node_upper[internal] >= self.node_upper[child] - 1e-12)

        # leaves contain their primitives
        leaf_ids = np.flatnonzero(leaf)
        reps = self.prim_count[leaf_ids]
        owner = np.repeat(leaf_ids, reps)
        order = np.concatenate(
            [self.prim_indices[self.prim_start[i] : self.prim_start[i] + self.prim_count[i]]
             for i in leaf_ids]
        ) if leaf_ids.size else np.empty(0, dtype=np.intp)
        assert np.all(self.node_lower[owner] <= self.prim_lower[order] + 1e-12)
        assert np.all(self.node_upper[owner] >= self.prim_upper[order] - 1e-12)
