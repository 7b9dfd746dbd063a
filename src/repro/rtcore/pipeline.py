"""OptiX-style scene pipeline on the simulated RT device.

The pipeline mirrors the structure of Fig. 2 in the paper:

1.  the user supplies a geometry (ε-spheres, or their triangle tessellation
    for the Section VI-C ablation) together with its bounds program;
2.  ``build_accel`` hands the per-primitive AABBs to the device, which builds
    the BVH (hardware-accelerated when RT cores are present) and charges the
    build cost;
3.  ``launch_*`` generates one query ray per input point, traverses the BVH
    in "hardware" (the vectorised frontier kernels of :mod:`repro.bvh`), and
    invokes the user's Intersection program once per candidate primitive —
    plus, in triangle mode, the built-in AnyHit program once per confirmed
    triangle hit.

Every launch returns a :class:`LaunchStats` record with the operation counts
and the simulated device time, which the DBSCAN implementations aggregate
into their per-phase reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adjacency import check_row_counts, csr_row_ids, hinted_indptr
from ..bvh.lbvh import build_lbvh
from ..bvh.node import BVH
from ..bvh.refit import refit as refit_bvh
from ..bvh.sah import build_sah
from ..bvh.traversal import (
    TraversalStats,
    point_query_counts_early_exit,
    point_query_csr,
)
from ..geometry.sphere import SphereGeometry
from ..geometry.transforms import ensure_points3d
from ..geometry.triangle import TriangleGeometry
from ..native import dispatch as native_dispatch
from ..perf.cost_model import OpCounts
from .counters import LaunchStats
from .device import RTDevice
from .programs import ProgramGroup

__all__ = ["ScenePipeline"]


def _native_sphere_query(
    bvh, pts: np.ndarray, programs: ProgramGroup, collect: bool,
    row_counts: np.ndarray | None = None,
):
    """Run a sphere-program launch on the native tier, if possible.

    Engages only when the program group carries a ``native_sphere`` payload
    (the descriptor the sphere-geometry constructors attach; see
    :mod:`repro.rtcore.programs`) and the native kernels are active.  Returns
    ``None`` to run the numpy traversal, else ``(row_counts, traversal)`` in
    counting mode or ``(indptr, indices, traversal)`` in CSR mode — all
    byte-identical to the numpy kernels, stats included.

    A CSR launch is a count pass plus a fill pass.  Given ``row_counts`` (hit
    counts the caller already holds), the CSR is sized from them and the
    fill pass runs alone; its traversal counters are the ones returned, and
    a hint that disagrees with the fill's own row lengths raises
    ``ValueError``.
    """
    desc = programs.payload.get("native_sphere")
    if desc is None:
        return None
    nk = native_dispatch.kernels()
    if nk is None:
        return None
    qpts = np.ascontiguousarray(pts)
    confirm_pts = desc["confirm_pts"]
    centers = desc["centers"]
    if confirm_pts.shape[0] < qpts.shape[0]:
        return None
    nq = qpts.shape[0]
    counts = np.zeros(nq, dtype=np.int64)
    stats_buf = np.zeros(5, dtype=np.int64)
    args = (qpts, confirm_pts, bvh, centers, desc["r2"])
    out = dict(
        exclude_self=desc.get("exclude_self", False),
        self_map=desc.get("self_map"),
        active=desc.get("active"),
        row_counts=counts,
        stats=stats_buf,
    )
    if row_counts is None or not collect:
        if not nk.bvh_sphere(*args, **out):
            return None
        if not collect:
            return counts, _traversal_stats(nq, stats_buf)
        indptr = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
    else:
        indptr = hinted_indptr(row_counts, nq)
    indices = np.empty(int(indptr[-1]), dtype=np.intp)
    if not nk.bvh_sphere(*args, indptr=indptr, indices=indices, **out):
        return None
    check_row_counts(row_counts, counts)
    return indptr, indices, _traversal_stats(nq, stats_buf)


def _traversal_stats(nq: int, stats_buf: np.ndarray) -> TraversalStats:
    """``TraversalStats`` from the native kernel's five counters."""
    return TraversalStats(
        queries=nq,
        node_visits=int(stats_buf[0]),
        leaf_visits=int(stats_buf[1]),
        candidates=int(stats_buf[2]),
        confirmed=int(stats_buf[3]),
        levels=int(stats_buf[4]),
    )


@dataclass
class ScenePipeline:
    """A scene (geometry + acceleration structure) ready for ray launches.

    Parameters
    ----------
    device:
        The simulated GPU the pipeline runs on.
    geometry:
        Either a :class:`SphereGeometry` (the paper's normal mode) or a
        :class:`TriangleGeometry` (the Section VI-C triangle mode).
    builder:
        ``"lbvh"`` (hardware-style Morton builder, default) or ``"sah"``.
    leaf_size:
        Maximum primitives per BVH leaf.
    chunk_size:
        Number of query rays traversed per vectorised frontier pass.
    """

    device: RTDevice
    geometry: SphereGeometry | TriangleGeometry
    builder: str = "lbvh"
    leaf_size: int = 4
    chunk_size: int = 16384
    bvh: BVH | None = field(default=None, init=False)
    accel_build_seconds: float = field(default=0.0, init=False)

    # ------------------------------------------------------------------ #
    @property
    def num_primitives(self) -> int:
        return len(self.geometry)

    @property
    def is_triangle_mode(self) -> bool:
        return isinstance(self.geometry, TriangleGeometry)

    def build_accel(self) -> float:
        """Build the acceleration structure; returns the simulated build time.

        The device memory tracker is charged for the BVH and the primitive
        buffers, reproducing the footprint the OptiX builder would allocate.
        """
        bounds = self.geometry.bounds()
        if self.builder == "lbvh":
            self.bvh = build_lbvh(bounds, leaf_size=self.leaf_size)
        elif self.builder == "sah":
            self.bvh = build_sah(bounds, leaf_size=self.leaf_size)
        else:
            raise ValueError(f"unknown builder {self.builder!r}")
        self.device.memory.allocate("accel_structure", self.bvh.memory_bytes())
        if isinstance(self.geometry, SphereGeometry):
            prim_bytes = self.geometry.centers.nbytes + self.geometry.radii.nbytes
        else:
            prim_bytes = self.geometry.vertices.nbytes + self.geometry.faces.nbytes
        self.device.memory.allocate("primitive_buffers", prim_bytes)
        self.accel_build_seconds = self.device.accel_build_seconds(self.num_primitives)
        return self.accel_build_seconds

    def refit_accel(self) -> float:
        """Refit the acceleration structure to the geometry's current bounds.

        The tree topology (node layout, leaf ranges, primitive order) is
        preserved; only the per-primitive and per-node bounds are recomputed.
        This is the OptiX "accel update" path the streaming subsystem uses
        when a window update moves, adds or parks a small number of spheres.
        Returns the simulated refit time; the device counters are charged
        with the per-primitive refit work.
        """
        bvh = self._require_accel()
        self.bvh = refit_bvh(bvh, self.geometry.bounds())
        self.device.charge(
            OpCounts(bvh_refit_prims=self.num_primitives, kernel_launches=1)
        )
        return self.device.accel_refit_seconds(self.num_primitives)

    # ------------------------------------------------------------------ #
    def _require_accel(self) -> BVH:
        if self.bvh is None:
            raise RuntimeError("build_accel() must be called before launching rays")
        return self.bvh

    def _charge_launch(self, num_rays: int, traversal: TraversalStats,
                       confirmed_hits: int) -> LaunchStats:
        """Charge one launch to the device and return its statistics.

        Every traversal candidate runs the Intersection program; in triangle
        mode every confirmed triangle hit also runs the built-in AnyHit.
        """
        stats = LaunchStats(num_rays=num_rays, traversal=traversal)
        stats.intersection_calls = traversal.candidates
        if self.is_triangle_mode:
            stats.anyhit_calls = traversal.confirmed
        stats.confirmed_hits = confirmed_hits
        counts = OpCounts(kernel_launches=1)
        if self.device.has_rt_cores:
            counts.rt_node_visits = traversal.node_visits
        else:
            counts.sm_node_visits = traversal.node_visits
        counts.intersection_calls = stats.intersection_calls
        counts.anyhit_calls = stats.anyhit_calls
        stats.counts = counts
        stats.simulated_seconds = self.device.charge(counts)
        return stats

    # ------------------------------------------------------------------ #
    def launch_csr_queries(
        self,
        points: np.ndarray,
        programs: ProgramGroup,
        *,
        row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """Launch one ε-ray per point and return confirmed hits as a CSR adjacency.

        The zero-materialisation stage-2 launch: candidates are confirmed by
        the Intersection program chunk-by-chunk inside the traversal and the
        confirmed neighbour lists come back in canonical CSR form
        (``indptr``, ``indices``) — the full candidate pair set never exists
        in memory.

        In triangle mode every confirmed triangle hit runs the built-in
        AnyHit program, which maps the triangle to the data point owning it
        (one AnyHit call charged per hit); each row's owners are then
        de-duplicated, so the adjacency is the canonical point CSR a sphere
        launch returns.

        ``row_counts`` optionally gives each query's confirmed-hit count up
        front (stage 1's neighbour counts).  The native sphere launch then
        traverses once instead of counting and filling; every path checks
        the hint against the launch's row lengths and raises ``ValueError``
        at the first mismatch.  Charged counts are unchanged: one launch.
        """
        bvh = self._require_accel()
        pts = ensure_points3d(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        native = None
        if not self.is_triangle_mode:
            native = _native_sphere_query(
                bvh, pts, programs, collect=True, row_counts=row_counts
            )
        if native is not None:
            indptr, indices, traversal = native
        else:
            indptr, indices, traversal = point_query_csr(
                bvh, pts, programs.intersection, chunk_size=self.chunk_size
            )
            if self.is_triangle_mode:
                indptr, indices = self._owner_csr(indptr, indices)
            check_row_counts(row_counts, np.diff(indptr))
        stats = self._charge_launch(pts.shape[0], traversal, int(indices.size))
        return indptr, indices, stats

    def _owner_csr(
        self, indptr: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map a triangle-hit CSR to owner points, one entry per (row, owner)."""
        num_rows = indptr.shape[0] - 1
        num_owners = np.int64(self.num_owner_points())
        keys = csr_row_ids(indptr) * num_owners
        keys += self.geometry.owners[indices]
        keys = np.unique(keys)
        out = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // num_owners, minlength=num_rows), out=out[1:])
        return out, (keys % num_owners).astype(np.intp)

    def launch_count_queries(
        self,
        points: np.ndarray,
        programs: ProgramGroup,
        *,
        min_count: int | None = None,
    ) -> tuple[np.ndarray, LaunchStats]:
        """Launch one ε-ray per point and count confirmed hits per query.

        This is the launch RT-DBSCAN's core-point identification stage uses:
        the Intersection program increments a per-ray counter and nothing is
        stored.  ``min_count`` enables the early-exit traversal used by the
        FDBSCAN baseline (never by RT-DBSCAN itself, per Section VI-B).
        """
        bvh = self._require_accel()
        pts = ensure_points3d(np.atleast_2d(np.asarray(points, dtype=np.float64)))

        native = None
        if min_count is None and not self.is_triangle_mode:
            native = _native_sphere_query(bvh, pts, programs, collect=False)
        if native is not None:
            counts, traversal = native
        else:
            counts, traversal = point_query_counts_early_exit(
                bvh, pts, programs.intersection, min_count=min_count,
                chunk_size=self.chunk_size,
            )
        return counts, self._charge_launch(pts.shape[0], traversal, traversal.confirmed)

    # ------------------------------------------------------------------ #
    def num_owner_points(self) -> int:
        """Number of underlying data points behind the geometry."""
        if isinstance(self.geometry, TriangleGeometry):
            return int(self.geometry.owners.max()) + 1 if len(self.geometry) else 0
        return len(self.geometry)

    def release(self) -> None:
        """Free the device allocations owned by this pipeline."""
        self.device.memory.free("accel_structure")
        self.device.memory.free("primitive_buffers")
        self.bvh = None
