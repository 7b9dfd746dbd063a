"""Incrementally maintained ε-sphere scene.

The batch pipeline rebuilds the whole scene per run; a stream cannot afford
that, so :class:`StreamingScene` keeps the spheres in a *slot buffer* sized
above the live window:

* **append** — new points fill free slots (recycled first, then fresh ones);
* **evict**  — a slot is *parked*: its sphere collapses to radius zero and
  moves to a point outside the data extent, so it can never produce a hit
  and barely disturbs traversal;
* **commit** — after the slot edits, the acceleration structure is brought
  up to date either by a *refit* (an OptiX accel update over the existing
  topology, priced by :meth:`DeviceCostModel.refit_time_s`) or by a full
  *rebuild* (new LBVH/SAH tree over the slot buffer), as decided by the
  :class:`~repro.streaming.policy.RefitPolicy`.

The scene also prices tree staleness for that policy.  Launches on a freshly
built tree set a per-ray traversal baseline; launches on a refitted tree add
whatever they cost above ``baseline × rays`` to ``stale_traversal_s``, which
a rebuild resets.  Neither figure is snapshotted: a restore replays the
window into a new scene, whose first commit is a rebuild.

Capacity grows geometrically when the buffer fills; growth invalidates the
tree topology and therefore forces a rebuild.  All query launches run
through the regular :class:`~repro.rtcore.pipeline.ScenePipeline`, so node
visits, intersection-program calls and kernel launches are charged to the
device exactly as in the batch path.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import make_backend
from ..geometry.sphere import SphereGeometry
from ..perf.cost_model import OpCounts
from ..rtcore.counters import LaunchStats
from ..rtcore.device import RTDevice
from ..rtcore.pipeline import ScenePipeline
from ..rtcore.programs import ProgramGroup
from .policy import RefitPolicy

__all__ = ["StreamingScene", "HostStreamingScene"]


class StreamingScene:
    """Slot-buffer ε-sphere scene with refit-aware maintenance.

    Parameters
    ----------
    eps:
        Sphere radius (the DBSCAN ε).
    device:
        Simulated RT device all work is charged to.
    builder, leaf_size, chunk_size:
        Acceleration-structure and launch parameters, as in the batch path.
    initial_capacity:
        Starting size of the slot buffer.
    growth_factor:
        Capacity multiplier when the buffer fills.
    """

    def __init__(
        self,
        eps: float,
        device: RTDevice | None = None,
        *,
        builder: str = "lbvh",
        leaf_size: int = 4,
        chunk_size: int = 16384,
        initial_capacity: int = 256,
        growth_factor: float = 2.0,
    ) -> None:
        if eps <= 0 or not np.isfinite(eps):
            raise ValueError("eps must be a positive finite number")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        self.eps = float(eps)
        self.device = device or RTDevice()
        self.builder = builder
        self.leaf_size = leaf_size
        self.chunk_size = chunk_size
        self.growth_factor = float(growth_factor)

        self.capacity = int(initial_capacity)
        self.centers = np.zeros((self.capacity, 3), dtype=np.float64)
        self.radii = np.zeros(self.capacity, dtype=np.float64)
        self.active = np.zeros(self.capacity, dtype=bool)
        self._free: list[int] = []
        self._high_water = 0

        self.pipeline: ScenePipeline | None = None
        self._needs_rebuild = True
        self._churned_since_build = 0
        # Traversal pricing: launch seconds and rays on the freshly built
        # tree (the per-ray baseline), and the excess over that baseline the
        # refitted tree has been charged since the last build.
        self._fresh = False
        self._fresh_seconds = 0.0
        self._fresh_rays = 0
        self.stale_traversal_s = 0.0

        #: maintenance statistics (exposed in benchmark reports).
        self.num_builds = 0
        self.num_refits = 0
        self.build_prims_total = 0
        self.refit_prims_total = 0

    # ------------------------------------------------------------------ #
    @property
    def num_active(self) -> int:
        return int(self.active.sum())

    def active_slots(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    # ------------------------------------------------------------------ #
    def _grow(self, needed: int) -> None:
        new_cap = max(int(np.ceil(self.capacity * self.growth_factor)), needed)
        pad = new_cap - self.capacity
        self.centers = np.vstack([self.centers, np.zeros((pad, 3))])
        self.radii = np.concatenate([self.radii, np.zeros(pad)])
        self.active = np.concatenate([self.active, np.zeros(pad, dtype=bool)])
        self.capacity = new_cap
        self._needs_rebuild = True

    def allocate(self, k: int) -> np.ndarray:
        """Reserve ``k`` slots and return their ids (lowest ids first).

        The caller must follow up with :meth:`set_points` and then
        :meth:`commit`.  Growing past the current capacity marks the
        structure for rebuild.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        self._free.sort()
        recycled = self._free[:k]
        self._free = self._free[k:]
        fresh_needed = k - len(recycled)
        if self._high_water + fresh_needed > self.capacity:
            self._grow(self._high_water + fresh_needed)
        fresh = list(range(self._high_water, self._high_water + fresh_needed))
        self._high_water += fresh_needed
        return np.asarray(recycled + fresh, dtype=np.intp)

    def set_points(self, slots: np.ndarray, points3: np.ndarray) -> None:
        """Activate ``slots`` as ε-spheres centred on ``points3``."""
        slots = np.asarray(slots, dtype=np.intp)
        self.centers[slots] = points3
        self.radii[slots] = self.eps
        self.active[slots] = True
        self._churned_since_build += int(slots.size)

    def deallocate(self, slots: np.ndarray) -> None:
        """Park ``slots``: zero radius, centre outside the data extent."""
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return
        self.active[slots] = False
        self.radii[slots] = 0.0
        self.centers[slots] = self._park_point()
        self._free.extend(int(s) for s in slots)
        self._churned_since_build += int(slots.size)

    def _park_point(self) -> np.ndarray:
        """A point safely outside the live data extent.

        Parked spheres have radius zero, so they can never confirm a hit;
        placing them just past the active bounding box (rather than at some
        astronomical coordinate) keeps the Morton quantisation of a later
        rebuild from squeezing the real data into a single cell.
        """
        if not self.active.any():
            return np.full(3, 1.0e6)
        act = self.centers[self.active]
        hi = act.max(axis=0)
        extent = float((hi - act.min(axis=0)).max())
        return hi + max(extent, 1.0) * 0.5 + 4.0 * self.eps

    # ------------------------------------------------------------------ #
    @property
    def churn_fraction(self) -> float:
        if self.capacity == 0:
            return 0.0
        return self._churned_since_build / self.capacity

    def commit(self, policy: RefitPolicy) -> tuple[str, float, OpCounts]:
        """Bring the acceleration structure up to date.

        Returns ``(action, simulated_seconds, counts)`` where ``action`` is
        ``"refit"`` or ``"rebuild"``.  Both paths are charged to the device:
        per-primitive refit/build work plus one kernel launch.
        """
        action = policy.choose(
            cost_model=self.device.cost_model,
            num_prims=self.capacity,
            churn_fraction=self.churn_fraction,
            has_rt_cores=self.device.has_rt_cores,
            structure_valid=self.pipeline is not None and not self._needs_rebuild,
            stale_traversal_s=self.stale_traversal_s,
        )
        if action == "rebuild":
            seconds = self._rebuild()
            counts = OpCounts(bvh_build_prims=self.capacity, kernel_launches=1)
            self.device.charge(counts)
        else:
            # Refit keeps the stale topology, so churn keeps accumulating
            # until a rebuild restores tree quality.
            assert self.pipeline is not None
            seconds = self.pipeline.refit_accel()  # charges the device itself
            self._fresh = False
            counts = OpCounts(bvh_refit_prims=self.capacity, kernel_launches=1)
            self.num_refits += 1
            self.refit_prims_total += self.capacity
        return action, seconds, counts

    def _rebuild(self) -> float:
        if self.pipeline is not None:
            self.pipeline.release()
        # Park every inactive slot (including never-used buffer slack) so the
        # new tree groups the dead primitives into one far-away subtree.
        inactive = ~self.active
        if inactive.any():
            self.centers[inactive] = self._park_point()
            self.radii[inactive] = 0.0
        geometry = SphereGeometry(self.centers, self.radii)
        self.pipeline = ScenePipeline(
            device=self.device,
            geometry=geometry,
            builder=self.builder,
            leaf_size=self.leaf_size,
            chunk_size=self.chunk_size,
        )
        seconds = self.pipeline.build_accel()
        self._needs_rebuild = False
        self._churned_since_build = 0
        self._fresh = True
        self._fresh_seconds = 0.0
        self._fresh_rays = 0
        self.stale_traversal_s = 0.0
        self.num_builds += 1
        self.build_prims_total += self.capacity
        return seconds

    @property
    def baseline_ray_s(self) -> float:
        """Traversal seconds per ray on the freshly built tree (0 until seen)."""
        return self._fresh_seconds / self._fresh_rays if self._fresh_rays else 0.0

    def _price_launch(self, stats: LaunchStats) -> None:
        """Fold one launch's traversal cost into the staleness accounting."""
        launch_s = stats.counts.kernel_launches * self.device.cost_model.kernel_launch_ns * 1e-9
        traversal_s = stats.simulated_seconds - launch_s
        if self._fresh:
            self._fresh_seconds += traversal_s
            self._fresh_rays += stats.num_rays
        elif self._fresh_rays:
            excess = traversal_s - self.baseline_ray_s * stats.num_rays
            self.stale_traversal_s += max(excess, 0.0)

    # ------------------------------------------------------------------ #
    def query_csr(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """ε-rays from the given (active) slots, confirmed hits as CSR.

        Row ``i`` of the returned ``(indptr, indices)`` adjacency holds the
        hit slot ids of query slot ``slots[i]``.  The intersection program
        applies the exact distance test, rejects parked primitives, and
        excludes the self hit — matching the batch sphere program's
        semantics.  Runs through the zero-materialisation CSR launch, so the
        candidate pair set is confirmed chunk-by-chunk inside the traversal.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
        if self.pipeline is None:
            raise RuntimeError("commit() must run before querying the scene")
        qpts = self.centers[slots]
        eps2 = self.eps * self.eps

        def intersection(query_idx: np.ndarray, prim_idx: np.ndarray) -> np.ndarray:
            d = qpts[query_idx] - self.centers[prim_idx]
            hit = np.einsum("ij,ij->i", d, d) <= eps2
            hit &= self.active[prim_idx]
            hit &= slots[query_idx] != prim_idx
            return hit

        programs = ProgramGroup(
            intersection=intersection,
            name="streaming-window",
            # Native-tier descriptor: parked primitives are rejected via the
            # active mask and the self hit via the slot map (prim != slots[q]),
            # mirroring the closure above bit-for-bit.
            payload={
                "native_sphere": {
                    "centers": self.centers,
                    "confirm_pts": qpts,
                    "r2": eps2,
                    "self_map": slots,
                    "active": self.active,
                }
            },
        )
        indptr, indices, stats = self.pipeline.launch_csr_queries(qpts, programs)
        self._price_launch(stats)
        return indptr, indices, stats

    def query_pairs(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """ε-rays from the given (active) slots against the whole scene.

        Returns ``(query_slot, hit_slot, stats)`` pairs in slot space —
        the expanded form of :meth:`query_csr`, sized by the window's live
        edge set (small per update), not by any candidate intermediate.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.intp),
                LaunchStats(),
            )
        indptr, indices, stats = self.query_csr(slots)
        q_rows = np.repeat(slots, np.diff(indptr))
        return q_rows, indices, stats

    def release(self) -> None:
        """Free the device-side scene."""
        if self.pipeline is not None:
            self.pipeline.release()
            self.pipeline = None
        self._needs_rebuild = True

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "num_active": self.num_active,
            "num_builds": self.num_builds,
            "num_refits": self.num_refits,
            "build_prims_total": self.build_prims_total,
            "refit_prims_total": self.refit_prims_total,
            "churn_fraction": self.churn_fraction,
            "stale_traversal_s": self.stale_traversal_s,
            "baseline_ray_s": self.baseline_ray_s,
        }


class HostStreamingScene(StreamingScene):
    """Slot-buffer window scene answered by a host neighbour backend.

    Same slot-buffer lifecycle as :class:`StreamingScene` (allocate /
    set_points / deallocate / commit / query), but instead of maintaining an
    ε-sphere BVH on the simulated RT device, :meth:`commit` rebuilds one of
    the registered host backends (``grid`` / ``kdtree`` / ``brute``) over the
    live window and :meth:`query_csr` answers through its external-query
    sweep.  Because every exact backend returns the canonical ε-adjacency,
    the streaming engine produces bit-identical labels on this scene and on
    the RT scene — which is what lets the snapshot/restore parity suite
    assert recovery on every substrate the engine supports.

    Host index structures have no refit path: any churn since the last
    commit forces a rebuild (host builds are cheap — the backends charge
    their own shader-core build costs to the device).
    """

    def __init__(
        self,
        eps: float,
        device: RTDevice | None = None,
        *,
        backend: str = "grid",
        leaf_size: int = 4,
        chunk_size: int = 16384,
        initial_capacity: int = 256,
        growth_factor: float = 2.0,
    ) -> None:
        super().__init__(
            eps,
            device,
            leaf_size=leaf_size,
            chunk_size=chunk_size,
            initial_capacity=initial_capacity,
            growth_factor=growth_factor,
        )
        self.backend_name = backend
        self._backend = None
        #: slot ids (ascending) the live index was built over; CSR indices
        #: from the backend are positions into this map.
        self._slot_map = np.empty(0, dtype=np.intp)

    # ------------------------------------------------------------------ #
    def commit(self, policy: RefitPolicy) -> tuple[str, float, OpCounts]:
        """Rebuild the host index over the live window (no refit path)."""
        if self._backend is not None:
            self._backend.release()
            self._backend = None
        slots = self.active_slots()
        self._slot_map = slots
        self._needs_rebuild = False
        self._churned_since_build = 0
        if slots.size == 0:
            return "none", 0.0, OpCounts()
        self._backend = make_backend(
            self.backend_name, self.centers[slots], self.eps, device=self.device
        )
        self.num_builds += 1
        self.build_prims_total += int(slots.size)
        return "rebuild", self._backend.build_seconds, OpCounts(kernel_launches=1)

    def query_csr(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """External ε-queries against the committed index, self hits removed.

        The backend sweep has no notion of identity for external query
        points, so the query point's own zero-distance hit comes back and is
        filtered here — matching the RT scene's ``prim != slots[q]``
        intersection semantics bit-for-bit.  Indices come back in slot space
        (ascending per row: the backend CSR is ascending in index space and
        the slot map is monotone).
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
        if self._backend is None:
            if self._slot_map.size == 0 and not self.active.any():
                # Empty committed window: every query row is empty.
                return (
                    np.zeros(slots.size + 1, dtype=np.int64),
                    np.empty(0, dtype=np.intp),
                    LaunchStats(),
                )
            raise RuntimeError("commit() must run before querying the scene")
        indptr, indices, stats = self._backend.neighbor_csr(self.centers[slots])
        mapped = self._slot_map[indices]
        rows = np.repeat(np.arange(slots.size, dtype=np.intp), np.diff(indptr))
        keep = mapped != slots[rows]
        out_indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=slots.size), out=out_indptr[1:])
        return out_indptr, mapped[keep], stats

    def release(self) -> None:
        if self._backend is not None:
            self._backend.release()
            self._backend = None
        self._slot_map = np.empty(0, dtype=np.intp)
        self._needs_rebuild = True

    def summary(self) -> dict:
        payload = super().summary()
        payload["backend"] = self.backend_name
        return payload
