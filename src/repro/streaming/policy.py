"""Refit-vs-rebuild decision policy.

Every window update leaves the acceleration structure stale: appended points
occupy previously parked slots, evicted points are parked far outside the
data extent, and drifting clusters stretch the node bounds the tree was
built for.  The maintainer must choose between

* **refit** — recompute node bounds bottom-up (cheap: no Morton sort, no
  node emission; the cost model prices it ~4x below a build per primitive),
  at the price of progressively worse tree quality as churn accumulates; or
* **rebuild** — pay the full per-primitive build cost and restore an
  optimally-partitioned tree.

:class:`RefitPolicy` makes that call from the device cost model, traversal
included.  A refit saves ``build_time_s - refit_time_s`` of maintenance now,
but every later ε-query on the stretched tree visits more nodes than it did
on the fresh one.  The scene measures that excess from the charged launch
counters (``stale_traversal_s``: traversal seconds above the fresh tree's
per-ray baseline, summed since the last build), and ``auto`` rebuilds once
it covers the saving.  This is the ski-rental rule: maintenance plus
traversal stays within 2x of the best refit/rebuild schedule in hindsight.
The churn bound (``churn_rebuild_fraction``) remains as a cap for trees
that churn fast but are rarely queried.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.cost_model import DeviceCostModel

__all__ = ["RefitPolicy"]

#: Valid policy modes.
MODES = ("auto", "refit", "rebuild")


@dataclass
class RefitPolicy:
    """Chooses how to bring the acceleration structure up to date.

    Parameters
    ----------
    mode:
        ``"auto"`` (cost-model driven, default), ``"refit"`` (always refit
        unless a rebuild is structurally required, e.g. capacity growth), or
        ``"rebuild"`` (rebuild on every update; the baseline the streaming
        benchmarks compare against).
    churn_rebuild_fraction:
        In ``auto`` mode, rebuild once more than this fraction of the
        primitives changed since the structure was last built, whatever the
        measured traversal penalty.
    """

    mode: str = "auto"
    churn_rebuild_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.churn_rebuild_fraction <= 1.0:
            raise ValueError("churn_rebuild_fraction must be in (0, 1]")

    def choose(
        self,
        *,
        cost_model: DeviceCostModel,
        num_prims: int,
        churn_fraction: float,
        has_rt_cores: bool = True,
        structure_valid: bool = True,
        stale_traversal_s: float = 0.0,
    ) -> str:
        """Return ``"refit"`` or ``"rebuild"`` for the pending update.

        ``churn_fraction`` is the fraction of primitives whose bounds changed
        since the last full build; ``structure_valid`` is False when no
        usable structure exists (first build, capacity growth), which forces
        a rebuild regardless of mode.  ``stale_traversal_s`` is the modelled
        traversal time the refitted tree has cost above the fresh tree's
        per-ray baseline since the last build; in ``auto`` mode a rebuild
        fires once it reaches the build-minus-refit gap.
        """
        if not structure_valid:
            return "rebuild"
        if self.mode == "rebuild":
            return "rebuild"
        if self.mode == "refit":
            return "refit"
        unit = "rt" if has_rt_cores else "sm"
        refit_s = cost_model.refit_time_s(num_prims, unit=unit)
        build_s = cost_model.build_time_s(num_prims, unit=unit)
        if refit_s >= build_s:
            return "rebuild"
        if stale_traversal_s >= build_s - refit_s:
            return "rebuild"
        if churn_fraction > self.churn_rebuild_fraction:
            return "rebuild"
        return "refit"
