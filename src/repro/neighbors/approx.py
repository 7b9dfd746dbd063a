"""Approximate fixed-radius neighbour backends — the speed/agreement tier.

Every other backend in this package is **exact**: it returns the true
ε-adjacency and therefore bit-identical DBSCAN labels.  This module adds two
deliberately *inexact* substrates behind the same
:class:`~repro.neighbors.backend.NeighborBackend` protocol, registered as the
``lsh`` and ``sampled`` backends:

* :class:`LSHNeighborBackend` — random-projection LSH bucketing.  Each probe
  hashes every point onto a random direction, quantised into buckets of
  width ``width_factor · ε`` with a random offset; a query's candidates are
  the points sharing one of its buckets across all probes.  Candidates then
  run through the same exact blocked distance confirm the brute oracle uses
  (:func:`~repro.neighbors.brute.pairwise_within_blocks` semantics), so the
  backend has **perfect precision** — every reported pair is a true ε-pair —
  and recall below one: true pairs that never share a bucket are missed.
  The exhaustive BLAS prescreen of the brute backend is exactly what is
  skipped; that is the speed trade.
* :class:`SampledNeighborBackend` — sampled-candidate prescreen: candidates
  are a seeded random subset of ``sample_rate · n`` points, confirmed
  exactly.  Recall per edge ≈ ``sample_rate``; precision is again perfect.

The exactness contract of the tier:

* reported pairs are always true ε-pairs (the confirm is bit-exact), so
  approximate core counts never exceed the true counts and the approximate
  core set is a subset of the exact one;
* with a fixed ``seed``, raising the speed/recall knob (``recall_target`` /
  ``num_probes`` for LSH, ``sample_rate`` for sampling) only ever *adds*
  candidates — probe tables and sample sets are nested by construction — so
  the discovered edge set grows monotonically with the knob;
* at the maximum knob setting (``recall_target=1.0`` / ``sample_rate=1.0``)
  both backends degenerate to the exact blocked brute sweep and are
  bit-identical to the ``brute`` oracle.

Because labels through these backends are *not* bit-identical to the exact
reference, every run should carry a quantified agreement report (ARI plus
core/noise/partition agreement) — see :func:`repro.metrics.agreement_summary`,
``repro.cluster(..., reference=...)`` and the ``approx`` bench experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..adjacency import expand_ranges
from ..api.registry import register_backend
from ..native import dispatch as native_dispatch
from .backend import _HostNeighborBackend
from .brute import pairwise_within_blocks

__all__ = [
    "LSHNeighborBackend",
    "SampledNeighborBackend",
    "per_probe_recall",
    "probes_for_recall",
]


def per_probe_recall(radius: float, width: float) -> float:
    """Estimated probability that one probe co-buckets a worst-case ε-pair.

    For two points at distance ``radius``, the projected separation onto a
    standard-normal direction is half-normal with mean ``radius·sqrt(2/π)``;
    with a uniformly random bucket offset the co-bucket probability given a
    projected separation ``s`` is ``max(0, 1 − s/width)``.  Evaluating at the
    mean separation gives a serviceable closed form, clamped away from 0/1 so
    the probe-count planner below stays finite.
    """
    s = math.sqrt(2.0 / math.pi) * radius / width
    return min(0.95, max(0.05, 1.0 - s))


def probes_for_recall(
    recall_target: float, *, radius: float, width: float, max_probes: int = 32
) -> int | None:
    """Number of independent probes needed to reach ``recall_target``.

    Probes miss independently, so ``L`` probes reach recall
    ``1 − (1 − p1)^L`` with ``p1`` the single-probe estimate above.  Returns
    ``None`` for ``recall_target >= 1.0``: no finite probe count guarantees
    full recall, which is the signal to fall back to the exhaustive sweep.
    """
    if not 0.0 < recall_target <= 1.0:
        raise ValueError(
            f"recall_target must be in (0, 1], got {recall_target}"
        )
    if recall_target >= 1.0:
        return None
    p1 = per_probe_recall(radius, width)
    needed = math.log1p(-recall_target) / math.log1p(-p1)
    return max(1, min(int(max_probes), math.ceil(needed)))


def _brute_scan(backend, qpts, self_query, collect):
    """The exact blocked sweep (shared max-knob fallback of both backends)."""
    nq = qpts.shape[0]
    row_counts = np.zeros(nq, dtype=np.int64)
    parts: list[np.ndarray] | None = [] if collect else None
    for lo, qi, di in pairwise_within_blocks(
        qpts, backend.points, backend.radius, block_size=backend.block_size
    ):
        if self_query:
            keep = qi != di
            qi, di = qi[keep], di[keep]
        hi = min(nq, lo + backend.block_size)
        row_counts[lo:hi] = np.bincount(qi - lo, minlength=hi - lo)
        if parts is not None:
            parts.append(di)
    return row_counts, parts, nq * backend.num_points, 0


@register_backend(
    "lsh",
    description="Approximate random-projection LSH bucketing with exact confirm "
                "(recall_target/num_probes speed knob).",
    exact=False,
    native=True,
    knobs=("recall_target", "num_probes", "width_factor", "seed", "max_probes",
           "block_size"),
)
@dataclass
class LSHNeighborBackend(_HostNeighborBackend):
    """Random-projection LSH: tunable-recall candidates, exact confirm.

    Parameters
    ----------
    recall_target:
        Desired per-edge recall in ``(0, 1]``.  Mapped to a probe count with
        :func:`probes_for_recall`; ``1.0`` switches to the exhaustive exact
        sweep (bit-identical to the ``brute`` backend).
    num_probes:
        Explicit probe-table count, overriding the ``recall_target`` mapping.
    width_factor:
        Bucket width in units of ε.  Wider buckets raise per-probe recall
        but admit more candidates per query.
    seed:
        Seed of the probe directions/offsets.  Probe tables are generated
        sequentially, so two backends sharing a seed have *nested* tables:
        the one with more probes discovers a superset of the other's pairs.
    """

    recall_target: float = 0.9
    num_probes: int | None = None
    width_factor: float = 4.0
    seed: int = 0
    max_probes: int = 32
    block_size: int = 4096

    def _build(self) -> None:
        if self.num_probes is not None and int(self.num_probes) < 1:
            raise ValueError(f"num_probes must be a positive integer, got {self.num_probes}")
        if self.width_factor <= 0 or not np.isfinite(self.width_factor):
            raise ValueError(f"width_factor must be positive, got {self.width_factor}")
        self.width = float(self.width_factor) * self.radius
        if self.num_probes is not None:
            probes: int | None = int(self.num_probes)
        else:
            probes = probes_for_recall(
                self.recall_target, radius=self.radius, width=self.width,
                max_probes=self.max_probes,
            )
        self.exhaustive = probes is None
        # Probes are drawn one (direction, offset) pair at a time so that a
        # fixed seed yields nested tables across different probe counts —
        # the monotonicity contract of the tier.
        rng = np.random.default_rng(self.seed)
        self._directions: list[np.ndarray] = []
        self._offsets: list[float] = []
        self._orders: list[np.ndarray] = []
        self._sorted_keys: list[np.ndarray] = []
        table_bytes = 0
        for _ in range(probes or 0):
            direction = rng.normal(size=3)
            offset = float(rng.uniform(0.0, self.width))
            keys = self._hash(self.points, direction, offset)
            order = np.argsort(keys, kind="stable").astype(np.intp)
            self._directions.append(direction)
            self._offsets.append(offset)
            self._orders.append(order)
            self._sorted_keys.append(keys[order])
            table_bytes += order.nbytes + keys.nbytes
        self.build_seconds = (
            self.device.cost_model.build_time_s(self.num_points, unit="sm")
            if not self.exhaustive else 0.0
        )
        if table_bytes:
            self._mem_label = f"lsh_backend_{id(self)}"
            self.device.memory.allocate(self._mem_label, table_bytes)

    @property
    def effective_probes(self) -> int:
        """Number of probe tables actually built (0 in exhaustive mode)."""
        return len(self._orders)

    def _hash(self, pts: np.ndarray, direction: np.ndarray, offset: float) -> np.ndarray:
        return np.floor((pts @ direction + offset) / self.width).astype(np.int64)

    def _scan(self, qpts, self_query, collect, indptr=None):
        if self.exhaustive:
            return _brute_scan(self, qpts, self_query, collect)
        r2 = self.radius * self.radius
        n = self.num_points
        nq = qpts.shape[0]
        row_counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] | None = [] if collect else None
        candidates = 0
        for lo in range(0, nq, self.block_size):
            hi = min(nq, lo + self.block_size)
            block = qpts[lo:hi]
            rep_parts: list[np.ndarray] = []
            cand_parts: list[np.ndarray] = []
            for direction, offset, order, sorted_keys in zip(
                self._directions, self._offsets, self._orders, self._sorted_keys
            ):
                qkeys = self._hash(block, direction, offset)
                starts = np.searchsorted(sorted_keys, qkeys, side="left")
                cnts = np.searchsorted(sorted_keys, qkeys, side="right") - starts
                cand_parts.append(order[expand_ranges(starts, cnts)])
                rep_parts.append(
                    np.repeat(np.arange(lo, hi, dtype=np.intp), cnts)
                )
            rep_q = np.concatenate(rep_parts) if rep_parts else np.empty(0, dtype=np.intp)
            cand = np.concatenate(cand_parts) if cand_parts else np.empty(0, dtype=np.intp)
            candidates += int(rep_q.size)
            # Dedupe pairs discovered by several probes; the sorted unique
            # composite key is (q, candidate) in canonical CSR order.
            pair_key = np.unique(rep_q.astype(np.int64) * n + cand)
            rep_q = (pair_key // n).astype(np.intp)
            cand = (pair_key % n).astype(np.intp)
            if self._confirm_native(
                block, lo, hi, rep_q, cand, r2, self_query, row_counts, parts
            ):
                continue
            d = block[rep_q - lo] - self.points[cand]
            hit = np.einsum("ij,ij->i", d, d) <= r2
            if self_query:
                hit &= rep_q != cand
            hq, hc = rep_q[hit], cand[hit]
            row_counts[lo:hi] = np.bincount(hq - lo, minlength=hi - lo)
            if parts is not None:
                parts.append(hc)
        return row_counts, parts, candidates, nq * self.effective_probes

    def _confirm_native(
        self, block, lo, hi, rep_q, cand, r2, self_query, row_counts, parts
    ) -> bool:
        """Confirm one block's deduped pairs on the native tier.

        ``rep_q``/``cand`` come out of the composite-key dedupe sorted by
        ``(query, candidate)``, so each row's pair range is found with one
        ``searchsorted`` and hits emitted in pair order are already the
        canonical ascending CSR row — the C kernel never needs a sort.
        Fills ``row_counts[lo:hi]`` (and appends the indices fragment when
        collecting); returns False to run the numpy confirm instead.
        """
        nk = native_dispatch.kernels()
        if nk is None:
            return False
        qblock = np.ascontiguousarray(block)
        cands = np.ascontiguousarray(cand, dtype=np.int64)
        pair_indptr = np.ascontiguousarray(
            np.searchsorted(rep_q, np.arange(lo, hi + 1)), dtype=np.int64
        )
        rc = np.zeros(hi - lo, dtype=np.int64)
        if not nk.confirm_pairs(
            qblock, lo, self.points, cands, pair_indptr, r2, self_query,
            row_counts=rc,
        ):
            return False
        row_counts[lo:hi] = rc
        if parts is not None:
            indptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(rc, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.intp)
            nk.confirm_pairs(
                qblock, lo, self.points, cands, pair_indptr, r2, self_query,
                indptr=indptr, indices=indices,
            )
            parts.append(indices)
        return True


@register_backend(
    "sampled",
    description="Approximate sampled-candidate prescreen with exact confirm "
                "(sample_rate speed knob).",
    exact=False,
    native=True,
    knobs=("sample_rate", "seed", "block_size"),
)
@dataclass
class SampledNeighborBackend(_HostNeighborBackend):
    """Sampled-candidate search: confirm against a seeded point subset.

    The candidate pool is a fixed random subset of ``sample_rate · n``
    points drawn once at build time from a seeded permutation, so two
    backends sharing a seed have *nested* samples across different rates.
    Every query runs the exact blocked confirm against the pool only;
    per-edge recall is therefore ≈ ``sample_rate`` and precision is perfect.
    ``sample_rate=1.0`` is bit-identical to the ``brute`` oracle.
    """

    sample_rate: float = 0.5
    seed: int = 0
    block_size: int = 1024

    def _build(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0 or not np.isfinite(self.sample_rate):
            raise ValueError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        n = self.num_points
        if self.sample_rate >= 1.0:
            k = n
        else:
            k = min(n, max(1, math.ceil(self.sample_rate * n))) if n else 0
        perm = np.random.default_rng(self.seed).permutation(n)
        self.sample = np.sort(perm[:k]).astype(np.intp)

    @property
    def sample_size(self) -> int:
        return int(self.sample.size)

    def _scan(self, qpts, self_query, collect, indptr=None):
        if self.sample_size == self.num_points:
            return _brute_scan(self, qpts, self_query, collect)
        nq = qpts.shape[0]
        pool = self.points[self.sample]
        row_counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] | None = [] if collect else None
        for lo, qi, di in pairwise_within_blocks(
            qpts, pool, self.radius, block_size=self.block_size
        ):
            gi = self.sample[di]  # ascending per row because sample is sorted
            if self_query:
                keep = qi != gi
                qi, gi = qi[keep], gi[keep]
            hi = min(nq, lo + self.block_size)
            row_counts[lo:hi] = np.bincount(qi - lo, minlength=hi - lo)
            if parts is not None:
                parts.append(gi)
        return row_counts, parts, nq * self.sample_size, 0
