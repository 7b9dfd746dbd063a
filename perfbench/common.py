"""Shared pieces of the benchmark workloads: statistics, outcomes, checks."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Outcome", "median", "percentile", "tail", "self_peak_rss_mb", "labels_match",
           "report_counts"]


def median(values) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def percentile(values, q: float) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def tail(values) -> tuple[float, int]:
    """``(value, q)``: the highest of p99/p95 that has ten samples beyond it, else p90."""
    n = len(values)
    q = next((q for q in (99, 95) if n * (100 - q) >= 1000), 90)
    return percentile(values, q), q


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_counts(report) -> dict:
    """Operation counts of an ``ExecutionReport``, summed over its phases."""
    counts: dict = {}
    for phase in report.phases:
        for key, value in phase.counts.as_dict().items():
            counts[key] = counts.get(key, 0) + value
    return counts


def labels_match(got_labels, got_core, want_labels, want_core) -> bool:
    """Bit-identical labelling and core mask."""
    return (
        np.array_equal(np.asarray(got_labels), np.asarray(want_labels))
        and np.array_equal(np.asarray(got_core, dtype=bool), np.asarray(want_core, dtype=bool))
    )


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` and ``layers`` hold the metrics named in ``BENCHMARK.json``
    as ``name -> (value, sample count)``; ``detail`` holds the workload's own
    figures (for example ``fit_kdtree_s``) as ``name -> (value, unit, count)``
    for the human-readable report.  ``errors`` lists every failed output check.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
