"""Tests of the benchmark itself: metric coverage, output checks, tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import batch, run, service, stream
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, result = _bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif f"bench.trace_overhead_frac.{workload}" in result["metrics"]:
        assert result["metrics"][f"bench.trace_overhead_frac.{workload}"]["value"] != 0.0


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------- checks --
def _permuted(labels: np.ndarray) -> np.ndarray:
    """The same clusters under other ids: still a wrong labelling."""
    ids = np.unique(labels[labels >= 0])
    mapping = dict(zip(ids, np.roll(ids, 1)))
    return np.array([mapping.get(x, x) for x in labels])


@pytest.fixture(scope="module")
def fitted():
    from repro import RTDBSCAN
    from repro.data import make_blobs

    points, _ = make_blobs(600, centers=3, std=0.2, seed=3)
    result = RTDBSCAN(eps=0.3, min_pts=5, backend="grid").fit(points)
    assert len(np.unique(result.labels[result.labels >= 0])) >= 2
    return result


def test_batch_check_fires_on_corrupt_labels_and_counts(fitted):
    fp = batch.fingerprint(fitted)
    assert batch.check_fit("rt", fitted.labels, fitted.labels, fp, fp) is None
    assert batch.check_fit("rt", _permuted(fitted.labels), fitted.labels, fp, fp)
    drifted = (fp[0] * 1.01, fp[1])
    assert batch.check_fit("rt", fitted.labels, fitted.labels, drifted, fp)


def test_stream_checks_fire_on_corrupt_window_or_restore(fitted):
    labels, core = fitted.labels, fitted.core_mask
    assert stream.check_checkpoint(labels, core, fitted, labels, core) == []
    assert len(stream.check_checkpoint(_permuted(labels), core, fitted, labels, core)) == 2
    assert stream.check_checkpoint(labels, core, fitted, _permuted(labels), core) == [
        "restored engine's labelling differs from the donor's"
    ]
    assert stream.check_checkpoint(labels, core, fitted, labels, ~core)


def test_service_checks_fire_on_corrupt_labels(fitted):
    labels, core = fitted.labels, fitted.core_mask
    assert service.check_heavy(labels.tolist(), core.tolist(), fitted) is None
    assert service.check_heavy(_permuted(labels).tolist(), core.tolist(), fitted)
    assert service.check_light("light-0", labels, core, fitted) is None
    assert service.check_light("light-0", labels[::-1], core[::-1], fitted)


def test_batch_run_counts_a_corrupt_fit_as_failed(monkeypatch):
    state = batch.setup(5, "tiny", 1, None)
    make = batch._make

    class Corrupt:
        def __init__(self, inner):
            self.inner = inner

        def fit(self, points):
            result = self.inner.fit(points)
            result.labels = _permuted(result.labels)
            return result

    monkeypatch.setattr(batch, "_make",
                        lambda kind, eps, threads: Corrupt(make(kind, eps, threads))
                        if kind == "kdtree" else make(kind, eps, threads))
    out = batch.run(state, 0.0, Tracer(), False)
    assert out.failed == state.min_rounds
    assert all("kdtree" in e for e in out.errors)


def test_command_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")  # main() pins it; restore afterwards
    monkeypatch.setattr(batch, "check_fit", lambda *a: "corrupted on purpose")
    code = run.main(["--workload", "batch", "--seed", "5", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] > 0


# --------------------------------------------------------------- tracer --
def test_tracer_records_missing_entry_points_instead_of_crashing():
    class Layer:
        def work(self):
            return 1

    tracer = Tracer()
    layer = Layer()
    assert tracer.patch(layer, "renamed_away", "layer.gone") is False
    assert tracer.patch_factory(layer, "no_factory", {"m": "layer.m"}, span="layer.make") is False
    tracer.instrument(layer, {"work": "layer.work", "old_name": "layer.old"})
    with tracer.operation("op", traced=True):
        assert layer.work() == 1
    assert tracer.missing == {"layer.gone", "layer.m", "layer.make", "layer.old"}
    assert [s.name for s in tracer.spans] == ["layer.work", "op"]


def test_tracer_self_time_subtracts_children_and_unpatches():
    import types

    mod = types.SimpleNamespace(inner=lambda: sum(range(20000)))
    tracer = Tracer()
    tracer.patch(mod, "inner", "child")
    with tracer.operation("root", traced=True):
        mod.inner()
        mod.inner()
    with tracer.operation("root", traced=False):
        mod.inner()
    (root,) = [s for s in tracer.spans if s.name == "root"]
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 2 and all(c.parent == root.span_id for c in children)
    assert {s.trace_id for s in tracer.spans} == {root.trace_id}
    times = tracer.self_times()
    assert times["root"] == pytest.approx(
        root.duration - sum(c.duration for c in children), abs=1e-9)
    tracer.unpatch_all()
    assert not hasattr(mod.inner, "__wrapped_by_tracer__")
