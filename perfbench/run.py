"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs the same workload with spans recorded around
the layers' public entry points and reports the per-layer metrics, including
the tracer's own overhead.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); a readable
report with sample counts, the workload's own figures and the environment
goes to standard error, and the full record (plus the spans of a traced run)
to ``.perfbench_out/``.  The exit code is 1 when an output check failed, 2
when the program cannot be found and 3 when the run is invalid.

Seeds are inputs: the same seed gives the same data.  Seed
``HELD_OUT_SEED`` is kept out of tuning, so a claimed gain can be checked on
a seed it was not developed on.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
HELD_OUT_SEED = 9001
WORKLOADS = ("batch", "stream", "service")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="data size: 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(args, threads: int) -> dict:
    import repro
    from repro.native import dispatch

    status = dispatch.status()
    return {
        "nproc": threads,
        "native_tier": dispatch.active_tier(),
        "native_variant": status.get("variant"),
        "native_threads": status.get("resolved_threads"),
        "repro_version": repro.__version__,
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "held_out_seed": HELD_OUT_SEED,
    }


def _report(env, outcome, metrics, setup_times, tracer) -> None:
    err = sys.stderr
    print(f"# perfbench {env['workload']} seed={env['seed']} trace={env['trace']}", file=err)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()), file=err)
    print(f"# setup repeats: {', '.join(f'{s:.3f}s' for s in setup_times)}", file=err)
    print(f"{'metric':<40} {'value':>14} {'unit':<8} {'n':>6}", file=err)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']:<8} {m['n']:>6}", file=err)
    if outcome.detail:
        print("# workload figures", file=err)
        for name, (value, unit, n) in outcome.detail.items():
            print(f"{name:<40} {value:>14.6g} {unit:<8} {n:>6}", file=err)
    extra = {k: v for k, v in outcome.layers.items() if k not in metrics}
    if env["trace"] and extra:
        print("# layer figures not in BENCHMARK.json", file=err)
        for name, (value, n) in extra.items():
            print(f"{name:<40} {value:>14.6g} {'':<8} {n:>6}", file=err)
    if tracer.spans:
        layers = sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1])
        print("# traced self time per layer: "
              + ", ".join(f"{name}={seconds:.3f}s" for name, seconds in layers), file=err)
    if tracer.missing:
        print(f"# missing spans (entry point renamed or removed): {sorted(tracer.missing)}",
              file=err)
    print(f"# attempted={outcome.attempted} failed={outcome.failed}", file=err)
    for error in outcome.errors[:20]:
        print(f"# CHECK FAILED: {error}", file=err)


def main(argv=None) -> int:
    args = _parse(argv)
    threads = len(os.sched_getaffinity(0))
    # Pin the native kernels' thread count instead of leaving it on "auto";
    # the service's server process inherits the same setting.
    os.environ["REPRO_NATIVE_THREADS"] = str(threads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from repro.native import dispatch
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro was imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from perfbench import batch, service, stream
    from perfbench.trace import Tracer

    dispatch.kernels()  # native load (compiles once per checkout)
    t_import = time.perf_counter() - T0
    module = {"batch": batch, "stream": stream, "service": service}[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    # Set-up runs several times and reports the median; only the last one
    # is kept for the timed phase.
    setup_times, state = [], None
    for _ in range(module.SETUP_REPEATS):
        if state is not None:
            state.close()
        t = time.perf_counter()
        state = module.setup(args.seed, args.scale, threads, OUT_DIR)
        setup_times.append(time.perf_counter() - t)
    setup_s = t_import + statistics.median(setup_times)

    tracer = Tracer()
    try:
        outcome = module.run(state, args.seconds, tracer, bool(args.trace))
    except service.InvalidRun as exc:
        print(f"perfbench: invalid run, not timed: {exc}", file=sys.stderr)
        return 3
    finally:
        tracer.unpatch_all()
        state.close()

    env = _environment(args, threads)
    if args.trace:
        wanted = spec["per_layer"]
        values = dict(outcome.layers)
    else:
        wanted = spec["end_to_end"]
        values = dict(outcome.end_to_end, setup_s=(setup_s, len(setup_times)))
    metrics = {}
    for m in wanted:
        # A per-layer metric of a layer this workload does not exercise
        # reads 0 (no time, no work); every end-to-end metric is measured.
        value, n = values.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"], "n": int(n)}
    missing_e2e = [m["name"] for m in spec["end_to_end"] if not args.trace
                   and m["name"] not in values]
    if missing_e2e:
        raise RuntimeError(f"workload did not measure {missing_e2e}")

    _report(env, outcome, metrics, setup_times, tracer)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env, "setup_times_s": setup_times, "import_s": t_import,
        "metrics": metrics,
        "detail": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in outcome.detail.items()},
        "layers": {k: {"value": v, "n": n} for k, (v, n) in outcome.layers.items()},
        "attempted": outcome.attempted, "failed": outcome.failed, "errors": outcome.errors,
        "missing_spans": sorted(tracer.missing),
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if args.trace:
        tracer.dump(OUT_DIR / f"trace-{stem}.json", env=env)

    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
