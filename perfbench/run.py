"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload service_mini --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, measured with no wrapper installed.  With
``--trace 1`` it carries the per-layer metrics: the run first measures
half of its time untraced, then installs the layer wrappers
(:mod:`tracing`) and measures the other half, and writes its spans to
``perfbench/out/``.  The line before the result is a ``detail`` object:
sample counts, tail percentiles, every failure, and the box.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Lists the metrics each kind of run reports, by name and unit.
SPEC = ROOT / "BENCHMARK.json"
#: ``peak_rss_mb`` is read after this many timed operations (or at the
#: end of a shorter run), so it does not grow with the operations served.
RSS_OPS = 10
#: After each timed operation, untimed set-ups run for up to this share
#: of its time, when one set-up fits (service_mini and dist2_mini, whose
#: set-ups take milliseconds).  The host's speed drifts over seconds, so
#: set-ups spread over the whole run give a steadier ``setup_s`` than a
#: burst at its start.
SETUP_SHARE = 0.05


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with >= 10 samples beyond it.

    Returns ``(value, percentile)``.  With 10 samples or fewer no such
    percentile exists; the maximum is returned with percentile 100.
    """
    s = sorted(values)
    rank = len(s) - 10
    if rank < 1:
        return s[-1], 100.0
    return s[rank - 1], 100.0 * rank / len(s)


def copy_gbps(mib: int) -> float:
    """Median NumPy copy bandwidth over 5 copies of a *mib* MiB array.

    Counts the bytes read plus the bytes written.
    """
    import numpy as np

    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _loop(
    wl, seconds: float, first: int, rec=None, setups: list | None = None,
) -> tuple[list, float]:
    """Run operations until *seconds* have passed; at least one.

    Returns the operations, each ``(seconds, OpResult or None, failure
    or None)``, and the peak RSS after the first ``RSS_OPS`` of them.
    Given *setups*, set-up times of a spare instance of the workload
    are appended to it between operations (see ``SETUP_SHARE``).
    """
    from repro.errors import ReproError

    spare = type(wl)(wl.seed, wl.sizing) if setups is not None else None
    ops = []
    rss = None
    i = first
    t_end = time.perf_counter() + seconds
    while True:
        if rec is not None:
            rec.set_op(f"op-{i}")
        t0 = time.perf_counter()
        try:
            if rec is None:
                res = wl.op(i)
            else:
                with rec.span(wl.op_span):
                    res = wl.op(i)
            failure = None
        except ReproError as exc:
            res, failure = None, f"op {i}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if res is not None:
            failure = wl.check_op(i, res)
        ops.append((t1 - t0, res, failure))
        if spare is not None:
            budget = SETUP_SHARE * (t1 - t0)
            typical = statistics.median(setups)
            while typical < budget:
                s0 = time.perf_counter()
                spare.setup()
                setups.append(time.perf_counter() - s0)
                budget -= setups[-1]
        if len(ops) == RSS_OPS:
            rss = peak_rss_mb()
        i += 1
        if t1 >= t_end or (failure is not None and wl.stop_on_failure):
            return ops, peak_rss_mb() if rss is None else rss


def _setups(wl, sizing, rec=None) -> list[float]:
    times = []
    t_end = time.perf_counter() + sizing.setup_seconds
    while len(times) < sizing.setups or time.perf_counter() < t_end:
        if rec is not None:
            rec.set_op(f"setup-{len(times)}")
        t0 = time.perf_counter()
        if rec is None:
            wl.setup()
        else:
            with rec.span("bench.setup"):
                wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(
    ops: list, setups: list[float], rss_mb: float,
) -> tuple[dict, dict]:
    lat = [dt for dt, _r, _f in ops]
    done = [r for _dt, r, f in ops if r is not None and f is None]
    wall = sum(lat)
    value, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "ops_per_s": sum(r.completed for r in done) / wall,
        "cell_updates_per_s": sum(r.cells * r.steps for r in done) / wall / 1e6,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "samples": len(lat),
        "rss_after_ops": min(len(lat), RSS_OPS),
        "latency_tail_percentile": round(pct, 2),
        "setup_samples": len(setups),
        "cache_hits": sum(1 for r in done if r.cache_hit),
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool, sizing=None):
    """Run one workload; returns ``(result, detail)``."""
    import numpy as np

    import workloads
    from repro.obs.trace import get_tracer

    if get_tracer().enabled:
        raise RuntimeError("repro.obs tracing must stay disabled")
    sizing = sizing or workloads.FULL
    wl = workloads.WORKLOADS[workload](seed, sizing)
    detail: dict = {
        "workload": workload,
        "seed": seed,
        "sizing": vars(sizing),
        "box": {"nproc": os.cpu_count(), "numpy": np.__version__},
    }
    if not trace:
        setups = _setups(wl, sizing)
        wl.warmup()
        ops, rss_mb = _loop(wl, seconds, 0, setups=setups)
        checks = wl.final_checks()
        # A second burst, a run's length after the first: bare_x8's
        # set-ups are too long to run between operations.
        setups += _setups(wl, sizing)
        metrics, d = end_to_end(ops, setups, rss_mb)
        detail.update(d)
        units = metric_units("end_to_end")
    else:
        import layers
        from tracing import Recorder, Wrappers

        gbps = copy_gbps(sizing.copy_probe_mib)
        rec = Recorder(run_id=f"{workload}-seed{seed}")
        with Wrappers(rec):
            setups = _setups(wl, sizing, rec)
        wl.warmup()
        untraced, _rss = _loop(wl, seconds / 2, 0)
        with Wrappers(rec):
            ops, _rss = _loop(wl, seconds / 2, len(untraced), rec)
        overhead = (
            statistics.median(dt for dt, _r, _f in ops)
            / statistics.median(dt for dt, _r, _f in untraced)
            - 1.0
        )
        done = [r for _dt, r, f in ops if r is not None]
        metrics, d = layers.layer_metrics(
            rec.spans,
            steps=sum(r.steps for r in done),
            requests=len(ops),
            cache_hits=sum(1 for r in done if r.cache_hit),
            copy_gbps=gbps,
            overhead_ratio=overhead,
        )
        detail.update(d)
        detail["traced_samples"] = len(ops)
        detail["untraced_samples"] = len(untraced)
        detail["copy_probe_mib"] = sizing.copy_probe_mib
        detail["trace_file"] = str(
            rec.write(OUT_DIR / f"{workload}-seed{seed}.trace.json")
            .relative_to(ROOT)
        )
        ops = untraced + ops
        checks = wl.final_checks()
        units = metric_units("per_layer")

    failures = [f for _dt, _r, f in ops if f is not None]
    for name, failure in checks.items():
        if failure is not None:
            failures.append(f"{name}: {failure}")
    attempted = len(ops)
    failed = min(attempted, len(failures))
    detail["failures"] = failures
    detail["failed_ratio"] = failed / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items()
        },
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
