"""Per-layer metrics derived from a traced run's spans.

"Per step" means per global model step: on ``dist2_mini`` the time of
both ranks is summed.  Metrics of a layer a workload does not reach
read 0 (no messages on a single process, no service on bare stepping);
``par.rank_imbalance`` reads 1 for a single process.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children may run concurrently (the rank threads under one
    ``run_ranks`` call), so their intervals are merged first.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        hi = s.start
        for c in sorted(children[s.sid], key=lambda c: c.start):
            lo, end = max(c.start, hi), min(c.end, s.end)
            if end > lo:
                covered += end - lo
                hi = end
        out[s.sid] = s.dur - covered
    return out


def _kernel_fit(spans: list[Span]) -> tuple[float, float]:
    """Fig.-5 fit of NLMNT2 microseconds against block cells.

    Fitted on the median time of each distinct block size, so one
    descheduled call does not tilt the line.
    """
    from repro.balance.perfmodel import fit_linear_model

    by_cells: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        by_cells[s.attrs["cells"]].append(s.dur * 1e6)
    cells = sorted(by_cells)
    if len(cells) < 2:
        return 0.0, 0.0
    fit = fit_linear_model(
        cells, [statistics.median(by_cells[c]) for c in cells]
    )
    return fit.slope_us_per_cell, fit.intercept_us


def request_breakdown(spans: list[Span], selfs: dict[int, float]) -> dict:
    """Mean self time per layer of one ``bench.request``, in ms.

    The benchmark's own request span is the root, so its self time is
    the unattributed remainder and the layers sum to the request wall
    time.  ``max_gap_ms`` is the largest difference seen between the
    sum and the wall time of one request.
    """
    by_op: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    layers: dict[str, float] = defaultdict(float)
    n = 0
    gap = 0.0
    wall = 0.0
    for group in by_op.values():
        roots = [s for s in group if s.name == "bench.request"]
        if not roots:
            continue
        n += 1
        total = 0.0
        for s in group:
            layer = "unattributed" if s.name == "bench.request" else (
                s.name.split(".")[0]
            )
            layers[layer] += selfs[s.sid]
            total += selfs[s.sid]
        wall += roots[0].dur
        gap = max(gap, abs(total - roots[0].dur))
    n = max(n, 1)
    return {
        "requests": n,
        "wall_ms": wall / n * 1e3,
        "self_ms_by_layer": {k: v / n * 1e3 for k, v in sorted(layers.items())},
        "max_gap_ms": gap * 1e3,
    }


def layer_metrics(
    spans: list[Span],
    steps: int,
    requests: int,
    cache_hits: int,
    copy_gbps: float,
    overhead_ratio: float,
) -> tuple[dict[str, float], dict]:
    """Every ``per_layer`` metric, plus a detail dict for the report.

    *spans* are those of one traced run; set-up spans carry an op id
    starting with ``setup-``, timed operations one starting with ``op-``.
    """
    selfs = self_times(spans)
    ops = [s for s in spans if s.op.startswith("op-")]
    setups = [s for s in spans if s.op.startswith("setup-")]
    by: dict[str, list[Span]] = defaultdict(list)
    for s in ops:
        by[s.name].append(s)

    names = {s.sid: s.name for s in ops}

    def total(name: str) -> float:
        """Wall time in *name*; a span nested in one of its own name
        (``charge_step`` calling ``step_cost_us``) is not counted twice."""
        return sum(s.dur for s in by[name] if names.get(s.parent) != name)

    def self_total(name: str) -> float:
        return sum(selfs[s.sid] for s in by[name])

    steps = max(steps, 1)
    m: dict[str, float] = {}
    for k in ("nlmnt2", "nlmass"):
        calls = by[f"core.{k}"]
        t = total(f"core.{k}")
        cells = sum(s.attrs["cells"] for s in calls)
        nbytes = sum(s.attrs["bytes"] for s in calls)
        m[f"core.{k}.ms_per_step"] = t / steps * 1e3
        m[f"core.{k}.mcells_per_s"] = cells / t / 1e6 if t else 0.0
        m[f"core.{k}.gbps_computed"] = nbytes / t / 1e9 if t else 0.0
    slope, intercept = _kernel_fit(by["core.nlmnt2"])
    m["core.kernel_fit.us_per_cell"] = slope
    m["core.kernel_fit.intercept_us"] = intercept
    m["core.kernel_calls_per_step"] = (
        len(by["core.nlmnt2"]) + len(by["core.nlmass"])
    ) / steps
    # On the distributed path a rank's step loop runs inside par.rank.
    m["core.step.self_ms"] = (
        self_total("core.step") + self_total("par.rank")
    ) / steps * 1e3
    m["core.outputs_update.ms_per_step"] = (
        total("core.outputs_update") / steps * 1e3
    )
    m["nesting.restrict_eta.ms_per_step"] = (
        total("nesting.restrict_eta") / steps * 1e3
    )
    m["nesting.interpolate_fluxes.ms_per_step"] = (
        total("nesting.interpolate_fluxes") / steps * 1e3
    )
    m["nesting.calls_per_step"] = (
        len(by["nesting.restrict_eta"]) + len(by["nesting.interpolate_fluxes"])
    ) / steps
    m["xchg.exchange_halo.ms_per_step"] = (
        total("xchg.exchange_halo") / steps * 1e3
    )
    m["xchg.exchange_halo.calls_per_step"] = (
        len(by["xchg.exchange_halo"]) / steps
    )
    m["xchg.pack_unpack.ms_per_step"] = total("xchg.pack_unpack") / steps * 1e3

    m["par.messages_per_step"] = len(by["par.send"]) / steps
    m["par.bytes_per_step"] = (
        sum(s.attrs["bytes"] for s in by["par.send"]) / steps
    )
    m["par.recv_wait_ms_per_step"] = total("par.recv") / steps * 1e3
    m["par.rank_imbalance"] = _rank_imbalance(ops)

    forecasts = max(len(by["resilience.forecast"]), 1)
    snaps = by["resilience.checkpoint"]
    m["resilience.health.ms_per_step"] = total("resilience.health") / steps * 1e3
    m["resilience.checkpoint.ms_per_snapshot"] = (
        total("resilience.checkpoint") / len(snaps) * 1e3 if snaps else 0.0
    )
    m["resilience.checkpoint.snapshots"] = len(snaps) / forecasts
    m["resilience.clock.ms_per_step"] = total("resilience.clock") / steps * 1e3
    m["obs.physics.ms_per_step"] = total("obs.physics") / steps * 1e3
    step_t = total("core.step")
    m["resilience.overhead_ratio"] = (
        total("service.backend_run") / step_t - 1.0
        if by["service.backend_run"] and step_t else 0.0
    )

    detail: dict = {}
    if by["bench.request"]:
        n_req = len(by["bench.request"])
        m["service.submit_ms"] = self_total("service.submit") / n_req * 1e3
        m["service.self_ms"] = (
            total("bench.request") - total("service.backend_run")
        ) / n_req * 1e3
        m["service.unattributed_ms"] = (
            self_total("bench.request") / n_req * 1e3
        )
        detail["request_breakdown"] = request_breakdown(ops, selfs)
    else:
        m["service.submit_ms"] = 0.0
        m["service.self_ms"] = 0.0
        m["service.unattributed_ms"] = 0.0
    m["service.cache_hit_ratio"] = cache_hits / requests if requests else 0.0

    m.update(_setup_metrics(setups))
    m["host.copy_gbps"] = copy_gbps
    m["trace.overhead_ratio"] = overhead_ratio
    return m, detail


def _rank_imbalance(ops: list[Span]) -> float:
    """Max / mean over ranks of rank time not spent waiting in recv."""
    by_sid = {s.sid: s for s in ops}
    busy: dict[int, float] = defaultdict(float)
    for s in ops:
        if s.name == "par.rank":
            busy[s.attrs["rank"]] += s.dur
    if not busy:
        return 1.0
    for s in ops:
        if s.name != "par.recv":
            continue
        p = by_sid.get(s.parent)
        while p is not None and p.name != "par.rank":
            p = by_sid.get(p.parent)
        if p is not None:
            busy[p.attrs["rank"]] -= s.dur
    return max(busy.values()) / statistics.mean(busy.values())


def _setup_metrics(setups: list[Span]) -> dict[str, float]:
    """Medians over the run's set-ups of the set-up phases, in ms.

    ``model_init`` is the rest of a set-up: grid, state allocation,
    topology, service or decomposition construction.
    """
    per: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in setups:
        per[s.op][s.name] += s.dur
    rows = [
        (
            p["setup.bathymetry"],
            p["setup.initial_condition"],
            p["bench.setup"] - p["setup.bathymetry"] - p["setup.initial_condition"],
        )
        for p in per.values()
    ]
    return {
        "setup.bathymetry_ms": statistics.median(r[0] for r in rows) * 1e3,
        "setup.initial_condition_ms": (
            statistics.median(r[1] for r in rows) * 1e3
        ),
        "setup.model_init_ms": statistics.median(r[2] for r in rows) * 1e3,
    }
