"""Outside-in trace recorder for the benchmark's traced runs.

The program's own spans (``repro.obs``) stay disabled in every benchmark
run.  Instead, :class:`Wrappers` replaces the public functions of each
layer with thin wrappers that open a span in a :class:`Recorder`, and
puts the original objects back on exit.  An untraced run never builds a
:class:`Wrappers`, so it executes exactly the program a user runs.

Spans are kept in memory and written once, at the end of the run.  Each
span records its name, start, end, parent span, the run id and the
operation it belongs to (one service request, one step, one distributed
run), plus the thread that opened it.  The recorder is thread-safe: the
rank threads of ``run_distributed`` keep their own span stacks, and the
wrapper around ``run_ranks`` parents each rank's root span under the
caller's open span, across the thread boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.grid.staggered import NGHOST


@dataclass(slots=True)
class Span:
    """One timed call of a wrapped function."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: str
    run_id: str
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span store with per-thread span stacks."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.base_parent = None
            tls.op = ""
        return tls

    def current(self) -> tuple[int | None, str]:
        """The calling thread's innermost open span id and operation."""
        st = self._state()
        return (st.stack[-1] if st.stack else st.base_parent), st.op

    def adopt(self, parent: int | None, op: str) -> None:
        """Parent this thread's root spans under *parent* (another thread)."""
        st = self._state()
        st.base_parent = parent
        st.op = op

    def set_op(self, op: str) -> None:
        self._state().op = op

    def begin(self) -> tuple[int, int | None, float]:
        st = self._state()
        with self._lock:
            sid = next(self._ids)
        parent = st.stack[-1] if st.stack else st.base_parent
        st.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, sid: int, parent, name: str, start: float, attrs) -> None:
        t1 = time.perf_counter()
        st = self._state()
        st.stack.pop()
        span = Span(
            sid, parent, name, start, t1,
            threading.current_thread().name, self.run_id, st.op,
            attrs or {},
        )
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attrs):
        """Context manager recording one benchmark-level span."""
        return _SpanCtx(self, name, attrs)

    def write(self, path: Path) -> Path:
        """Write every span once, as JSON, to *path*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.sid, s.parent, s.name, s.start, s.end, s.thread, s.op, s.attrs]
            for s in self.spans
        ]
        doc = {
            "run_id": self.run_id,
            "columns": [
                "sid", "parent", "name", "start", "end", "thread", "op",
                "attrs",
            ],
            "spans": rows,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return path


class _SpanCtx:
    def __init__(self, rec: Recorder, name: str, attrs: dict) -> None:
        self.rec, self.name, self.attrs = rec, name, attrs

    def __enter__(self):
        self.sid, self.parent, self.t0 = self.rec.begin()
        return self

    def __exit__(self, *_exc) -> bool:
        self.rec.end(self.sid, self.parent, self.name, self.t0, self.attrs)
        return False


# -- what the wrappers record -------------------------------------------------

def _interior_cells(z: np.ndarray) -> int:
    return (z.shape[0] - 2 * NGHOST) * (z.shape[1] - 2 * NGHOST)


def _nlmass_attrs(args, kwargs) -> dict:
    z_old, m_old, n_old, hz = args[:4]
    out = kwargs["out"]
    arrays = (z_old, m_old, n_old, hz, out)
    return {
        "cells": _interior_cells(z_old),
        "bytes": sum(a.nbytes for a in arrays),
    }


def _nlmnt2_attrs(args, kwargs) -> dict:
    z_new, m_old, n_old, hz = args[:4]
    arrays = (z_new, m_old, n_old, hz, kwargs["out_m"], kwargs["out_n"])
    return {
        "cells": _interior_cells(z_new),
        "bytes": sum(a.nbytes for a in arrays),
    }


def _send_attrs(args, kwargs) -> dict:
    # args[0] is the Communicator itself.
    obj = args[1] if len(args) > 1 else kwargs["obj"]
    return {"bytes": int(getattr(obj, "nbytes", 0))}


def _targets():
    """``(owner, attribute, span name, attrs function)`` for every wrapper.

    Functions are wrapped where the caller looks them up: the kernels
    and nesting/halo operators are imported by name into
    ``repro.core.model`` and ``repro.par.driver``, so those module
    attributes are the ones replaced.
    """
    import repro.core.model as model_mod
    import repro.fault.scenarios as scenarios_mod
    import repro.par.driver as dist_mod
    import repro.resilience.forecast as forecast_mod
    from repro.core.outputs import OutputAccumulator
    from repro.obs.physics import DivergenceSentinel
    from repro.par.comm import Communicator
    from repro.resilience.checkpoint import CheckpointRing
    from repro.resilience.clock import SimulatedClock
    from repro.resilience.health import HealthMonitor
    from repro.service.backend import LocalBackend
    from repro.service.service import ForecastService
    from repro.topo.bathymetry import ShelfBathymetry

    return [
        # repro.core
        (model_mod.RTiModel, "step", "core.step", None),
        (model_mod.RTiModel, "__init__", "core.model_init", None),
        (model_mod, "nlmass", "core.nlmass", _nlmass_attrs),
        (model_mod, "nlmnt2", "core.nlmnt2", _nlmnt2_attrs),
        (dist_mod, "nlmass", "core.nlmass", _nlmass_attrs),
        (dist_mod, "nlmnt2", "core.nlmnt2", _nlmnt2_attrs),
        (OutputAccumulator, "update", "core.outputs_update", None),
        # repro.nesting (the distributed path packs/unpacks instead)
        (model_mod, "restrict_eta", "nesting.restrict_eta", None),
        (dist_mod, "pack_restriction", "nesting.restrict_eta", None),
        (dist_mod, "unpack_restriction", "nesting.restrict_eta", None),
        (model_mod, "interpolate_fluxes", "nesting.interpolate_fluxes", None),
        (dist_mod, "pack_fluxes", "nesting.interpolate_fluxes", None),
        (dist_mod, "unpack_fluxes", "nesting.interpolate_fluxes", None),
        # repro.xchg
        (model_mod, "exchange_halo", "xchg.exchange_halo", None),
        (dist_mod, "pack_boundary_offsets", "xchg.pack_unpack", None),
        (dist_mod, "unpack_boundary_offsets", "xchg.pack_unpack", None),
        # repro.par
        (dist_mod, "run_distributed", "par.run_distributed", None),
        (dist_mod, "run_ranks", "par.rank", None),
        (Communicator, "send", "par.send", _send_attrs),
        (Communicator, "recv", "par.recv", None),
        # repro.resilience and repro.obs.physics
        (forecast_mod, "run_resilient_forecast", "resilience.forecast", None),
        (HealthMonitor, "after_step", "resilience.health", None),
        (CheckpointRing, "snapshot", "resilience.checkpoint", None),
        (SimulatedClock, "charge_step", "resilience.clock", None),
        (SimulatedClock, "step_cost_us", "resilience.clock", None),
        (DivergenceSentinel, "after_step", "obs.physics", None),
        # repro.service
        (ForecastService, "submit", "service.submit", None),
        (ForecastService, "run_until_idle", "service.run_until_idle", None),
        (LocalBackend, "run", "service.backend_run", None),
        # set-up
        (ShelfBathymetry, "sample_cells", "setup.bathymetry", None),
        (model_mod, "initial_eta_for_block", "setup.initial_condition", None),
        (
            scenarios_mod, "initial_eta_for_block",
            "setup.initial_condition", None,
        ),
    ]


def _wrap(rec: Recorder, fn, name: str, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, t0 = rec.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(
                sid, parent, name, t0,
                attrs_fn(args, kwargs) if attrs_fn is not None else None,
            )

    return wrapper


def _wrap_run_ranks(rec: Recorder, fn, name: str, _attrs_fn):
    """Run each rank under a *name* span parented to the caller's span."""

    @functools.wraps(fn)
    def wrapper(n_ranks, rank_fn, *args, **kwargs):
        parent, op = rec.current()

        def traced_rank(comm):
            rec.adopt(parent, op)
            with rec.span(name, rank=comm.rank):
                return rank_fn(comm)

        return fn(n_ranks, traced_rank, *args, **kwargs)

    return wrapper


class Wrappers:
    """Installs the layer wrappers on enter and restores them on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Wrappers":
        try:
            for owner, attr, name, attrs_fn in _targets():
                make = _wrap_run_ranks if attr == "run_ranks" else _wrap
                self._replace(
                    owner, attr,
                    make(self.rec, vars(owner)[attr], name, attrs_fn),
                )
        except BaseException:
            self.restore()
            raise
        return self

    def _replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *_exc) -> bool:
        self.restore()
        return False


def wrapped_originals() -> list[tuple[object, str, object]]:
    """``(owner, attribute, current object)`` for every wrap target."""
    return [(o, a, vars(o)[a]) for o, a, _n, _f in _targets()]
