"""RTiModel — the coupled nested-grid time integrator.

One :meth:`RTiModel.step` reproduces the routine pipeline of the paper's
Figure 2:

1. ``NLMASS``  — continuity update on every block of every level;
2. ``JNZ``     — child-to-parent water-level restriction;
3. ``PTP_Z``   — intra-level halo exchange of the water level;
4. ``NLMNT2``  — momentum update on every block;
5. outer boundary conditions on level 1 / ``JNQ`` parent-to-child flux
   interpolation on finer levels;
6. ``PTP_MN``  — intra-level halo exchange of the fluxes;
7. output accumulation and double-buffer swap.

This is the one implementation of that pipeline.  It walks a
:class:`~repro.core.plan.StepPlan` built once at construction over the
blocks this process holds.  A single-process model holds every block,
so each transfer is a slice copy (halos) or a pack + unpack (JNZ/JNQ).
A distributed rank (:mod:`repro.par.driver`) runs the same step over its
own blocks; a transfer with an endpoint on another rank is packed and
sent, or received and unpacked, through its communicator.  The
distributed performance replay of the pipeline lives in
:mod:`repro.runtime`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.boundary import (
    apply_open_boundary,
    apply_wall_boundary,
    fill_ghosts_zero_gradient,
)
from repro.core.config import SimulationConfig
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.core.outputs import OutputAccumulator
from repro.core.plan import StepPlan
from repro.core.state import BlockState
from repro.errors import ConfigurationError
from repro.fault.scenarios import GaussianSource, initial_eta_for_block
from repro.grid.cfl import check_cfl_depth_field
from repro.grid.hierarchy import NestedGrid
from repro.grid.staggered import NGHOST
from repro.nesting.interp import pack_flux_edges, unpack_flux_edges
from repro.nesting.restrict import pack_restriction, unpack_restriction
from repro.obs.trace import NOOP_SPAN as _NOOP_SPAN
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.topo.bathymetry import ShelfBathymetry
from repro.xchg.packing import (
    frame_payload,
    pack_boundary_offsets,
    unframe_payload,
    unpack_boundary_offsets,
)

# Not called here: bound because perfbench/tracing.py wraps these names
# in this module.
from repro.nesting.interp import interpolate_fluxes  # noqa: F401
from repro.nesting.restrict import restrict_eta  # noqa: F401
from repro.xchg.halo import exchange_halo  # noqa: F401

_TRACER = get_tracer()

# Message tag bases per phase (the plan numbers transfers within one).
_TAG_PTP_Z = 1_000_000
_TAG_PTP_MN = 2_000_000
_TAG_JNZ = 3_000_000
_TAG_JNQ = 4_000_000

_NEW = {"z": "z_new", "m": "m_new", "n": "n_new"}


class CompositeMonitor:
    """Fan one ``after_step`` hook out to several monitors, in order.

    Lets a health monitor, a gauge recorder, and a physics sampler ride
    the same :meth:`RTiModel.run` hook without wrapping hacks.  Any
    monitor may raise (typically
    :class:`~repro.errors.NumericalError`) to abort the run; later
    monitors in the list are then skipped, matching single-monitor
    semantics.  ``reset_baseline`` — called by the recovery engine after
    a rollback or a level drop — propagates to every child that has one.
    Monitors without an ``after_step`` method are rejected up front.
    """

    def __init__(self, monitors) -> None:
        self.monitors = list(monitors)
        for mon in self.monitors:
            if not callable(getattr(mon, "after_step", None)):
                raise ConfigurationError(
                    f"monitor {mon!r} has no after_step(model) method"
                )

    def after_step(self, model: "RTiModel") -> None:
        for mon in self.monitors:
            mon.after_step(model)

    def reset_baseline(self) -> None:
        for mon in self.monitors:
            reset = getattr(mon, "reset_baseline", None)
            if callable(reset):
                reset()

    def __iter__(self):
        return iter(self.monitors)

    def __len__(self) -> int:
        return len(self.monitors)


class RTiModel:
    """Coupled TUNAMI-N2 model on a validated nested grid.

    Parameters
    ----------
    grid:
        The nested grid hierarchy.
    bathymetry:
        Any object with ``sample_cells(x0, y0, nx, ny, dx) -> (ny, nx)``
        (e.g. :class:`repro.topo.ShelfBathymetry`).
    config:
        Runtime knobs; ``config.dt`` is validated against the CFL bound of
        every block at construction.
    """

    def __init__(
        self,
        grid: NestedGrid,
        bathymetry: ShelfBathymetry,
        config: SimulationConfig | None = None,
    ) -> None:
        config = config or SimulationConfig()
        self._setup(
            grid, bathymetry, config, StepPlan.build(grid, config),
            [blk for lvl in grid.levels for blk in lvl.blocks],
        )
        self.outputs: dict[int, OutputAccumulator] = dict.fromkeys(
            self.states
        )
        self._init_outputs()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _setup(self, grid, bathymetry, config, plan, blocks) -> None:
        """State shared by the model and a distributed rank."""
        self.grid = grid
        self.bathymetry = bathymetry
        self.config = config
        self.plan = plan
        self.time = 0.0
        self.step_count = 0
        #: Output-accumulation cadence in steps; the deadline supervisor
        #: raises it ("coarsen output") to shed the OUTPUT phase's cost.
        self.output_every = 1
        self.states: dict[int, BlockState] = {
            blk.block_id: self._make_state(blk) for blk in blocks
        }
        # Telemetry (armed via repro.obs.enable()): metric handles are
        # resolved lazily on the first observed step so a disabled run
        # never touches the registry.
        self._n_cells = grid.n_cells
        self._obs_metrics = None
        self._obs_wall_s = 0.0
        self._obs_steps = 0

    def _make_state(self, blk) -> BlockState:
        """Sample one block's depth and check its CFL bound."""
        g = NGHOST
        dx = self.grid.level(blk.level).dx
        depth = self.bathymetry.sample_cells(
            (blk.gi0 - g) * dx,
            (blk.gj0 - g) * dx,
            blk.nx + 2 * g,
            blk.ny + 2 * g,
            dx,
        )
        # Only the physical cells plus one ghost layer feed the kernels
        # (edge faces are overwritten by BC/coupling).
        check_cfl_depth_field(dx, self.config.dt, depth[1:-1, 1:-1])
        return BlockState(blk, dx, depth, dtype=self.config.dtype)

    def _init_outputs(self) -> None:
        # Only the blocks in ``outputs`` accumulate products: all of them
        # on a single process, none on a distributed rank.
        for bid in self.outputs:
            st = self.states[bid]
            self.outputs[bid] = OutputAccumulator(
                st.block,
                st.depth_interior(),
                st.eta_interior().copy(),
            )

    def set_initial_condition(self, source) -> None:
        """Impose a tsunami source on every block this model holds.

        *source* is a :class:`~repro.fault.GaussianSource` or a list of
        :class:`~repro.fault.OkadaFault` segments.
        """
        for st in self.states.values():
            eta = initial_eta_for_block(
                source, st.block, st.dx, depth=st.depth_interior()
            )
            st.set_initial_eta(eta)
        self._init_outputs()

    def snapshot_blocks(self, block_ids=None) -> dict[int, tuple]:
        """:meth:`BlockState.capture` of the given (default: all) blocks."""
        ids = self.states if block_ids is None else block_ids
        return {bid: self.states[bid].capture() for bid in ids}

    def restore_blocks(self, data: dict[int, tuple]) -> None:
        """:meth:`BlockState.restore` every held block that *data* has.

        Entries for blocks this model does not hold are ignored, so every
        rank can be handed the same global restore map.
        """
        for bid, st in self.states.items():
            if bid in data:
                st.restore(data[bid])

    # ------------------------------------------------------------------
    # One leap-frog step (Fig. 2 pipeline)
    # ------------------------------------------------------------------
    #
    # A transfer whose two blocks are both in ``self.states`` stays in
    # the process.  One with an endpoint elsewhere only arises on a
    # distributed rank (repro.par.driver._RankRuntime), which supplies
    # ``comm``, ``owner`` and ``frame_halos``.  Sends are buffered and
    # every rank walks the same plan order, so the blocking receives
    # cannot deadlock.

    def step(self) -> None:
        """Advance the coupled model by one time step.

        Every phase opens a :func:`repro.obs.trace.span` named after the
        paper's routine (the ``BREAKDOWN_PHASES`` vocabulary), so a
        traced run renders the same stacked-bar accounting as the
        offline performance replay.  With tracing disabled (the
        default) each span is a shared no-op — see the <5 % overhead
        guard in ``tests/test_obs.py``.
        """
        cfg = self.config
        dt = cfg.dt
        obs_on = _TRACER.enabled
        if obs_on:
            import time as _time

            _t0 = _time.perf_counter()

        # (1) NLMASS on every block.  Per-block kernel spans carry the
        # block's cell count so live traces can recalibrate the Fig.-5
        # linear cost model (repro.balance.calibrate); the hoisted
        # obs_on check keeps the disabled path allocation-free.
        with _span("NLMASS"):
            for st in self.states.values():
                with (
                    _span("NLMASS.kernel", cells=st.block.n_cells)
                    if obs_on else _NOOP_SPAN
                ):
                    nlmass(
                        st.z_old,
                        st.m_old,
                        st.n_old,
                        st.hz,
                        dt,
                        st.dx,
                        out=st.z_new,
                        dry_threshold=cfg.dry_threshold,
                    )

        # (2) JNZ: child -> parent restriction, finest level first so a
        # multi-level cascade settles coarse levels last.
        with _span("JNZ", cat="comm"):
            for level, pairs in self.plan.jnz:
                with _span("restrict", cat="comm", level=level):
                    self._jnz(pairs)

        # (3) PTP_Z: ghost fill then halo exchange of the water level.
        with _span("PTP_Z", cat="comm"):
            for st in self.states.values():
                fill_ghosts_zero_gradient(st.z_new, ("W", "E", "S", "N"))
            self._seams(self.plan.seams_z, _TAG_PTP_Z)

        # (4) NLMNT2 on every block.
        with _span("NLMNT2"):
            for st in self.states.values():
                with (
                    _span("NLMNT2.kernel", cells=st.block.n_cells)
                    if obs_on else _NOOP_SPAN
                ):
                    nlmnt2(
                        st.z_new,
                        st.m_old,
                        st.n_old,
                        st.hz,
                        dt,
                        st.dx,
                        cfg.manning,
                        out_m=st.m_new,
                        out_n=st.n_new,
                        nonlinear=cfg.nonlinear,
                        dry_threshold=cfg.dry_threshold,
                        velocity_cap=cfg.velocity_cap,
                    )

        # (5) Boundary conditions: outer BC on level 1, JNQ elsewhere,
        # coarse level first (a level's pack may read an edge face the
        # previous level's JNQ just wrote).
        with _span("JNQ", cat="comm"):
            for bid, sides in self.plan.outer_sides.items():
                st = self.states.get(bid)
                if st is None:
                    continue
                if cfg.boundary == "open":
                    apply_open_boundary(
                        st.z_new, st.m_new, st.n_new, st.hz, sides
                    )
                else:
                    apply_wall_boundary(st.m_new, st.n_new, sides)
            for level, pairs in self.plan.jnq:
                with _span("interp", cat="comm", level=level):
                    self._jnq(pairs)

        # (6) PTP_MN: ghost fill then halo exchange of the fluxes.
        with _span("PTP_MN", cat="comm"):
            for st in self.states.values():
                fill_ghosts_zero_gradient(st.m_new, ("W", "E", "S", "N"))
                fill_ghosts_zero_gradient(st.n_new, ("W", "E", "S", "N"))
            self._seams(self.plan.seams_mn, _TAG_PTP_MN)

        # (7) Outputs and double-buffer swap.
        self.time += dt
        self.step_count += 1
        with _span("OUTPUT"):
            if self.step_count % self.output_every == 0:
                for bid, acc in self.outputs.items():
                    st = self.states[bid]
                    acc.update(
                        st.z_new,
                        st.m_new,
                        st.n_new,
                        st.hz,
                        self.time,
                        dry_threshold=cfg.dry_threshold,
                    )
            for st in self.states.values():
                st.swap()

        if obs_on:
            self._observe_step(_time.perf_counter() - _t0)

    def _seams(self, seams, tag_base: int) -> None:
        """Halo copies strictly in plan order.

        A seam's source region may include ghost rows an earlier seam
        just filled (extended corner ranges), so each copy, local or
        packed for another rank, happens after all earlier ones.
        """
        states = self.states
        for spec, tag in seams:
            src = states.get(spec.src_block)
            dst = states.get(spec.dst_block)
            name = _NEW[spec.field]
            if src is not None and dst is not None:
                getattr(dst, name)[spec.dst] = getattr(src, name)[spec.src]
            elif src is not None:
                with _span("halo_pack", cat="comm", field=spec.field):
                    buf = pack_boundary_offsets(
                        [getattr(src, name)], spec.src
                    )
                    if self.frame_halos:
                        buf = frame_payload(buf)
                self.comm.send(
                    buf, dest=self.owner[spec.dst_block], tag=tag_base + tag
                )
            elif dst is not None:
                with _span("halo_recv", cat="comm", field=spec.field):
                    buf = self.comm.recv(
                        source=self.owner[spec.src_block],
                        tag=tag_base + tag,
                    )
                with _span("halo_unpack", cat="comm", field=spec.field):
                    if self.frame_halos:
                        buf = unframe_payload(buf)
                    unpack_boundary_offsets(
                        buf, [getattr(dst, name)], spec.dst
                    )

    def _jnz(self, pairs) -> None:
        """One level's restrictions: local ones and sends, then receives."""
        states = self.states
        for child, parent, regions, tag in pairs:
            cs = states.get(child.block_id)
            if cs is None:
                continue
            buf = pack_restriction(cs.z_new, child, regions)
            ps = states.get(parent.block_id)
            if ps is not None:
                unpack_restriction(
                    ps.z_new, parent, regions, buf, parent_h=ps.hz
                )
            else:
                self.comm.send(
                    buf, dest=self.owner[parent.block_id], tag=_TAG_JNZ + tag
                )
        for child, parent, regions, tag in pairs:
            ps = states.get(parent.block_id)
            if ps is not None and child.block_id not in states:
                buf = self.comm.recv(
                    source=self.owner[child.block_id], tag=_TAG_JNZ + tag
                )
                unpack_restriction(
                    ps.z_new, parent, regions, buf, parent_h=ps.hz
                )

    def _jnq(self, pairs) -> None:
        """One level's flux interpolations: local ones and sends, then
        receives."""
        states = self.states
        for child, parent, edges, tag in pairs:
            ps = states.get(parent.block_id)
            if ps is None:
                continue
            buf = pack_flux_edges(ps.m_new, ps.n_new, edges)
            cs = states.get(child.block_id)
            if cs is not None:
                unpack_flux_edges(cs.m_new, cs.n_new, edges, buf)
            else:
                self.comm.send(
                    buf, dest=self.owner[child.block_id], tag=_TAG_JNQ + tag
                )
        for child, parent, edges, tag in pairs:
            cs = states.get(child.block_id)
            if cs is not None and parent.block_id not in states:
                buf = self.comm.recv(
                    source=self.owner[parent.block_id], tag=_TAG_JNQ + tag
                )
                unpack_flux_edges(cs.m_new, cs.n_new, edges, buf)

    def _observe_step(self, wall_s: float) -> None:
        """Fold one step into the process metrics registry (obs armed)."""
        m = self._obs_metrics
        if m is None:
            from repro.obs.metrics import get_registry

            reg = get_registry()
            m = self._obs_metrics = (
                reg.counter("repro_steps_total", "model steps integrated"),
                reg.counter("repro_cells_total", "cell updates performed"),
                reg.histogram(
                    "repro_step_seconds", "wall time of one model step"
                ),
                reg.gauge(
                    "repro_steps_per_second", "sustained step throughput"
                ),
                reg.gauge(
                    "repro_cells_per_second",
                    "sustained cell-update throughput",
                ),
            )
        steps, cells, hist, sps, cps = m
        steps.inc()
        cells.inc(self._n_cells)
        hist.observe(wall_s)
        self._obs_wall_s += wall_s
        self._obs_steps += 1
        if self._obs_wall_s > 0:
            sps.set(self._obs_steps / self._obs_wall_s)
            cps.set(self._obs_steps * self._n_cells / self._obs_wall_s)

    def run(
        self,
        n_steps: int | None = None,
        callback: Callable[["RTiModel"], None] | None = None,
        callback_every: int = 0,
        monitor=None,
        store=None,
        checkpoint_every: int = 0,
    ) -> None:
        """Integrate *n_steps* (default: ``config.n_steps``) steps.

        *monitor* is any object with ``after_step(model)`` — e.g. a
        :class:`repro.resilience.HealthMonitor` — invoked after every
        step; it may raise (typically
        :class:`~repro.errors.NumericalError`) to abort the run.  A
        list or tuple of such objects is wrapped in a
        :class:`CompositeMonitor` so several observers compose.

        *store* is an optional :class:`repro.persist.RunStore`.  When
        given, the loop spills a checksummed on-disk snapshot every
        *checkpoint_every* steps (cadence on the absolute step count, so
        a resumed run keeps the original alignment) and installs a
        SIGTERM/SIGINT guard that captures one final snapshot and
        journals the interruption before unwinding with
        :class:`KeyboardInterrupt` — the run stays resumable via
        ``repro resume``.
        """
        steps = self.config.n_steps if n_steps is None else n_steps
        if steps < 0:
            raise ConfigurationError("n_steps must be non-negative")
        if isinstance(monitor, (list, tuple)):
            monitor = CompositeMonitor(monitor)

        if store is None:
            import contextlib

            guard = contextlib.nullcontext()
        else:
            from repro.persist.signals import interrupt_guard

            guard = interrupt_guard(
                snapshot_fn=lambda: store.save_snapshot(self),
                journal_fn=lambda sig, ok: store.record_event(
                    "interrupted",
                    signal=sig,
                    step=self.step_count,
                    time=self.time,
                    snapshotted=ok,
                ),
            )
        with guard:
            for k in range(steps):
                self.step()
                if monitor is not None:
                    monitor.after_step(self)
                # Products stream before the checkpoint spill: a snapshot
                # at step s then implies the product rows up to s are on
                # disk (resume regenerates the tail either way).
                if callback is not None and callback_every and (
                    (k + 1) % callback_every == 0
                ):
                    callback(self)
                if (
                    store is not None
                    and checkpoint_every
                    and self.step_count % checkpoint_every == 0
                ):
                    store.save_snapshot(self)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def total_volume(self) -> float:
        """Total water volume over all level-1 blocks [m^3].

        Level 1 covers the whole domain; finer levels overlap it, so
        conservation statements are made on level 1 only.
        """
        return sum(
            self.states[blk.block_id].volume()
            for blk in self.grid.level(1).blocks
        )

    def max_eta(self, level: int | None = None) -> float:
        """Maximum current water level over wet cells [m]."""
        out = -np.inf
        for lvl in self.grid.levels:
            if level is not None and lvl.index != level:
                continue
            for blk in lvl.blocks:
                st = self.states[blk.block_id]
                wet = st.total_depth() > self.config.dry_threshold
                if wet.any():
                    out = max(out, float(st.eta_interior()[wet].max()))
        return out

    def max_speed(self) -> float:
        """Maximum accumulated flow speed over all blocks [m/s]."""
        return max(float(acc.vmax.max()) for acc in self.outputs.values())
