"""Recovery engine: checkpoint/rollback, retry, and degradation drive.

:class:`RecoveryEngine` owns the resilient time-integration loop of one
forecast.  Around every model step it:

* prices the step on the simulated clock and lets the deadline
  supervisor order graceful degradations (drop the finest nest level,
  coarsen the output cadence, finish early);
* maintains the checkpoint ring on a cadence, refusing to archive
  corrupted state;
* injects the fault plan's scheduled NaN corruptions (chaos testing);
* runs the health monitor and, on :class:`~repro.errors.NumericalError`,
  rolls back to the last good checkpoint — halving the time step when
  the same checkpoint keeps blowing up (the classic stiff-case
  response), and giving up into an explicitly degraded partial forecast
  after ``max_rollbacks``.

The communication-side recovery — retry with exponential backoff on
timed-out simulated MPI, then a single-process fallback — lives in
:func:`resilient_run_distributed`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

from repro.core.model import RTiModel
from repro.errors import (
    CommunicationError,
    IntegrityError,
    NumericalError,
    RetryExhaustedError,
)
from repro.grid.hierarchy import NestedGrid
from repro.obs.log import get_logger
from repro.obs.trace import get_tracer, instant
from repro.resilience.checkpoint import CheckpointRing
from repro.resilience.deadline import DeadlineSupervisor, DegradationEvent
from repro.resilience.faultplan import FaultPlan
from repro.resilience.inject import (
    corrupt_checkpoint,
    corrupt_state,
    corrupt_state_bitflip,
)
from repro.resilience.integrity import verify_checkpoint

_LOG = get_logger("resilience")


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action taken by the engine."""

    step: int
    kind: str  # rollback | dt_halved | recovery_abort | comm_retry | fallback_single_process
    detail: str
    rank: int | None = None

    def __str__(self) -> str:
        who = f" (rank {self.rank})" if self.rank is not None else ""
        return f"step {self.step}: {self.kind}{who} — {self.detail}"


def drop_finest_level(model: RTiModel) -> RTiModel:
    """Rebuild *model* without its finest nest level, carrying all state.

    The surviving blocks' prognostic buffers, buffer flip, clock, output
    cadence and forecast-product accumulators are copied bitwise, so the
    degraded model continues the same run — only the dropped level's
    resolution (and its child->parent feedback) is lost.
    """
    grid = model.grid
    if grid.n_levels <= 1:
        raise NumericalError("cannot drop the only grid level")
    degraded = RTiModel(
        NestedGrid(levels=grid.levels[:-1], ratio=grid.ratio),
        model.bathymetry,
        model.config,
    )
    degraded.time = model.time
    degraded.step_count = model.step_count
    degraded.output_every = model.output_every
    degraded.restore_blocks(model.snapshot_blocks(degraded.states))
    for bid, acc in degraded.outputs.items():
        src = model.outputs[bid]
        acc.zmax[...] = src.zmax
        acc.vmax[...] = src.vmax
        acc.inundation_max[...] = src.inundation_max
        acc.arrival_time[...] = src.arrival_time
        acc._z0[...] = src._z0
        acc._land[...] = src._land
    return degraded


class RecoveryEngine:
    """Resilient integration loop around one :class:`RTiModel`.

    Parameters
    ----------
    model:
        The forecast model (replaced in place when a level is dropped;
        read the final model from ``engine.model``).
    horizon_s:
        Simulated physical time to integrate to.
    monitor, ring, supervisor, clock, fault_plan:
        Collaborators; all optional except the ring (created on demand).
    checkpoint_every:
        Snapshot cadence [steps].
    max_rollbacks:
        Rollback budget before the engine gives up into a partial,
        explicitly degraded forecast.
    dt_min:
        Floor for timestep halving (default: dt/8).
    min_levels:
        Degradation floor for ``drop_level``.
    max_output_every:
        Degradation ceiling for ``coarsen_output``.
    tracker:
        Optional :class:`repro.resilience.integrity.IntegrityTracker`
        collecting corruption detections/corrections — the engine marks
        an integrity-triggered rollback as the correction and an abort
        with no verifiable checkpoint as *uncorrected*.
    scrubber:
        Optional :class:`repro.resilience.integrity.CheckpointScrubber`
        run every *scrub_every* steps (0 disables the cadence).
    """

    def __init__(
        self,
        model: RTiModel,
        horizon_s: float,
        *,
        monitor=None,
        ring: CheckpointRing | None = None,
        supervisor: DeadlineSupervisor | None = None,
        clock=None,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 20,
        max_rollbacks: int = 6,
        dt_min: float | None = None,
        min_levels: int = 1,
        max_output_every: int = 8,
        journal=None,
        tracker=None,
        scrubber=None,
        scrub_every: int = 0,
    ) -> None:
        if horizon_s <= 0:
            raise NumericalError("horizon must be positive")
        if checkpoint_every < 1:
            raise NumericalError("checkpoint cadence must be >= 1")
        self.model = model
        self.horizon_s = float(horizon_s)
        self.monitor = monitor
        # `ring or ...` would discard an empty caller ring (len == 0 is
        # falsy), silently breaking the report's checkpoint counters.
        self.ring = ring if ring is not None else CheckpointRing()
        self.supervisor = supervisor
        self.clock = clock
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.max_rollbacks = max_rollbacks
        self.dt_min = (
            model.config.dt / 8.0 if dt_min is None else float(dt_min)
        )
        self.min_levels = min_levels
        self.max_output_every = max_output_every

        #: Optional ``callable(event_name, **fields)`` — typically
        #: ``RunStore.record_event`` — receiving every recovery and
        #: degradation action as it happens (write-ahead, not post-hoc).
        self.journal = journal
        self.recoveries: list[RecoveryEvent] = []
        self.aborted = False
        self.tracker = tracker
        self.scrubber = scrubber
        self.scrub_every = scrub_every
        self._rollbacks = 0
        self._last_rollback_step: int | None = None
        self._last_ckpt_step: int | None = None
        self._last_scrub_step: int | None = None

    # -- helpers ---------------------------------------------------------

    @property
    def degradations(self) -> list[DegradationEvent]:
        return self.supervisor.events if self.supervisor else []

    def _steps_left(self) -> int:
        return max(
            0,
            math.ceil(
                (self.horizon_s - self.model.time) / self.model.config.dt
                - 1e-9
            ),
        )

    def _record(self, kind: str, detail: str) -> None:
        self.recoveries.append(
            RecoveryEvent(self.model.step_count, kind, detail)
        )
        _LOG.warning(
            "recovery", kind=kind, step=self.model.step_count, detail=detail
        )
        if get_tracer().enabled:
            instant(
                f"recovery:{kind}",
                cat="resilience",
                step=self.model.step_count,
                detail=detail,
            )
            from repro.obs.metrics import get_registry

            get_registry().counter(
                "repro_recovery_actions_total",
                "recovery-engine actions by kind",
                labels={"kind": kind},
            ).inc()
        if self.journal is not None:
            self.journal(
                "recovery",
                kind=kind,
                step=self.model.step_count,
                detail=detail,
            )

    def _verified_checkpoint(self):
        """Newest ring entry whose digests still verify.

        Entries that fail re-verification are evicted (the quarantine:
        a corrupt rollback target is worse than a shorter rollback), the
        detection landing in the tracker.  Entries without digests pass
        unchecked, as before the integrity layer existed.
        """
        while True:
            ckpt = self.ring.latest
            if ckpt is None:
                return None
            bad = verify_checkpoint(ckpt)
            if not bad:
                return ckpt
            blocks = sorted({b for b, _k in bad})
            if self.tracker is not None:
                self.tracker.detection(
                    "checkpoint",
                    step=ckpt.step,
                    detail=(
                        f"rollback target @ step {ckpt.step} failed digest "
                        f"verification (blocks {blocks})"
                    ),
                    blocks=blocks,
                )
            self._record(
                "ckpt_evicted",
                f"checkpoint @ step {ckpt.step} failed digest "
                f"verification (blocks {blocks}) — evicted, trying an "
                f"older one",
            )
            self.ring.drop_latest()

    def _rollback(self, exc: NumericalError) -> None:
        self._rollbacks += 1
        quarantine = isinstance(exc, IntegrityError)
        if self._rollbacks > self.max_rollbacks:
            self._record(
                "recovery_abort",
                f"rollback budget ({self.max_rollbacks}) exhausted: {exc}",
            )
            if quarantine and self.tracker is not None:
                self.tracker.uncorrectable(
                    exc.surface or "state",
                    step=exc.step,
                    detail=f"rollback budget exhausted: {exc}",
                )
            self.aborted = True
            return
        ckpt = self._verified_checkpoint()
        if ckpt is None:
            self._record("recovery_abort", f"no checkpoint to restore: {exc}")
            if quarantine and self.tracker is not None:
                self.tracker.uncorrectable(
                    exc.surface or "state",
                    step=exc.step,
                    detail=f"no clean checkpoint survives: {exc}",
                )
            self.aborted = True
            return
        repeat = ckpt.step == self._last_rollback_step
        self.ring.restore(self.model, ckpt)
        if quarantine:
            blast = f" (quarantined blocks {exc.blocks})" if exc.blocks else ""
            self._record(
                "quarantine_rollback",
                f"corruption on surface {exc.surface or 'state'}{blast}: "
                f"restored verified checkpoint @ step {ckpt.step} "
                f"after: {exc}",
            )
            if self.tracker is not None:
                self.tracker.corrected(
                    "rollback",
                    exc.surface or "state",
                    step=exc.step,
                    detail=(
                        f"rolled back to verified checkpoint @ step "
                        f"{ckpt.step}"
                    ),
                )
        else:
            self._record(
                "rollback",
                f"restored checkpoint @ step {ckpt.step} after: {exc}",
            )
        # Corruption is transient (the plan consumes each flip once), so
        # a repeated quarantine rollback does not mean the *physics* is
        # stiff — dt halving is reserved for genuine numerical blow-ups.
        if repeat and not quarantine:
            new_dt = self.model.config.dt / 2.0
            if new_dt < self.dt_min:
                self._record(
                    "recovery_abort",
                    f"dt floor {self.dt_min:g}s reached while still "
                    f"unstable",
                )
                self.aborted = True
                return
            self.model.config = replace(self.model.config, dt=new_dt)
            self._record("dt_halved", f"dt -> {new_dt:g}s")
        self._last_rollback_step = ckpt.step
        if self.monitor is not None and hasattr(self.monitor, "reset_baseline"):
            self.monitor.reset_baseline()

    def _degrade(self, step_cost_s: float) -> bool:
        """Apply one degradation; returns False on ``finish_early``."""
        sup = self.supervisor
        model = self.model
        projected = sup.projected_finish_s(
            self.clock.elapsed_s, self._steps_left(), step_cost_s
        )
        action = sup.next_action(
            can_drop_level=model.grid.n_levels > self.min_levels,
            can_coarsen=model.output_every < self.max_output_every,
        )
        if action == "drop_level":
            dropped = model.grid.levels[-1]
            self.model = drop_finest_level(model)
            self.ring.clear()
            self._last_ckpt_step = None
            if self.monitor is not None and hasattr(
                self.monitor, "reset_baseline"
            ):
                self.monitor.reset_baseline()
            detail = (
                f"dropped level {dropped.index} "
                f"({dropped.n_cells:,} cells, dx={dropped.dx:g} m)"
            )
        elif action == "coarsen_output":
            model.output_every = min(
                self.max_output_every, max(2, model.output_every * 4)
            )
            detail = f"output cadence -> every {model.output_every} steps"
        else:
            # Shorten the horizon to what the remaining budget affords
            # rather than stopping dead: a 70%-horizon forecast beats
            # none at all.
            budget_s = sup.deadline_s * sup.margin - self.clock.elapsed_s
            affordable = (
                int(budget_s / step_cost_s) if step_cost_s > 0 else 0
            )
            new_horizon = min(
                self.horizon_s,
                model.time + max(0, affordable) * model.config.dt,
            )
            detail = (
                f"horizon shortened to t={new_horizon:.1f}s of "
                f"{self.horizon_s:.1f}s"
            )
            self.horizon_s = new_horizon
        sup.record(
            DegradationEvent(
                step=self.model.step_count,
                sim_time_s=self.model.time,
                action=action,
                detail=detail,
                projected_s=projected,
                deadline_s=sup.deadline_s,
            )
        )
        _LOG.warning(
            "degradation",
            action=action,
            step=self.model.step_count,
            detail=detail,
            projected_s=round(projected, 3),
            deadline_s=sup.deadline_s,
        )
        if get_tracer().enabled:
            instant(
                f"degradation:{action}",
                cat="resilience",
                step=self.model.step_count,
                detail=detail,
            )
        # Meter unconditionally: overload dashboards must see every
        # degradation whether or not the run was traced.
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_degradations_total",
            "graceful-degradation actions by kind",
            labels={"action": action},
        ).inc()
        if self.journal is not None:
            self.journal(
                "degradation",
                action=action,
                step=self.model.step_count,
                detail=detail,
                projected_s=round(projected, 3),
                deadline_s=sup.deadline_s,
            )
        return not (action == "finish_early" and self.horizon_s <= model.time)

    def _inject_state_faults(self) -> None:
        if self.fault_plan is None:
            return
        for spec in self.fault_plan.state_faults_at(self.model.step_count):
            corrupt_state(self.model.states, spec)

    def _inject_bitflips(self) -> None:
        """Fire scheduled bit flips *before* the step runs.

        State flips land in the published (read) buffers — data the
        integrity monitor checksummed at the previous ``after_step`` —
        so the next verification pass catches the mutation while a clean
        rollback target still exists.  Checkpoint flips land in the
        newest ring entry, after any same-step snapshot, so the archived
        copy (not live state) is what the scrubber must catch.
        """
        if self.fault_plan is None:
            return
        step = self.model.step_count
        for spec in self.fault_plan.bitflips_at(step, "state"):
            corrupt_state_bitflip(self.model.states, spec)
        for spec in self.fault_plan.bitflips_at(step, "checkpoint"):
            corrupt_checkpoint(self.ring.latest, spec)

    def _maybe_scrub(self, step: int) -> None:
        if (
            self.scrubber is None
            or not self.scrub_every
            or step == 0
            or step % self.scrub_every != 0
            or step == self._last_scrub_step
        ):
            return
        self._last_scrub_step = step
        stats = self.scrubber.scrub()
        if stats["evicted"] or stats["repaired"] or stats["disk_quarantined"]:
            self._record(
                "scrub",
                f"checkpoint scrub: {stats['checked']} checked, "
                f"{stats['repaired']} repaired, {stats['evicted']} "
                f"evicted, {stats['disk_quarantined']} disk snapshot(s) "
                f"quarantined",
            )

    # -- the loop --------------------------------------------------------

    def run(self) -> RTiModel:
        """Integrate to the horizon (or a degraded stop); returns the model.

        Guaranteed to terminate: the iteration count is hard-capped well
        above any legitimate run length, and hitting the cap aborts into
        a degraded forecast rather than hanging.
        """
        model = self.model
        max_iters = 20 * math.ceil(self.horizon_s / self.dt_min) + 1000
        iters = 0
        while (
            self.model.time < self.horizon_s - 1e-9 and not self.aborted
        ):
            model = self.model
            iters += 1
            if iters > max_iters:
                self._record(
                    "recovery_abort",
                    f"iteration cap {max_iters} hit — stopping degraded",
                )
                self.aborted = True
                break
            step = model.step_count
            slowdown = (
                self.fault_plan.straggler_factor(step)
                if self.fault_plan is not None
                else 1.0
            )
            if self.supervisor is not None and self.clock is not None:
                cost_s = 1e-6 * self.clock.step_cost_us(
                    model, slowdown=slowdown
                )
                if self.supervisor.overrun(
                    self.clock.elapsed_s, self._steps_left(), cost_s
                ):
                    if not self._degrade(cost_s):
                        break  # finish_early
                    continue  # re-project with the degraded model
            if (
                self._last_ckpt_step is None
                or step - self._last_ckpt_step >= self.checkpoint_every
            ):
                try:
                    self.ring.snapshot(model)
                    self._last_ckpt_step = step
                except NumericalError as exc:
                    self._rollback(exc)
                    continue
            self._maybe_scrub(step)
            if self.aborted:
                break
            self._inject_bitflips()
            try:
                model.step()
                self._inject_state_faults()
                if self.monitor is not None:
                    self.monitor.after_step(model)
            except NumericalError as exc:
                self._rollback(exc)
                continue
            if self.clock is not None:
                self.clock.charge_step(model, slowdown=slowdown)
        return self.model

    @property
    def completed(self) -> bool:
        """Did the run reach the full horizon at full fidelity?"""
        return (
            not self.aborted
            and self.model.time >= self.horizon_s - 1e-9
            and not (self.supervisor and self.supervisor.degraded)
        )


def retry_with_backoff(
    fn,
    attempts: int = 3,
    backoff_s: float = 0.05,
    retry_on=(CommunicationError,),
    on_retry=None,
    jitter: bool = True,
    max_elapsed_s: float | None = None,
    rng=None,
):
    """Call *fn()* with exponential backoff on the given exceptions.

    Returns *fn*'s value; re-raises the last exception once *attempts*
    are exhausted or *max_elapsed_s* of wall clock (calls plus sleeps)
    has been spent.  *on_retry(attempt, exc)* observes each failure.

    With *jitter* (the default) each sleep is drawn uniformly from
    ``[0, backoff_s * 2**attempt]`` — AWS-style "full jitter".  Every
    rank of a distributed run retries after the same fault at the same
    moment; deterministic backoff keeps them aligned so each retry storm
    hits the transport as one spike.  Full jitter decorrelates them
    while never sleeping longer than the deterministic schedule.  Pass a
    seeded ``random.Random`` as *rng* for reproducible jitter.

    *max_elapsed_s* bounds the total time the retry loop may consume —
    the deadline-aware guard: a forecaster that can spend at most N
    seconds recovering must not let exponential backoff eat the whole
    deadline.  Sleeps are truncated to the remaining budget and no new
    attempt starts once the budget is spent.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    draw = rng.uniform if rng is not None else random.uniform
    start = time.monotonic()
    last: BaseException | None = None
    calls = 0
    for attempt in range(attempts):
        if (
            attempt > 0
            and max_elapsed_s is not None
            and time.monotonic() - start >= max_elapsed_s
        ):
            break
        try:
            calls += 1
            return fn()
        except retry_on as exc:  # noqa: PERF203 - retry loop
            last = exc
            if on_retry is not None:
                on_retry(attempt, exc)
            if attempt < attempts - 1:
                delay = backoff_s * (2**attempt)
                if jitter:
                    delay = draw(0.0, delay)
                if max_elapsed_s is not None:
                    budget_left = max_elapsed_s - (
                        time.monotonic() - start
                    )
                    delay = min(delay, max(0.0, budget_left))
                time.sleep(delay)
    elapsed = time.monotonic() - start
    raise RetryExhaustedError(
        f"gave up after {calls} attempt(s) in {elapsed:.3f}s: {last}",
        attempts=calls,
        elapsed_s=elapsed,
    ) from last


def resilient_run_distributed(
    grid,
    bathymetry,
    config,
    decomp,
    source,
    n_steps: int,
    *,
    fault_plan: FaultPlan | None = None,
    attempts: int = 3,
    backoff_s: float = 0.05,
    comm_timeout: float = 2.0,
    timeout: float = 300.0,
):
    """Distributed run that survives transport faults.

    Retries :func:`repro.par.driver.run_distributed` with exponential
    backoff on any :class:`~repro.errors.CommunicationError` (timeouts
    from dropped messages, injected rank crashes, broken barriers).
    One-shot faults are consumed by the plan on first trigger, so a
    retry after a transient fault succeeds.  If every attempt fails, the
    run falls back to the single-process model — bitwise-identical
    physics, no transport to fail — so a result is always produced.

    Returns ``(eta_by_block, recovery_events)``.
    """
    from repro.par.driver import run_distributed

    events: list[RecoveryEvent] = []

    def _note(attempt: int, exc: BaseException) -> None:
        events.append(
            RecoveryEvent(
                step=-1,
                kind="comm_retry",
                detail=f"attempt {attempt + 1}/{attempts} failed: {exc}",
                rank=getattr(exc, "failed_rank", None),
            )
        )

    try:
        out = retry_with_backoff(
            lambda: run_distributed(
                grid,
                bathymetry,
                config,
                decomp,
                source,
                n_steps,
                timeout=timeout,
                comm_timeout=comm_timeout,
                fault_plan=fault_plan,
            ),
            attempts=attempts,
            backoff_s=backoff_s,
            on_retry=_note,
        )
        return out, events
    except RetryExhaustedError as exc:
        events.append(
            RecoveryEvent(
                step=-1,
                kind="fallback_single_process",
                detail=f"all {exc.attempts} distributed attempts failed "
                f"in {exc.elapsed_s:.3f}s ({exc.__cause__}); "
                "re-running single-process",
                rank=getattr(exc.__cause__, "failed_rank", None),
            )
        )
    model = RTiModel(grid, bathymetry, config)
    if source is not None:
        model.set_initial_condition(source)
    model.run(n_steps)
    out = {bid: st.eta_interior().copy() for bid, st in model.states.items()}
    return out, events
