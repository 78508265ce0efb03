"""In-memory checkpoint ring for the coupled model.

A :class:`CheckpointRing` keeps the last *capacity* deep snapshots of an
:class:`~repro.core.model.RTiModel`'s complete prognostic state (both
leap-frog buffers of every block, the buffer flip, the clock) plus the
forecast-product accumulators.  Restoring a snapshot and re-running is
**bitwise identical** to an uninterrupted run — the property the
rollback recovery relies on and ``tests/test_resilience.py`` proves.

Snapshots are validated on capture: a checkpoint of NaN-contaminated
state would make rollback useless, so :meth:`CheckpointRing.snapshot`
raises :class:`~repro.errors.NumericalError` instead of archiving
corruption.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import NumericalError, PersistError, ReproError


@dataclass(frozen=True)
class Checkpoint:
    """One deep snapshot of model state (immutable once taken)."""

    step: int
    time: float
    dt: float
    output_every: int
    n_levels: int
    #: block_id -> (z0, z1, m0, m1, n0, n1, flip)
    states: dict
    #: block_id -> (zmax, vmax, inundation_max, arrival_time)
    outputs: dict
    #: block_id -> {"crc": (c0..c5), "sum": (s0..s5)} ABFT digests of the
    #: state buffers, present when the ring runs with checksums enabled.
    #: The scrubber and a verified rollback re-check arrays against these.
    checksums: dict | None = None

    @property
    def nbytes(self) -> int:
        """Memory footprint of the snapshot arrays."""
        return sum(
            a.nbytes for bufs in self.states.values() for a in bufs[:6]
        ) + sum(a.nbytes for accs in self.outputs.values() for a in accs)


class CheckpointRing:
    """Fixed-capacity ring of model snapshots (oldest evicted first).

    With a *store* (a :class:`repro.persist.RunStore`), the ring doubles
    as the durable-persistence trigger: every *spill_every*-th in-memory
    snapshot is also written to disk as a checksummed, atomically
    published snapshot, so the rollback cadence of PR 1 and the
    crash-restart cadence of ``repro resume`` share one policy.  Disk
    failures during the spill raise
    :class:`~repro.errors.PersistError`; the in-memory snapshot is kept
    either way, so rollback keeps working on a full disk.
    """

    def __init__(
        self,
        capacity: int = 4,
        store=None,
        spill_every: int = 1,
        checksums: bool = False,
    ) -> None:
        if capacity < 1:
            raise ReproError("checkpoint ring capacity must be >= 1")
        if spill_every < 1:
            raise ReproError("checkpoint spill cadence must be >= 1")
        self._ring: deque[Checkpoint] = deque(maxlen=capacity)
        self.store = store
        self.spill_every = spill_every
        self.checksums = checksums
        self.taken = 0
        self.restored = 0
        self.spilled = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def latest(self) -> Checkpoint | None:
        return self._ring[-1] if self._ring else None

    def entries(self) -> list[Checkpoint]:
        """All held snapshots, oldest first (for the scrubber)."""
        return list(self._ring)

    def discard(self, ckpt: Checkpoint) -> bool:
        """Evict one snapshot (a scrub verdict said it is corrupt)."""
        try:
            self._ring.remove(ckpt)
        except ValueError:
            return False
        return True

    def replace(self, old: Checkpoint, new: Checkpoint) -> bool:
        """Swap a repaired snapshot in for a corrupt one, in place."""
        for i, held in enumerate(self._ring):
            if held is old:
                self._ring[i] = new
                return True
        return False

    def drop_latest(self) -> Checkpoint | None:
        """Pop the newest snapshot (rollback found it unverifiable)."""
        return self._ring.pop() if self._ring else None

    def clear(self) -> None:
        """Drop all snapshots (after a degradation changed the grid)."""
        self._ring.clear()

    def snapshot(self, model, validate: bool = True) -> Checkpoint:
        """Archive the model's current state; returns the checkpoint.

        With *validate* (default), raises
        :class:`~repro.errors.NumericalError` on non-finite state rather
        than storing a poisoned snapshot.
        """
        states = model.snapshot_blocks()
        for bid, snap in states.items():
            if validate and not all(np.isfinite(a).all() for a in snap[:6]):
                raise NumericalError(
                    f"refusing to checkpoint non-finite state "
                    f"(block {bid}, step {model.step_count})"
                )
        outputs = {
            bid: (
                acc.zmax.copy(),
                acc.vmax.copy(),
                acc.inundation_max.copy(),
                acc.arrival_time.copy(),
            )
            for bid, acc in model.outputs.items()
        }
        digests = None
        if self.checksums:
            from repro.resilience.integrity import checkpoint_checksums

            digests = checkpoint_checksums(states)
        ckpt = Checkpoint(
            step=model.step_count,
            time=model.time,
            dt=model.config.dt,
            output_every=model.output_every,
            n_levels=model.grid.n_levels,
            states=states,
            outputs=outputs,
            checksums=digests,
        )
        self._ring.append(ckpt)
        self.taken += 1
        if self.store is not None and (self.taken - 1) % self.spill_every == 0:
            try:
                self.store.save_snapshot(model)
            except PersistError:
                raise
            except (OSError, ValueError) as exc:
                raise PersistError(
                    f"checkpoint disk spill failed at step "
                    f"{model.step_count}: {exc}"
                ) from exc
            self.spilled += 1
        return ckpt

    def restore(self, model, ckpt: Checkpoint | None = None) -> Checkpoint:
        """Rewind *model* to *ckpt* (default: the latest snapshot).

        The model must have the same block set as the snapshot (rollback
        never crosses a grid degradation — the engine clears the ring
        when it drops a level).
        """
        if ckpt is None:
            ckpt = self.latest
        if ckpt is None:
            raise ReproError("no checkpoint to restore")
        if set(ckpt.states) != set(model.states):
            raise ReproError(
                "checkpoint block set does not match the model "
                "(grid changed since the snapshot)"
            )
        model.restore_blocks(ckpt.states)
        for bid, acc in model.outputs.items():
            zmax, vmax, inund, arrival = ckpt.outputs[bid]
            acc.zmax[...] = zmax
            acc.vmax[...] = vmax
            acc.inundation_max[...] = inund
            acc.arrival_time[...] = arrival
        model.time = ckpt.time
        model.step_count = ckpt.step
        model.output_every = ckpt.output_every
        if model.config.dt != ckpt.dt:
            model.config = replace(model.config, dt=ckpt.dt)
        self.restored += 1
        return ckpt
