"""Distributed time-integration driver over the simulated MPI.

:func:`run_distributed` runs the model's one Fig.-2 step pipeline
(:meth:`repro.core.RTiModel.step`) with the blocks partitioned across
simulated-MPI ranks.  Each rank is a :class:`_RankRuntime`: the same
pipeline over the rank's own blocks, walking the same precomputed
:class:`~repro.core.plan.StepPlan`.  A transfer with an endpoint on
another rank goes through pack -> ``Communicator.send/recv`` -> unpack
with the buffer layouts of the single-process operators, so a
distributed run is bitwise identical to the single-process model — the
correctness contract the paper's communication migration relies on,
verified in ``tests/test_distributed.py``.

Each rank allocates only its own blocks' state (the distributed-memory
point of the exercise); the grid and the step plan are global.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.model import RTiModel
from repro.core.plan import StepPlan
from repro.grid.hierarchy import NestedGrid
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.par.comm import Communicator, run_ranks
from repro.par.decomposition import Decomposition

# Not called here (ranks run RTiModel.step): bound because
# perfbench/tracing.py wraps these names in this module.
from repro.core.mass import nlmass  # noqa: F401
from repro.core.momentum import nlmnt2  # noqa: F401
from repro.nesting.interp import pack_fluxes, unpack_fluxes  # noqa: F401
from repro.nesting.restrict import (  # noqa: F401
    pack_restriction,
    unpack_restriction,
)
from repro.xchg.packing import (  # noqa: F401
    pack_boundary_offsets,
    unpack_boundary_offsets,
)


class _RankRuntime(RTiModel):
    """One rank's share of the model: the step pipeline over its blocks.

    What only a rank has on top of :class:`RTiModel`: its block subset,
    the communicator (bound when the rank starts), a mutable owner map
    and block adoption/release for migration.  A rank accumulates no
    forecast products.
    """

    def __init__(
        self,
        rank: int,
        grid: NestedGrid,
        bathymetry,
        config: SimulationConfig,
        plan: StepPlan,
        owner: dict[int, int],
        frame_halos: bool = False,
    ) -> None:
        self._setup(
            grid, bathymetry, config, plan,
            [grid.block(bid) for bid, r in owner.items() if r == rank],
        )
        self.outputs = {}
        self.comm: Communicator | None = None
        # Rank-local, mutable ownership view.  The survivable runtime
        # retargets entries when it migrates blocks (straggler hedging),
        # identically on every rank, so the plan order is preserved.
        self.owner = dict(owner)
        # With frame_halos, packed seam buffers carry a CRC-32 trailer
        # verified before unpacking (the xchg-level ABFT check, on top
        # of any transport-level MessageIntegrity policy).
        self.frame_halos = frame_halos

    def _observe_step(self, wall_s: float) -> None:
        # The ranks together advance the model by one step per step:
        # rank 0 alone feeds the step metrics.
        if self.comm.rank == 0:
            super()._observe_step(wall_s)

    def adopt_blocks(self, data: dict[int, tuple]) -> None:
        """Take ownership of blocks migrated from another rank."""
        for bid in data:
            self.states[bid] = self._make_state(self.grid.block(bid))
        self.restore_blocks(data)

    def drop_blocks(self, block_ids) -> None:
        """Release ownership of blocks migrated to another rank."""
        for bid in list(block_ids):
            self.states.pop(bid, None)


def _rank_runtimes(
    grid: NestedGrid,
    bathymetry,
    config: SimulationConfig,
    decomp: Decomposition,
    frame_halos: bool = False,
) -> list[_RankRuntime]:
    """Every rank's runtime, built (and CFL-checked) before any rank runs."""
    owner = decomp.owner_map()
    plan = StepPlan.build(grid, config)
    return [
        _RankRuntime(r, grid, bathymetry, config, plan, owner, frame_halos)
        for r in range(decomp.n_ranks)
    ]


def run_distributed(
    grid: NestedGrid,
    bathymetry,
    config: SimulationConfig,
    decomp: Decomposition,
    source,
    n_steps: int,
    timeout: float = 300.0,
    comm_timeout: float = 30.0,
    fault_plan=None,
    store=None,
    integrity=None,
) -> dict[int, np.ndarray]:
    """Run the pipeline on ``decomp.n_ranks`` simulated MPI ranks.

    Returns the final water level (physical cells) of every block,
    gathered from all ranks.

    *comm_timeout* bounds every blocking transport operation (and thus
    how long a rank stalls on a lost message before raising
    :class:`~repro.errors.CommTimeoutError`).  *fault_plan* is an
    optional :class:`repro.resilience.FaultPlan` whose communication
    faults (rank crashes, message drops/delays, stragglers) are injected
    into each rank's transport — the chaos-testing surface of the
    resilience layer.

    *store* (a :class:`repro.persist.RunStore`) makes the distributed
    run observable and restart-aware: start/interruption/completion are
    journaled write-ahead (SIGTERM/SIGINT are caught while the ranks
    run), and the gathered final water level is published atomically
    into the store's products directory.

    *integrity* (a :class:`repro.resilience.integrity.MessageIntegrity`)
    arms the ABFT transport checks: packed halo buffers gain an
    xchg-level CRC trailer and every ndarray payload is CRC-framed at
    the transport with a NACK/retransmit correction path.  Detections
    and corrections land in the policy's shared tracker.
    """
    runtimes = _rank_runtimes(
        grid, bathymetry, config, decomp, frame_halos=integrity is not None
    )
    if source is not None:
        for rt in runtimes:
            rt.set_initial_condition(source)

    comm_wrap = None
    if fault_plan is not None:
        from repro.resilience.inject import FaultyComm

        comm_wrap = lambda comm: FaultyComm(comm, fault_plan)  # noqa: E731

    def rank_main(comm: Communicator) -> dict[int, np.ndarray]:
        # Each rank is a thread: bind the rank id to this thread's spans
        # so trace tracks and the imbalance summary separate per rank.
        get_tracer().set_context(rank=comm.rank)
        rt = runtimes[comm.rank]
        rt.comm = comm
        rt.run(n_steps)
        return {bid: st.eta_interior().copy() for bid, st in rt.states.items()}

    if store is None:
        import contextlib

        guard = contextlib.nullcontext()
    else:
        from repro.persist.signals import interrupt_guard

        store.record_event(
            "distributed_start",
            n_ranks=decomp.n_ranks,
            n_steps=n_steps,
            config=config.to_dict(),
        )
        guard = interrupt_guard(
            journal_fn=lambda sig, _ok: store.record_event(
                "interrupted", signal=sig, phase="distributed"
            )
        )
    # A root span over the whole group: run_ranks captures this thread's
    # context while it is open, so every rank's span tree hangs under it.
    with guard, _span(
        "distributed", cat="step",
        n_ranks=decomp.n_ranks, n_steps=n_steps,
    ):
        results = run_ranks(
            decomp.n_ranks,
            rank_main,
            timeout=timeout,
            comm_timeout=comm_timeout,
            comm_wrap=comm_wrap,
            integrity=integrity,
        )
    merged: dict[int, np.ndarray] = {}
    for part in results:
        merged.update(part)
    if store is not None:
        _publish_distributed_eta(store, merged, n_steps)
    return merged


def _publish_distributed_eta(store, eta_by_block, n_steps: int) -> None:
    """Atomically write the gathered final eta into the store's products."""
    import os

    from repro.errors import PersistError
    from repro.persist.snapshot import fsync_dir

    final = store.products_dir / f"distributed_eta_step_{n_steps:08d}.npz"
    tmp = final.with_name(f".tmp-{final.name}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, **{f"b{bid}": a for bid, a in eta_by_block.items()}
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        fsync_dir(final.parent)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise PersistError(
            f"cannot publish distributed eta {final}: {exc}"
        ) from exc
    store.record_event(
        "distributed_complete", n_steps=n_steps, product=final.name
    )
