"""Simulated MPI substrate and domain decomposition.

The original RTi code is flat-MPI Fortran.  mpi4py is not a dependency
here; instead this package provides

* :class:`Communicator` / :func:`run_ranks` — an in-process, thread-backed
  MPI-like runtime (blocking/nonblocking point-to-point, barrier,
  allreduce) used to run the *real* pack -> send -> recv -> unpack pipeline
  in tests and examples;
* :class:`Decomposition` and friends — the static block-to-rank mapping
  (one level per rank, consecutive blocks, optional 1-D row splits) with
  the original cell-equalizing algorithm (Section II-B);
* :mod:`repro.par.timing` / :mod:`repro.par.protocol` — the message cost
  model (latency/bandwidth, eager vs rendezvous selection, host staging vs
  GPUDirect) feeding the performance simulator;
* :func:`run_distributed` — the full Fig.-2 pipeline executed across
  simulated-MPI ranks (pack -> send/recv -> unpack), bitwise identical to
  the single-process model;
* :mod:`repro.par.splitcost` — the 1-D vs 2-D decomposition trade-off
  (vector length vs halo volume, Section II-B).
"""

from repro.par.comm import Communicator, run_ranks
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
    ranks_per_level,
    build_decomposition,
    decomposition_from_separators,
)
from repro.par.timing import MessageCostModel
from repro.par.protocol import ProtocolConfig, message_time


def __getattr__(name: str):
    # The driver's rank runtime subclasses repro.core.RTiModel, whose
    # import chain (via repro.obs) reaches this package: load it on use.
    if name == "run_distributed":
        from repro.par.driver import run_distributed

        return run_distributed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Communicator",
    "run_ranks",
    "run_distributed",
    "Decomposition",
    "RankWork",
    "WorkItem",
    "equal_cell_assignment",
    "ranks_per_level",
    "build_decomposition",
    "decomposition_from_separators",
    "MessageCostModel",
    "ProtocolConfig",
    "message_time",
]
