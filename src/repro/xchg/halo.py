"""Intra-level halo (ghost) exchange between neighbor blocks.

Implements the data movement of the paper's PTP_Z (water level) and PTP_MN
(discharge fluxes) routines for one pair of blocks living in the same
process: ghost layers are copied directly between the two
:class:`BlockState` arrays.  The model's step pipeline
(:mod:`repro.core.model`) walks the same :mod:`repro.xchg.specs` copies
from a plan built once; a copy whose two blocks sit on different ranks
goes through pack -> simulated MPI -> unpack instead of a slice copy.

The exchanged range extends into the ghost rows/columns where both padded
arrays cover them; combined with the zero-gradient fill this makes a
split-block run bitwise equal to a monolithic one for full-extent seams
(the 1-D decomposition style the original RTi code uses).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.specs import seam_copy_specs


def halo_cells(a: Block, b: Block, nghost: int = NGHOST) -> int:
    """Number of cells moved by one z-exchange between two neighbors.

    Used by the communication-volume model; returns 0 for non-neighbors.
    """
    if not a.touches(b):
        return 0
    if a.gi1 == b.gi0 or b.gi1 == a.gi0:  # vertical seam
        lo, hi = max(a.gj0, b.gj0), min(a.gj1, b.gj1)
        return 2 * nghost * (hi - lo)
    lo, hi = max(a.gi0, b.gi0), min(a.gi1, b.gi1)
    return 2 * nghost * (hi - lo)


def _array(state, field: str) -> np.ndarray:
    return {"z": state.z_new, "m": state.m_new, "n": state.n_new}[field]


def exchange_halo(state_a, state_b, which: str, nghost: int = NGHOST) -> None:
    """Exchange ghost layers of one field ('z', 'm' or 'n') between neighbors.

    Operates on the *new* (write) buffers, matching the paper's pipeline
    where exchanges immediately follow the kernel that produced the field.
    """
    if which not in ("z", "m", "n"):
        raise CommunicationError(f"unknown field {which!r}")
    states = {
        state_a.block.block_id: state_a,
        state_b.block.block_id: state_b,
    }
    for spec in seam_copy_specs(state_a.block, state_b.block, nghost):
        if spec.field != which:
            continue
        src = _array(states[spec.src_block], which)
        dst = _array(states[spec.dst_block], which)
        dst[spec.dst] = src[spec.src]
