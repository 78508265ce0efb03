"""JNZ — child-to-parent water-level restriction (3x3 averaging).

The paper's JNZSND routine (Listing 5) "sends the water levels at the
boundary cells of a child grid to its parent grid ... and reduces the
resolution by averaging the water levels in a 3x3 cell".  We implement the
same operator vectorized: the child region is reshaped to
``(pj, 3, pi, 3)`` and averaged over the two length-3 axes.
"""

from __future__ import annotations

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.errors import NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST


def restriction_region(
    parent: Block,
    child: Block,
    mode: str = "boundary",
    width: int = 2,
    ratio: int = REFINEMENT_RATIO,
) -> list[tuple[int, int, int, int]]:
    """Parent-cell rectangles to restrict, as global ``(i0, j0, i1, j1)``.

    ``mode="full"`` returns the whole parent/child overlap; ``mode
    ="boundary"`` returns up to four strips of *width* parent cells along
    the child block's footprint edges (clipped to the parent block),
    non-overlapping.
    """
    fi0, fj0, fi1, fj1 = child.parent_footprint(ratio)
    i0, j0 = max(fi0, parent.gi0), max(fj0, parent.gj0)
    i1, j1 = min(fi1, parent.gi1), min(fj1, parent.gj1)
    if i0 >= i1 or j0 >= j1:
        return []
    if mode == "full":
        return [(i0, j0, i1, j1)]
    if mode != "boundary":
        raise NestingError(f"unknown restriction mode {mode!r}")

    # Strips along the child's own edges (in parent cells), clipped to the
    # overlap: bottom and top span the full overlap width; left and right
    # fill the remaining middle band.
    w = width
    regions: list[tuple[int, int, int, int]] = []
    bot_hi = min(fj0 + w, j1)
    top_lo = max(fj1 - w, j0)
    if j0 < bot_hi:
        regions.append((i0, j0, i1, min(bot_hi, j1)))
    if max(top_lo, bot_hi) < j1:
        regions.append((i0, max(top_lo, bot_hi), i1, j1))
    mid_lo, mid_hi = min(bot_hi, j1), max(top_lo, bot_hi)
    if mid_lo < mid_hi:
        left_hi = min(fi0 + w, i1)
        right_lo = max(fi1 - w, i0)
        if i0 < left_hi:
            regions.append((i0, mid_lo, left_hi, mid_hi))
        if max(right_lo, left_hi) < i1:
            regions.append((max(right_lo, left_hi), mid_lo, i1, mid_hi))
    return regions


def restriction_buffer_cells(regions: list[tuple[int, int, int, int]]) -> int:
    """Parent cells carried by one JNZ message for these regions."""
    return sum((i1 - i0) * (j1 - j0) for i0, j0, i1, j1 in regions)


def pack_restriction(
    child_z: np.ndarray,
    child: Block,
    regions: list[tuple[int, int, int, int]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Sender side of JNZ: 3x3-average the child cells into a buffer.

    The buffer holds one value per parent cell, region by region in
    row-major order — the JNZ_BUFS layout of Listing 6.
    """
    g = nghost
    parts = []
    for i0, j0, i1, j1 in regions:
        cj0 = g + ratio * j0 - child.gj0
        ci0 = g + ratio * i0 - child.gi0
        npj, npi = j1 - j0, i1 - i0
        sub = child_z[cj0 : cj0 + ratio * npj, ci0 : ci0 + ratio * npi]
        parts.append(
            sub.reshape(npj, ratio, npi, ratio).mean(axis=(1, 3)).ravel()
        )
    if not parts:
        return np.empty(0, dtype=child_z.dtype)
    return np.concatenate(parts)


def unpack_restriction(
    parent_z: np.ndarray,
    parent: Block,
    regions: list[tuple[int, int, int, int]],
    buf: np.ndarray,
    nghost: int = NGHOST,
    parent_h: np.ndarray | None = None,
) -> int:
    """Receiver side of JNZ: scatter averaged values into the parent.

    When *parent_h* (the parent's padded still-water depth) is given, only
    *sea* cells (h > 0) are overwritten: on land the child's 3x3-mean
    ground level generally differs from the parent cell's own ground level
    (sub-cell topography), and writing it would create phantom ponds of
    water on dry slopes.  Land cells keep the parent's own solution.
    """
    g = nghost
    offset = 0
    for i0, j0, i1, j1 in regions:
        pj = slice(g + j0 - parent.gj0, g + j1 - parent.gj0)
        pi = slice(g + i0 - parent.gi0, g + i1 - parent.gi0)
        npj, npi = j1 - j0, i1 - i0
        vals = buf[offset : offset + npj * npi].reshape(npj, npi)
        if parent_h is None:
            parent_z[pj, pi] = vals
        else:
            sea = parent_h[pj, pi] > 0.0
            parent_z[pj, pi] = np.where(sea, vals, parent_z[pj, pi])
        offset += npj * npi
    return offset


def restrict_eta(
    parent_z: np.ndarray,
    child_z: np.ndarray,
    parent: Block,
    child: Block,
    mode: str = "boundary",
    width: int = 2,
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
    parent_h: np.ndarray | None = None,
) -> int:
    """Average child water levels 3x3 into the parent (in place).

    Both arrays are padded per :mod:`repro.grid.staggered`.  Returns the
    number of parent cells written (the JNZ message volume in cells).
    This is the standalone form of one JNZ transfer; the model's step
    pipeline (:mod:`repro.core.model`) runs the same pack + unpack over
    regions it computed once, moving the buffer through a message only
    when child and parent live on different ranks.  See
    :func:`unpack_restriction` for the *parent_h* land mask.
    """
    regions = restriction_region(parent, child, mode, width, ratio)
    buf = pack_restriction(child_z, child, regions, ratio, nghost)
    return unpack_restriction(parent_z, parent, regions, buf, nghost, parent_h)
