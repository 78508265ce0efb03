"""JNQ — parent-to-child discharge-flux interpolation.

After the momentum update, the parent's fluxes provide the child's boundary
condition: each parent face value is copied onto the three child faces it
covers (discharge flux is per unit width, so a constant copy conserves the
volume flux through the interface exactly).

Only the component *normal* to each child edge is imposed (W/E edges: M;
S/N edges: N); tangential ghost data comes from the zero-gradient fill.
"""

from __future__ import annotations

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.errors import NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST


def _subtract_intervals(
    span: tuple[int, int], covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Parts of *span* not covered by any interval in *covered*."""
    out = [span]
    for c0, c1 in sorted(covered):
        nxt: list[tuple[int, int]] = []
        for s0, s1 in out:
            if c1 <= s0 or c0 >= s1:
                nxt.append((s0, s1))
                continue
            if s0 < c0:
                nxt.append((s0, c0))
            if c1 < s1:
                nxt.append((c1, s1))
        out = nxt
    return out


def child_boundary_segments(
    level_blocks: list[Block], child: Block
) -> dict[str, list[tuple[int, int]]]:
    """Per-side sub-ranges of a block's edges *not* shared with a neighbor.

    Ranges are global child-level cell indices along the edge.  These are
    the segments that must be fed by the parent grid (or by the outer
    boundary condition on level 1); the remaining segments are halo seams.
    """
    sides: dict[str, list[tuple[int, int]]] = {}
    for side in ("W", "E", "S", "N"):
        if side in ("W", "E"):
            span = (child.gj0, child.gj1)
            edge_x = child.gi0 if side == "W" else child.gi1
            covered = [
                (max(child.gj0, b.gj0), min(child.gj1, b.gj1))
                for b in level_blocks
                if b.block_id != child.block_id
                and (b.gi1 if side == "W" else b.gi0) == edge_x
                and max(child.gj0, b.gj0) < min(child.gj1, b.gj1)
            ]
        else:
            span = (child.gi0, child.gi1)
            edge_y = child.gj0 if side == "S" else child.gj1
            covered = [
                (max(child.gi0, b.gi0), min(child.gi1, b.gi1))
                for b in level_blocks
                if b.block_id != child.block_id
                and (b.gj1 if side == "S" else b.gj0) == edge_y
                and max(child.gi0, b.gi0) < min(child.gi1, b.gi1)
            ]
        sides[side] = _subtract_intervals(span, covered)
    return sides


def _edge_geometry(
    parent: Block, child: Block, side: str, seg: tuple[int, int], ratio: int
):
    """Resolve one segment's parent source range and child target range.

    Returns ``None`` when this parent block does not own the face, else
    ``(plo, phi)`` parent cell range along the edge plus bookkeeping.
    """
    lo, hi = seg
    if lo % ratio or hi % ratio:
        raise NestingError(
            f"boundary segment ({lo}, {hi}) is not aligned to ratio {ratio}"
        )
    if side in ("W", "E"):
        face_x = child.gi0 if side == "W" else child.gi1
        pface = face_x // ratio
        if not (parent.gi0 <= pface <= parent.gi1):
            return None
        plo = max(lo // ratio, parent.gj0)
        phi = min(hi // ratio, parent.gj1)
        if plo >= phi:
            return None
        return (pface, plo, phi, face_x)
    face_y = child.gj0 if side == "S" else child.gj1
    pface = face_y // ratio
    if not (parent.gj0 <= pface <= parent.gj1):
        return None
    plo = max(lo // ratio, parent.gi0)
    phi = min(hi // ratio, parent.gi1)
    if plo >= phi:
        return None
    return (pface, plo, phi, face_y)


def flux_edges(
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> list[tuple[int, tuple, tuple, int]]:
    """Resolve one parent/child pair's JNQ copies once.

    Returns ``(k, src, dst, size)`` per fed segment, side by side (W, E,
    S, N): *k* selects the flux (0: M on W/E edges, 1: N on S/N edges),
    *src* indexes the *size* parent faces in the parent's padded array
    and *dst* the ``ratio * size`` child faces they cover.  The
    decomposition is static, so the step plan resolves these at set-up
    and the pack/unpack below is pure slicing.
    """
    g = nghost
    edges = []
    for side in ("W", "E", "S", "N"):
        for seg in segments.get(side, []):
            geom = _edge_geometry(parent, child, side, seg, ratio)
            if geom is None:
                continue
            pface, plo, phi, edge = geom
            size = phi - plo
            if side in ("W", "E"):
                r0 = g + ratio * plo - child.gj0
                src = (
                    slice(g + plo - parent.gj0, g + phi - parent.gj0),
                    g + pface - parent.gi0,
                )
                dst = (slice(r0, r0 + ratio * size), g + edge - child.gi0)
                edges.append((0, src, dst, size))
            else:
                c0 = g + ratio * plo - child.gi0
                src = (
                    g + pface - parent.gj0,
                    slice(g + plo - parent.gi0, g + phi - parent.gi0),
                )
                dst = (g + edge - child.gj0, slice(c0, c0 + ratio * size))
                edges.append((1, src, dst, size))
    return edges


def pack_flux_edges(
    parent_m: np.ndarray, parent_n: np.ndarray, edges
) -> np.ndarray:
    """Sender side of JNQ over :func:`flux_edges`: parent face values."""
    if not edges:
        return np.empty(0, dtype=parent_m.dtype)
    fluxes = (parent_m, parent_n)
    return np.concatenate([fluxes[k][src] for k, src, _dst, _n in edges])


def unpack_flux_edges(
    child_m: np.ndarray,
    child_n: np.ndarray,
    edges,
    buf: np.ndarray,
    ratio: int = REFINEMENT_RATIO,
) -> int:
    """Receiver side of JNQ: copy each parent value onto *ratio* child faces.

    Returns the number of child faces written.
    """
    fluxes = (child_m, child_n)
    offset = 0
    for k, _src, dst, size in edges:
        fluxes[k][dst] = np.repeat(buf[offset : offset + size], ratio)
        offset += size
    return ratio * offset


def pack_fluxes(
    parent_m: np.ndarray,
    parent_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Sender side of JNQ: parent face values, side by side, seg by seg."""
    return pack_flux_edges(
        parent_m, parent_n, flux_edges(parent, child, segments, ratio, nghost)
    )


def unpack_fluxes(
    child_m: np.ndarray,
    child_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    buf: np.ndarray,
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> int:
    """Receiver side of JNQ: copy each parent value onto 3 child faces."""
    return unpack_flux_edges(
        child_m,
        child_n,
        flux_edges(parent, child, segments, ratio, nghost),
        buf,
        ratio,
    )


def interpolate_fluxes(
    parent_m: np.ndarray,
    parent_n: np.ndarray,
    child_m: np.ndarray,
    child_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> int:
    """Impose parent fluxes on the child's boundary faces (in place).

    *segments* comes from :func:`child_boundary_segments`.  Returns the
    number of child faces written (the JNQ message volume).  This is the
    standalone form of one JNQ transfer; the model's step pipeline
    (:mod:`repro.core.model`) runs the same pack + unpack over edges it
    resolved once, moving the buffer through a message only when parent
    and child live on different ranks.
    """
    edges = flux_edges(parent, child, segments, ratio, nghost)
    buf = pack_flux_edges(parent_m, parent_n, edges)
    return unpack_flux_edges(child_m, child_n, edges, buf, ratio)
