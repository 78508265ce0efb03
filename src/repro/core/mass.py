"""NLMASS — the continuity update (Eq. 1 of the paper).

Leap-frog staggered discretization::

    z[j,i]^{n+1} = z[j,i]^n - dt/dx * (M[j,i+1] - M[j,i])
                            - dt/dx * (N[j+1,i] - N[j,i])

followed by the TUNAMI wet/dry clamp: cells whose total depth falls below
the dry threshold have their water level pinned to the ground elevation
``-h`` (zero total depth).

This routine is one of the two bottlenecks the paper migrates (60-70 % of
runtime together with NLMNT2), so it is written as a single pass of
vectorized NumPy operations that allocate nothing: intermediates go to
this thread's scratch arena (:mod:`repro.core.scratch`) with the same
per-element operation order as the formula above (see
:mod:`repro.core.momentum` for the rules).
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD
from repro.core.scratch import copy_margins, views
from repro.grid.staggered import NGHOST


def nlmass(
    z_old: np.ndarray,
    m_old: np.ndarray,
    n_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    out: np.ndarray,
    dry_threshold: float = DRY_THRESHOLD,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Continuity update over the physical cells of one block.

    Parameters
    ----------
    z_old, m_old, n_old:
        Read buffers (shapes per :mod:`repro.grid.staggered`).
    hz:
        Still-water depth at cell centers (same shape as ``z_old``).
    out:
        Write buffer for the new water level; ghost cells are copied from
        ``z_old`` so subsequent ghost fills only need to touch seams.

    Returns
    -------
    ``out``.
    """
    g = nghost
    ny = z_old.shape[0] - 2 * g
    nx = z_old.shape[1] - 2 * g
    cj = slice(g, g + ny)
    ci = slice(g, g + nx)
    div, dry = views(
        ("nlmass", ny, nx, z_old.dtype),
        lambda slot: (
            slot("f0", (ny, nx), z_old.dtype),
            slot("b0", (ny, nx), np.bool_),
        ),
    )

    # Flux divergence.  M face i is the left edge of cell i; N face j is
    # the bottom edge of cell j.
    copy_margins(out, z_old, cj, ci)
    zi = out[cj, ci]
    np.subtract(m_old[cj, g + 1 : g + nx + 1], m_old[cj, g : g + nx], out=div)
    div *= dt / dx
    np.subtract(z_old[cj, ci], div, out=zi)
    np.subtract(n_old[g + 1 : g + ny + 1, ci], n_old[g : g + ny, ci], out=div)
    div *= -dt / dx
    zi += div

    # Wet/dry clamp (moving shoreline): pin dry cells to the ground.
    h = hz[cj, ci]
    np.add(zi, h, out=div)
    np.less(div, dry_threshold, out=dry)
    np.negative(h, out=zi, where=dry)
    return out
