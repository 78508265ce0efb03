"""NLMNT2 — the momentum update (Eqs. 2-3 of the paper).

The x- and y-momentum equations are solved by the same kernel
(:func:`momentum_core`): the y-update is the x-update applied to transposed
array views with the roles of M and N swapped, exactly as the original
code's XMMT/YMMT routine pair mirrors one another.

Discretization (TUNAMI-N2, Goto et al. 1997):

* pressure gradient: centered, ``-g * D_f * dt/dx * (z_R - z_L)`` with the
  face total depth ``D_f`` from the moving-boundary rules below;
* advection: first-order upwind in conservative form, with the flux
  ``M^2/D`` and cross-flux ``M*N/D`` evaluated at faces;
* bottom friction: Manning law, treated semi-implicitly
  (``/(1 + dt * g n^2 |u| / D^{7/3})``), which is unconditionally stable
  for thin layers;
* moving boundary: a face is *open* if both adjacent cells are wet
  (``D_f`` = mean total depth), or if exactly one is wet and its water
  level exceeds the dry side's ground elevation (``D_f`` = overflow head);
  otherwise the face is closed and its flux is zero.

A velocity cap (default 20 m/s) is applied after the update, as in
operational TUNAMI-class codes, to keep the shoreline scheme benign.

Allocation-free evaluation
--------------------------
The kernel allocates no arrays.  Every intermediate is written with a
ufunc ``out=`` (or ``where=``) into this thread's scratch arena
(:mod:`repro.core.scratch`): one flat buffer per named slot, grown to
the largest block the thread has stepped.

Each face quantity is stored at its left cell's index in ``z_new``'s
memory order (C for the x-sweep, F for the transposed y-sweep), so every
ufunc runs on contiguous 1-D ranges and a stencil neighbour is a fixed
offset.  NumPy runs such calls without copying strided operands through
its iterator buffers, which a 2-D sub-block view would need.  ``z_new``,
``hz`` and the N-type flux share this indexing; the M-type flux, one
face wider per row, is copied once per sweep into a slot that has it.

Outputs are bitwise-identical to evaluating the formulas above with
fresh temporaries, because each element sees the same floating-point
operations in the same order:

* products and sums keep their left-to-right association, e.g.
  ``((g * D_f) * dt) * dz/dx`` and ``0.25 * (((a + b) + c) + d)``;
  only the operands of a single commutative ``*`` or ``+`` may swap;
* ``where(mask, x, 0)`` becomes ``copyto(x, 0, where=~mask)``, never a
  multiply by the mask (which would turn ``-x * 0`` into ``-0.0`` and
  ``inf * 0`` into NaN);
* the overflow test ``z_L > -h_R`` is evaluated as ``z_L + h_R > 0``,
  the overflow head that is needed anyway: IEEE addition with gradual
  underflow rounds to zero only when ``z_L == -h_R`` and keeps the sign
  of the exact sum otherwise, and both forms are false for NaN;
* work whose result is discarded is skipped: the face intermediates
  cover only the rows and faces the target faces read (plus the ghost
  positions a contiguous range spans, computed from real data and
  dropped), and only the margins of ``mm_old`` are copied into ``out``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD, GRAVITY, MAX_VELOCITY
from repro.core.scratch import copy_margins, views
from repro.grid.staggered import NGHOST


def _scratch(shape: tuple[int, int], dtype, order: str):
    """Eight float and five boolean flat slots the size of ``z_new``,
    then ``z_new``-shaped views of the ``rhs`` slot and of a ninth float
    slot for the M-type flux."""

    def build(slot):
        floats = [slot(f"f{k}", shape, dtype, order) for k in range(9)]
        bools = [slot(f"b{k}", shape, np.bool_, order) for k in range(5)]
        return (
            *(a.ravel(order) for a in floats[:8] + bools),
            floats[6],
            floats[8],
        )

    return views(("momentum", shape, dtype, order), build)


def _flat(a: np.ndarray, shape: tuple[int, int], order: str, buf2d) -> np.ndarray:
    """*a* as a flat array indexed like ``z_new`` (``a[r, c]`` at ``K(r, c)``).

    ``z_new``, ``hz`` and the N-type flux share their row pitch in memory
    and are used in place.  The M-type flux has one face more per row;
    its first ``shape`` rows and columns are copied into *buf2d*.
    """
    pitch = 1 if order == "C" else 0
    if a.shape[pitch] == shape[pitch]:
        return np.ravel(a, order)
    np.copyto(buf2d, a[: shape[0], : shape[1]])
    return buf2d.ravel(order)


def momentum_core(
    z_new: np.ndarray,
    mm_old: np.ndarray,
    nn_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    manning: float,
    out: np.ndarray,
    nonlinear: bool = True,
    dry_threshold: float = DRY_THRESHOLD,
    velocity_cap: float = MAX_VELOCITY,
    gravity: float = GRAVITY,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Update the flux normal to "vertical" faces (the M update).

    Shapes (with ``G = nghost``, block of ``ny x nx`` cells):
    ``z_new, hz: (ny+2G, nx+2G)``; ``mm_old, out: (ny+2G, nx+1+2G)``;
    ``nn_old: (ny+1+2G, nx+2G)``.  Pass transposed views with
    ``mm_old = n.T`` / ``nn_old = m.T`` to obtain the N update.

    Physical faces (columns ``G .. G+nx`` inclusive) are all written,
    including block-edge faces; the caller overwrites edge faces that are
    governed by boundary conditions or parent-grid coupling.

    Returns ``out``.
    """
    g = nghost
    shape = z_new.shape
    ny = shape[0] - 2 * g
    nx = shape[1] - 2 * g
    # Face w of row r lies between cells (r, w) and (r, w+1) and is
    # m-array column w+1.  Every face quantity sits at its left cell's
    # flat index K(r, w) = r*sr + w*sc in z_new's memory order, so the
    # kernel runs on contiguous 1-D ranges; positions outside a region
    # (ghost columns of the x-sweep, ghost rows of the y-sweep) are
    # computed from real data and discarded.
    if z_new.strides[0] < z_new.strides[1]:
        order, sr, sc = "F", 1, shape[0]
    else:
        order, sr, sc = "C", shape[1], 1
    (
        df, df_safe, flux, nv, cross, adv, rhs, tmp,
        wet_l, wet_r, over_r, over_l, closed, rhs2d, moved2d,
    ) = _scratch(shape, z_new.dtype, order)
    z = np.ravel(z_new, order)
    h = np.ravel(hz, order)
    m = _flat(mm_old, shape, order, moved2d)
    n = _flat(nn_old, shape, order, moved2d)

    def span(r0, w0, r1, w1, shift=0):
        """Flat range of rows r0..r1 x faces w0..w1, moved by *shift*."""
        return slice(r0 * sr + w0 * sc + shift, r1 * sr + w1 * sc + shift + 1)

    # Regions: E = rows g-1 .. g+ny (the target rows and the rows either
    # side, which the cross-term reads) x faces g-2 .. g+nx (which the
    # upwind flux difference reads); F = the target rows of E; C = E's
    # rows x the target faces; T = target faces, rows g .. g+ny-1 x
    # faces g-1 .. g+nx-1 (m-array columns g .. g+nx).
    def e(shift=0):
        return span(g - 1, g - 2, g + ny, g + nx, shift)

    def f(shift=0):
        return span(g, g - 2, g + ny - 1, g + nx, shift)

    def c(shift=0):
        return span(g - 1, g - 1, g + ny, g + nx - 1, shift)

    def t(shift=0):
        return span(g, g - 1, g + ny - 1, g + nx - 1, shift)

    E, F, C, T = e(), f(), c(), t()
    zl, zr, hl, hr = z[E], z[e(sc)], h[E], h[e(sc)]
    wl, wr, ovr, ovl, cl = (
        wet_l[E], wet_r[E], over_r[E], over_l[E], closed[E],
    )

    # flux/nv hold the overflow heads z_L + h_R and z_R + h_L until D_f
    # is built; df/df_safe hold dl and dr until then.
    dl, dr, head_r, head_l = df[E], df_safe[E], flux[E], nv[E]
    np.add(zl, hl, out=dl)
    np.add(zr, hr, out=dr)
    np.add(zl, hr, out=head_r)
    np.add(zr, hl, out=head_l)
    np.greater(dl, dry_threshold, out=wl)
    np.greater(dr, dry_threshold, out=wr)

    # Overflow toward the right: wet_l & ~wet_r & (zl > -hr), i.e. a
    # boolean wet_l > wet_r and a positive head (module docstring).
    np.greater(wl, wr, out=ovr)
    np.greater(head_r, 0.0, out=cl)
    ovr &= cl
    np.greater(wr, wl, out=ovl)
    np.greater(head_l, 0.0, out=cl)
    ovl &= cl
    np.logical_and(wl, wr, out=cl)
    cl |= ovr
    cl |= ovl
    np.logical_not(cl, out=cl)

    # D_f: mean depth on both-wet faces, the head on overflow faces, zero
    # on closed faces (the three open cases are disjoint).
    dl += dr
    dl *= 0.5
    np.copyto(dl, head_r, where=ovr)
    np.copyto(dl, head_l, where=ovl)
    np.copyto(dl, 0.0, where=cl)
    np.maximum(dl, dry_threshold, out=dr)

    if nonlinear:
        # Advective flux F = M^2 / D at faces (zero on closed faces), on
        # the target rows.
        m_f = m[f(sc)]
        np.multiply(m_f, m_f, out=flux[F])
        flux[F] /= df_safe[F]
        np.copyto(flux[F], 0.0, where=closed[F])

        # Cross flux G = M * NV / D at faces, with NV the 4-point average
        # of the transverse flux at the M point: n rows r and r+1 are
        # the faces below/above cell row r.  Needed on the target faces
        # and the rows either side.
        np.add(n[C], n[c(sc)], out=nv[C])
        nv[C] += n[c(sr)]
        nv[C] += n[c(sr + sc)]
        nv[C] *= 0.25
        np.multiply(m[c(sc)], nv[C], out=cross[C])
        cross[C] /= df_safe[C]
        np.copyto(cross[C], 0.0, where=closed[C])

    m_c = m[t(sc)]
    adv, rhs, tmp = adv[T], rhs[T], tmp[T]
    df_safe_c = df_safe[T]
    closed_c = closed[T]

    # rhs = m_c - ((g * df_c) * dt) * ((zr - zl) / dx); adv holds dz/dx.
    np.subtract(z[t(sc)], z[T], out=adv)
    adv /= dx
    np.multiply(df[T], gravity, out=rhs)
    rhs *= dt
    rhs *= adv
    np.subtract(m_c, rhs, out=rhs)
    tmp2 = df[T]  # df is not read again

    if nonlinear:
        # adv_x = where(m_c >= 0, f_c - f_m, f_p - f_c) / dx
        ge0 = wet_l[T]
        f_c = flux[T]
        np.subtract(flux[t(sc)], f_c, out=adv)
        np.subtract(f_c, flux[t(-sc)], out=tmp)
        np.greater_equal(m_c, 0.0, out=ge0)
        np.copyto(adv, tmp, where=ge0)
        adv /= dx

        # adv_y = where(nv_c >= 0, g_c - g_jm, g_jp - g_c) / dx
        nv_c = nv[T]
        g_c = cross[T]
        np.subtract(cross[t(sr)], g_c, out=tmp)
        np.subtract(g_c, cross[t(-sr)], out=tmp2)
        np.greater_equal(nv_c, 0.0, out=ge0)
        np.copyto(tmp, tmp2, where=ge0)
        tmp /= dx

        # rhs -= dt * (adv_x + adv_y)
        adv += tmp
        adv *= dt
        rhs -= adv

        # Semi-implicit Manning friction:
        # rhs /= 1 + dt * (((g n) n) |M|) / D^{7/3}
        np.multiply(m_c, m_c, out=adv)
        np.multiply(nv_c, nv_c, out=tmp)
        adv += tmp
        np.sqrt(adv, out=adv)
        adv *= gravity * manning * manning
        np.power(df_safe_c, 7.0 / 3.0, out=tmp)
        adv /= tmp
        adv *= dt
        adv += 1.0
        rhs /= adv

    np.copyto(rhs, 0.0, where=closed_c)

    # Velocity cap: |M| <= cap * D.
    np.multiply(df_safe_c, velocity_cap, out=tmp)
    np.negative(tmp, out=adv)
    np.clip(rhs, adv, tmp, out=rhs)

    tj = slice(g, g + ny)  # physical cell rows
    tf = slice(g, g + nx + 1)  # physical faces
    copy_margins(out, mm_old, tj, tf)
    out[tj, tf] = rhs2d[tj, g - 1 : g + nx]
    return out


def nlmnt2(
    z_new: np.ndarray,
    m_old: np.ndarray,
    n_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    manning: float,
    out_m: np.ndarray,
    out_n: np.ndarray,
    nonlinear: bool = True,
    dry_threshold: float = DRY_THRESHOLD,
    velocity_cap: float = MAX_VELOCITY,
    gravity: float = GRAVITY,
    nghost: int = NGHOST,
) -> tuple[np.ndarray, np.ndarray]:
    """Full momentum step: update M (XMMT) and N (YMMT) for one block.

    The N update reuses :func:`momentum_core` on transposed views — the
    scheme is symmetric under (x <-> y, M <-> N).
    """
    momentum_core(
        z_new,
        m_old,
        n_old,
        hz,
        dt,
        dx,
        manning,
        out_m,
        nonlinear=nonlinear,
        dry_threshold=dry_threshold,
        velocity_cap=velocity_cap,
        gravity=gravity,
        nghost=nghost,
    )
    # Transposed views: the N faces become "vertical" faces of the
    # transposed block, with M acting as the transverse flux.
    out_n_t = out_n.T
    momentum_core(
        z_new.T,
        n_old.T,
        m_old.T,
        hz.T,
        dt,
        dx,
        manning,
        out_n_t,
        nonlinear=nonlinear,
        dry_threshold=dry_threshold,
        velocity_cap=velocity_cap,
        gravity=gravity,
        nghost=nghost,
    )
    return out_m, out_n
