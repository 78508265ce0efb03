"""Output accumulators — the per-step "update output data" stage of Fig. 2.

The operational forecast products are running extrema, not snapshots: the
maximum water level, maximum flow speed, maximum inundation depth on land,
and the tsunami arrival time.  These are accumulated in place each step,
without allocating: intermediates go to this thread's scratch arena
(:mod:`repro.core.scratch`), with the same per-element operations as the
formulas in :meth:`OutputAccumulator.update`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD, MAX_VELOCITY
from repro.core.scratch import views
from repro.grid.block import Block
from repro.grid.staggered import NGHOST, interior


class OutputAccumulator:
    """Running forecast products for one block.

    Attributes
    ----------
    zmax:
        Maximum water level [m] per cell.
    vmax:
        Maximum flow speed [m/s] per cell.
    inundation_max:
        Maximum total water depth on initially-dry land [m] per cell
        (zero on sea cells).
    arrival_time:
        First time [s] the water level deviates more than
        ``arrival_threshold`` from its initial value; ``inf`` where the
        wave never arrived.
    """

    __slots__ = (
        "block",
        "arrival_threshold",
        "zmax",
        "vmax",
        "inundation_max",
        "arrival_time",
        "_z0",
        "_land",
        "_no_sea",
    )

    #: Minimum depth [m] for reporting a flow speed; operational codes do
    #: not report velocities on films thinner than ~1 cm, where M/D is
    #: numerically meaningless.
    SPEED_MIN_DEPTH = 0.01

    def __init__(
        self,
        block: Block,
        depth_interior: np.ndarray,
        initial_eta: np.ndarray,
        arrival_threshold: float = 0.01,
    ) -> None:
        ny, nx = block.ny, block.nx
        if depth_interior.shape != (ny, nx) or initial_eta.shape != (ny, nx):
            raise ValueError("accumulator fields must match block physical size")
        self.block = block
        self.arrival_threshold = float(arrival_threshold)
        self._land = depth_interior < 0.0
        # Where zmax starts at -inf (kept so reset() allocates nothing).
        self._no_sea = ~(depth_interior > 0.0)
        self.zmax = np.empty((ny, nx), np.result_type(initial_eta, -np.inf))
        self.vmax = np.empty((ny, nx))
        self.inundation_max = np.empty((ny, nx))
        self.arrival_time = np.empty((ny, nx))
        self._z0 = np.empty((ny, nx), initial_eta.dtype)
        self.reset(initial_eta)

    def reset(self, initial_eta: np.ndarray) -> None:
        """Restart every product from *initial_eta*, in place.

        Afterwards the accumulator equals one freshly built over the same
        block and depth with *initial_eta*, byte for byte.  The product
        arrays are overwritten, not replaced: a caller holding one sees
        the restarted values.
        """
        if initial_eta.shape != self.zmax.shape:
            raise ValueError("accumulator fields must match block physical size")
        # Max water level is only defined where water has been: dry land
        # starts at -inf and is promoted when (if) the flood arrives.
        np.copyto(self.zmax, initial_eta)
        np.copyto(self.zmax, -np.inf, where=self._no_sea)
        self.vmax.fill(0.0)
        self.inundation_max.fill(0.0)
        self.arrival_time.fill(np.inf)
        np.copyto(self._z0, initial_eta)

    def update(
        self,
        z: np.ndarray,
        m: np.ndarray,
        n: np.ndarray,
        hz: np.ndarray,
        time: float,
        dry_threshold: float = DRY_THRESHOLD,
        nghost: int = NGHOST,
        velocity_cap: float = MAX_VELOCITY,
    ) -> None:
        """Fold one step's padded state arrays into the running products.

        In formulas, with ``d = max(z + h, 0)`` and
        ``wet = d > dry_threshold``::

            zmax = max(zmax, where(wet, z, zmax))
            speed = where(deep, hypot(mc, nc) / max(d, s), 0)
            vmax = max(vmax, min(speed, cap))
            inundation_max = max(inundation_max, where(land & wet, d, 0))
            arrival_time[isinf(arrival_time) & (|z - z0| > threshold)] = time

        where ``mc``/``nc`` are the face fluxes averaged to cell centers,
        ``s = SPEED_MIN_DEPTH``, ``deep = d > max(dry_threshold, s)`` and
        ``cap`` is *velocity_cap*, the solver's own velocity cap.
        """
        ny, nx = self.block.ny, self.block.nx
        sl = interior(ny, nx, nghost)
        g = nghost
        zi = z[sl]
        hi = hz[sl]
        d, speed, tmp, wet, mask = views(
            ("outputs", ny, nx, zi.dtype),
            lambda slot: (
                *(slot(f"f{k}", (ny, nx), zi.dtype) for k in range(3)),
                *(slot(f"b{k}", (ny, nx), np.bool_) for k in range(2)),
            ),
        )
        np.add(zi, hi, out=d)
        np.maximum(d, 0.0, out=d)
        np.greater(d, dry_threshold, out=wet)

        np.maximum(self.zmax, zi, out=self.zmax, where=wet)

        # Cell-centered speed from face fluxes: speed holds mc, tmp nc.
        np.add(m[g : g + ny, g : g + nx], m[g : g + ny, g + 1 : g + nx + 1],
               out=speed)
        speed *= 0.5
        np.add(n[g : g + ny, g : g + nx], n[g + 1 : g + ny + 1, g : g + nx],
               out=tmp)
        tmp *= 0.5
        np.hypot(speed, tmp, out=speed)
        # Speeds are meaningless on very thin films, and the face fluxes
        # feeding a shoreline cell may reference a much larger face depth;
        # report only where the water column is resolvable, clipped to the
        # solver's own velocity cap.
        np.maximum(d, self.SPEED_MIN_DEPTH, out=tmp)
        speed /= tmp
        np.greater(d, max(dry_threshold, self.SPEED_MIN_DEPTH), out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(speed, 0.0, where=mask)
        np.minimum(speed, velocity_cap, out=speed)
        np.maximum(self.vmax, speed, out=self.vmax)

        np.logical_and(self._land, wet, out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(d, 0.0, where=mask)
        np.maximum(self.inundation_max, d, out=self.inundation_max)

        np.subtract(zi, self._z0, out=tmp)
        np.abs(tmp, out=tmp)
        np.greater(tmp, self.arrival_threshold, out=mask)
        np.isinf(self.arrival_time, out=wet)
        mask &= wet
        np.copyto(self.arrival_time, time, where=mask)

    def inundated_area(self, dx: float) -> float:
        """Area of land that got wet at any time [m^2]."""
        return float((self.inundation_max > 0.0).sum()) * dx * dx

    # -- serialization (repro.persist) ------------------------------------

    def product_arrays(self) -> dict[str, np.ndarray]:
        """Every accumulator array (views) keyed for serialization.

        Includes the reference surface ``z0ref`` and the land mask so a
        restored accumulator continues arrival/inundation detection
        bitwise even if the restorer never re-applies the source.
        """
        return {
            "zmax": self.zmax,
            "vmax": self.vmax,
            "inundation_max": self.inundation_max,
            "arrival_time": self.arrival_time,
            "z0ref": self._z0,
            "land": self._land,
        }

    def load_product_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite the accumulators bitwise from *arrays*."""
        targets = self.product_arrays()
        for key, dst in targets.items():
            src = np.asarray(arrays[key])
            if src.shape != dst.shape:
                raise ValueError(
                    f"block {self.block.block_id}: product {key!r} has shape "
                    f"{src.shape}, expected {dst.shape}"
                )
        for key, dst in targets.items():
            dst[...] = arrays[key]
