"""The static step plan of the Fig.-2 pipeline.

The block topology never changes during a run, so every transfer of a
step — halo seam copies, JNZ restriction regions, JNQ flux edges, and
the level-1 sides fed by the outer boundary condition — is resolved once
per grid and configuration, as the paper does for its offsets
(Listing 6).  The plan says *what* moves; which blocks a process holds
decides *how* (slice copy, or a message to another rank).  Transfers
are enumerated in one deterministic order with a per-phase tag index,
identical on every rank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.grid.hierarchy import NestedGrid
from repro.nesting.interp import child_boundary_segments, flux_edges
from repro.nesting.restrict import restriction_region
from repro.xchg.specs import CopySpec, seam_copy_specs


#: Oldest-first cache of built plans (see :meth:`StepPlan.build`).
_PLANS: dict[tuple, "StepPlan"] = {}
_PLANS_KEPT = 8
_PLANS_LOCK = threading.Lock()


@dataclass(frozen=True)
class StepPlan:
    """Every transfer of one step, pre-split by phase and level.

    ``seams_z``/``seams_mn`` are ``(spec, tag)`` halo copies of the
    water level and of the fluxes.  ``jnz`` holds
    ``(level, ((child, parent, regions, tag), ...))`` finest level
    first; ``jnq`` holds ``(level, ((child, parent, edges, tag), ...))``
    coarsest first.  ``outer_sides`` maps each level-1 block with an
    uncovered edge to those sides.
    """

    seams_z: tuple[tuple[CopySpec, int], ...]
    seams_mn: tuple[tuple[CopySpec, int], ...]
    jnz: tuple[tuple[int, tuple], ...]
    jnq: tuple[tuple[int, tuple], ...]
    outer_sides: dict[int, tuple[str, ...]]

    @classmethod
    def build(cls, grid: NestedGrid, config) -> "StepPlan":
        """The plan for *grid* and *config*.

        Plans are kept per block geometry and nesting options, so the
        models a service builds for one grid, request after request,
        share one plan.
        """
        key = (
            tuple(tuple(lvl.blocks) for lvl in grid.levels),
            grid.ratio,
            config.restriction,
            config.restriction_width,
        )
        with _PLANS_LOCK:
            plan = _PLANS.get(key)
            if plan is None:
                if len(_PLANS) >= _PLANS_KEPT:
                    del _PLANS[next(iter(_PLANS))]
                plan = _PLANS[key] = cls._resolve(grid, config)
        return plan

    @classmethod
    def _resolve(cls, grid: NestedGrid, config) -> "StepPlan":
        seams = []
        for lvl in grid.levels:
            for a, b in lvl.neighbor_pairs():
                seams.extend(seam_copy_specs(a, b))
        tagged = [(spec, tag) for tag, spec in enumerate(seams)]

        segments = {
            blk.block_id: child_boundary_segments(lvl.blocks, blk)
            for lvl in grid.levels
            for blk in lvl.blocks
        }
        outer = {}
        for blk in grid.levels[0].blocks:
            sides = tuple(s for s, v in segments[blk.block_id].items() if v)
            if sides:
                outer[blk.block_id] = sides

        jnz, jnq = [], []
        tag = 0
        for lvl in grid.levels[1:]:
            restr, interp = [], []
            for child in lvl.blocks:
                for parent in grid.parent_blocks_of(child):
                    regions = restriction_region(
                        parent, child, mode=config.restriction,
                        width=config.restriction_width,
                    )
                    edges = flux_edges(
                        parent, child, segments[child.block_id]
                    )
                    restr.append((child, parent, tuple(regions), tag))
                    interp.append((child, parent, tuple(edges), tag))
                    tag += 1
            jnz.append((lvl.index, tuple(restr)))
            jnq.append((lvl.index, tuple(interp)))
        return cls(
            seams_z=tuple(t for t in tagged if t[0].field == "z"),
            seams_mn=tuple(t for t in tagged if t[0].field != "z"),
            jnz=tuple(reversed(jnz)),
            jnq=tuple(jnq),
            outer_sides=outer,
        )
