"""Distributed (simulated-MPI) runs vs the single-process model.

The acceptance criterion is the paper's own: the communication
reorganization must not change the physics.  Every configuration below
must be *bitwise* identical to the single-process RTiModel.
"""

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
)
from repro.par.driver import run_distributed
from repro.errors import CFLError, DecompositionError
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry


def reference_run(grid, bathy, cfg, source, n_steps):
    model = RTiModel(grid, bathy, cfg)
    if source is not None:
        model.set_initial_condition(source)
    model.run(n_steps)
    return {
        bid: st.eta_interior().copy() for bid, st in model.states.items()
    }


def assert_identical(a: dict, b: dict):
    assert a.keys() == b.keys()
    for bid in a:
        assert np.array_equal(a[bid], b[bid]), (
            f"block {bid}: max diff {np.abs(a[bid] - b[bid]).max()}"
        )


class TestSingleLevel:
    def grid(self):
        return NestedGrid(
            [
                GridLevel(
                    index=1,
                    dx=100.0,
                    blocks=[
                        Block(0, 1, 0, 0, 24, 48),
                        Block(1, 1, 24, 0, 24, 48),
                    ],
                )
            ]
        )

    def test_two_ranks_bitwise(self):
        grid = self.grid()
        bathy = FlatBathymetry(50.0)
        cfg = SimulationConfig(dt=1.0, boundary="wall")
        src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)
        decomp = Decomposition(
            grid,
            (
                RankWork(0, 1, (WorkItem(grid.block(0)),)),
                RankWork(1, 1, (WorkItem(grid.block(1)),)),
            ),
        )
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps=30)
        ref = reference_run(grid, bathy, cfg, src, 30)
        assert_identical(ref, dist)

    def test_one_rank_trivially_identical(self):
        grid = self.grid()
        bathy = FlatBathymetry(50.0)
        cfg = SimulationConfig(dt=1.0, boundary="open")
        src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)
        decomp = Decomposition(
            grid,
            (
                RankWork(
                    0, 1, (WorkItem(grid.block(0)), WorkItem(grid.block(1)))
                ),
            ),
        )
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps=25)
        ref = reference_run(grid, bathy, cfg, src, 25)
        assert_identical(ref, dist)


class TestNested:
    def test_mini_kochi_distributed_bitwise(self):
        """Five levels, ten blocks, ranks split across levels."""
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        )
        decomp = equal_cell_assignment(mk.grid, 5, split_blocks=False)
        n_steps = 120
        dist = run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, src, n_steps
        )
        ref = reference_run(mk.grid, mk.bathymetry, cfg, src, n_steps)
        assert_identical(ref, dist)

    def test_mini_kochi_max_ranks(self):
        """One rank per block (the most communication-heavy split)."""
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        )
        blocks = mk.grid.all_blocks()
        decomp = Decomposition(
            mk.grid,
            tuple(
                RankWork(r, b.level, (WorkItem(b),))
                for r, b in enumerate(blocks)
            ),
        )
        n_steps = 60
        dist = run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, src, n_steps
        )
        ref = reference_run(mk.grid, mk.bathymetry, cfg, src, n_steps)
        assert_identical(ref, dist)


class TestValidation:
    def test_rejects_row_split_decompositions(self):
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        decomp = equal_cell_assignment(mk.grid, 12)  # forces row splits
        has_strip = any(
            not it.is_whole_block
            for rw in decomp.ranks
            for it in rw.items
        )
        if not has_strip:
            pytest.skip("decomposition happened to be whole-block")
        with pytest.raises(DecompositionError):
            run_distributed(mk.grid, mk.bathymetry, cfg, decomp, None, 1)


class TestAutoNestDistributed:
    def test_2d_block_layout_bitwise(self):
        """The hard case: an auto-generated 2-D block mosaic (59 blocks,
        L-shaped adjacencies, corner ghosts written by multiple seams,
        multi-level JNQ cascades) must still be bitwise identical."""
        from repro.topo import AutoNestConfig, ShelfBathymetry, build_auto_nest

        bathy = ShelfBathymetry(
            ocean_depth=2500.0, shelf_width=6_000.0, coast_y=8_000.0,
            coast_amplitude=600.0, coast_wavelength=9_000.0, land_slope=0.02,
        )
        grid = build_auto_nest(
            bathy, 27_000.0, 27_000.0,
            AutoNestConfig(n_levels=3, dx_coarsest=270.0, dt=0.5,
                           coastal_band_m=400.0),
        )
        cfg = SimulationConfig(dt=0.5)
        src = GaussianSource(x0=13_000.0, y0=18_000.0, amplitude=1.5,
                             sigma=2_000.0)
        decomp = equal_cell_assignment(grid, 4, split_blocks=False)
        n_steps = 40
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps,
                               timeout=240.0)
        ref = reference_run(grid, bathy, cfg, src, n_steps)
        assert_identical(ref, dist)


class TestCFLCheck:
    """Rank state goes through the model's CFL-checked construction."""

    def setup_method(self):
        self.mk = build_mini_kochi()
        # dx/dt = 135 m/s < sqrt(2 g h_max) = 209.5 m/s on mini-Kochi.
        self.cfg = SimulationConfig(dt=20 * self.mk.dt)
        self.decomp = equal_cell_assignment(
            self.mk.grid, 2, split_blocks=False
        )

    def _count_steps(self, monkeypatch) -> list:
        steps = []
        real = RTiModel.step
        monkeypatch.setattr(
            RTiModel, "step", lambda model: (steps.append(1), real(model))
        )
        return steps

    def test_single_process_rejects(self):
        with pytest.raises(CFLError):
            RTiModel(self.mk.grid, self.mk.bathymetry, self.cfg)

    def test_run_distributed_rejects_before_any_step(self, monkeypatch):
        steps = self._count_steps(monkeypatch)
        with pytest.raises(CFLError):
            run_distributed(
                self.mk.grid, self.mk.bathymetry, self.cfg, self.decomp,
                None, 3,
            )
        assert steps == []

    def test_survivable_run_rejects_before_any_step(self, monkeypatch):
        from repro.resilience.survive import survivable_run_distributed

        steps = self._count_steps(monkeypatch)
        with pytest.raises(CFLError):
            survivable_run_distributed(
                self.mk.grid, self.mk.bathymetry, self.cfg, self.decomp,
                None, 3,
            )
        assert steps == []
