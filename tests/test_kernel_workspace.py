"""The allocation-free kernels against allocating reference kernels.

``_ref_*`` below are the straightforward NumPy formulations of NLMASS,
the momentum sweep and the output accumulation, each building fresh
temporaries.  They are kept here, test-only, as the bitwise oracle for
the scratch-arena kernels in ``src/``: every output byte must match.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro.core.model as model_mod
from repro.constants import DRY_THRESHOLD, GRAVITY, MAX_VELOCITY
from repro.core import OutputAccumulator, RTiModel, SimulationConfig
from repro.core.mass import nlmass
from repro.core.momentum import momentum_core, nlmnt2
from repro.core.scratch import arena_nbytes
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.grid.staggered import (
    NGHOST,
    eta_shape,
    flux_m_shape,
    flux_n_shape,
    interior,
)
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry

G = NGHOST


# ----------------------------------------------------------------------
# Allocating reference kernels
# ----------------------------------------------------------------------


def _ref_nlmass(z_old, m_old, n_old, hz, dt, dx, out,
                dry_threshold=DRY_THRESHOLD, nghost=NGHOST):
    g = nghost
    ny = z_old.shape[0] - 2 * g
    nx = z_old.shape[1] - 2 * g
    cj = slice(g, g + ny)
    ci = slice(g, g + nx)
    dmdx = m_old[cj, g + 1 : g + nx + 1] - m_old[cj, g : g + nx]
    dndy = n_old[g + 1 : g + ny + 1, ci] - n_old[g : g + ny, ci]
    out[...] = z_old
    zi = out[cj, ci]
    zi -= (dt / dx) * dmdx
    zi += (-dt / dx) * dndy
    h = hz[cj, ci]
    dry = (zi + h) < dry_threshold
    np.copyto(zi, -h, where=dry)
    return out


def _ref_momentum_core(z_new, mm_old, nn_old, hz, dt, dx, manning, out,
                       nonlinear=True, dry_threshold=DRY_THRESHOLD,
                       velocity_cap=MAX_VELOCITY, gravity=GRAVITY,
                       nghost=NGHOST):
    g = nghost
    ny = z_new.shape[0] - 2 * g
    nx = z_new.shape[1] - 2 * g
    wf = slice(1, nx + 2 * g)
    zl = z_new[:, 0 : nx + 2 * g - 1]
    zr = z_new[:, 1 : nx + 2 * g]
    hl = hz[:, 0 : nx + 2 * g - 1]
    hr = hz[:, 1 : nx + 2 * g]

    dl = zl + hl
    dr = zr + hr
    wet_l = dl > dry_threshold
    wet_r = dr > dry_threshold
    both = wet_l & wet_r
    over_r = wet_l & ~wet_r & (zl > -hr)
    over_l = wet_r & ~wet_l & (zr > -hl)
    open_face = both | over_r | over_l

    df = np.where(both, 0.5 * (dl + dr), 0.0)
    df = np.where(over_r, zl + hr, df)
    df = np.where(over_l, zr + hl, df)
    df_safe = np.maximum(df, dry_threshold)

    m_wide = mm_old[:, wf]
    if nonlinear:
        flux = np.where(open_face, m_wide * m_wide / df_safe, 0.0)
        n_l = nn_old[:, 0 : nx + 2 * g - 1]
        n_r = nn_old[:, 1 : nx + 2 * g]
        nv = 0.25 * (n_l[:-1, :] + n_r[:-1, :] + n_l[1:, :] + n_r[1:, :])
        cross = np.where(open_face, m_wide * nv / df_safe, 0.0)

    tj = slice(g, g + ny)
    tw = slice(g - 1, g + nx)
    m_c = m_wide[tj, tw]
    df_c = df[tj, tw]
    df_safe_c = df_safe[tj, tw]
    open_c = open_face[tj, tw]
    dzdx = (zr[tj, tw] - zl[tj, tw]) / dx

    rhs = m_c - gravity * df_c * dt * dzdx
    if nonlinear:
        f_c = flux[tj, tw]
        f_m = flux[tj, slice(g - 2, g + nx - 1)]
        f_p = flux[tj, slice(g, g + nx + 1)]
        adv_x = np.where(m_c >= 0.0, f_c - f_m, f_p - f_c) / dx
        g_c = cross[tj, tw]
        g_jm = cross[slice(g - 1, g + ny - 1), tw]
        g_jp = cross[slice(g + 1, g + ny + 1), tw]
        nv_c = nv[tj, tw]
        adv_y = np.where(nv_c >= 0.0, g_c - g_jm, g_jp - g_c) / dx
        rhs -= dt * (adv_x + adv_y)
        speed_flux = np.sqrt(m_c * m_c + nv_c * nv_c)
        fric = (
            gravity * manning * manning * speed_flux
            / np.power(df_safe_c, 7.0 / 3.0)
        )
        rhs /= 1.0 + dt * fric

    m_next = np.where(open_c, rhs, 0.0)
    limit = velocity_cap * df_safe_c
    np.clip(m_next, -limit, limit, out=m_next)
    out[...] = mm_old
    out[tj, slice(g, g + nx + 1)] = m_next
    return out


def _ref_nlmnt2(z_new, m_old, n_old, hz, dt, dx, manning, out_m, out_n,
                nonlinear=True, dry_threshold=DRY_THRESHOLD,
                velocity_cap=MAX_VELOCITY, gravity=GRAVITY, nghost=NGHOST):
    kw = dict(nonlinear=nonlinear, dry_threshold=dry_threshold,
              velocity_cap=velocity_cap, gravity=gravity, nghost=nghost)
    _ref_momentum_core(z_new, m_old, n_old, hz, dt, dx, manning, out_m, **kw)
    _ref_momentum_core(z_new.T, n_old.T, m_old.T, hz.T, dt, dx, manning,
                       out_n.T, **kw)
    return out_m, out_n


def _ref_update(self, z, m, n, hz, time, dry_threshold=DRY_THRESHOLD,
                nghost=NGHOST, velocity_cap=MAX_VELOCITY):
    ny, nx = self.block.ny, self.block.nx
    sl = interior(ny, nx, nghost)
    g = nghost
    zi = z[sl]
    hi = hz[sl]
    d = np.maximum(zi + hi, 0.0)
    wet = d > dry_threshold
    np.maximum(self.zmax, np.where(wet, zi, self.zmax), out=self.zmax)
    mc = 0.5 * (m[g : g + ny, g : g + nx] + m[g : g + ny, g + 1 : g + nx + 1])
    nc = 0.5 * (n[g : g + ny, g : g + nx] + n[g + 1 : g + ny + 1, g : g + nx])
    deep_enough = d > max(dry_threshold, self.SPEED_MIN_DEPTH)
    speed = np.where(
        deep_enough, np.hypot(mc, nc) / np.maximum(d, self.SPEED_MIN_DEPTH), 0.0
    )
    np.minimum(speed, velocity_cap, out=speed)
    np.maximum(self.vmax, speed, out=self.vmax)
    np.maximum(
        self.inundation_max,
        np.where(self._land & wet, d, 0.0),
        out=self.inundation_max,
    )
    arrived = (
        np.isinf(self.arrival_time)
        & (np.abs(zi - self._z0) > self.arrival_threshold)
    )
    self.arrival_time[arrived] = time


# ----------------------------------------------------------------------
# Randomized states
# ----------------------------------------------------------------------


def random_state(rng, ny, nx):
    """Padded (z, m, n, h) mixing deep sea, shallows, dry land and
    overflow faces, with fluxes large enough to hit the velocity cap and
    some exact (signed) zeros."""
    shape = eta_shape(ny, nx)
    h = rng.choice([50.0, 2.0, 0.05, -0.5, -3.0], size=shape) * rng.uniform(
        0.5, 1.5, shape
    )
    z = rng.normal(0.0, 0.5, shape)
    # Dry land rests on the ground; a few land cells are flooded above
    # their neighbours' ground (overflow faces), a few sea cells dry out.
    land = h < 0
    z[land] = -h[land]
    flooded = land & (rng.random(shape) < 0.3)
    z[flooded] += rng.uniform(0.0, 2.0, flooded.sum())
    dried = (~land) & (rng.random(shape) < 0.1)
    z[dried] = -h[dried]
    m = rng.normal(0.0, 30.0, flux_m_shape(ny, nx))
    n = rng.normal(0.0, 30.0, flux_n_shape(ny, nx))
    for f in (m, n):
        zeros = rng.random(f.shape) < 0.1
        f[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    return z, m, n, h


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SHAPES = [(6, 8), (7, 3), (1, 1), (17, 5), (40, 23)]


class TestBitwiseOracle:
    @pytest.mark.parametrize("ny,nx", SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_nlmass(self, ny, nx, seed):
        rng = np.random.default_rng(seed)
        z, m, n, h = random_state(rng, ny, nx)
        got = np.full_like(z, np.nan)
        want = np.full_like(z, np.nan)
        nlmass(z, m, n, h, 0.7, 9.0, out=got, dry_threshold=0.02)
        _ref_nlmass(z, m, n, h, 0.7, 9.0, out=want, dry_threshold=0.02)
        assert same_bytes(got, want)

    @pytest.mark.parametrize("ny,nx", SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_nlmnt2_both_orientations(self, ny, nx, seed, nonlinear):
        rng = np.random.default_rng(100 + seed)
        z, m, n, h = random_state(rng, ny, nx)
        kw = dict(nonlinear=nonlinear, dry_threshold=0.01, velocity_cap=7.0)
        got_m, got_n = np.full_like(m, np.nan), np.full_like(n, np.nan)
        want_m, want_n = np.full_like(m, np.nan), np.full_like(n, np.nan)
        nlmnt2(z, m, n, h, 0.3, 11.0, 0.025, out_m=got_m, out_n=got_n, **kw)
        _ref_nlmnt2(z, m, n, h, 0.3, 11.0, 0.025, out_m=want_m,
                    out_n=want_n, **kw)
        assert same_bytes(got_m, want_m)
        assert same_bytes(got_n, want_n)

    @pytest.mark.parametrize("seed", range(3))
    def test_momentum_core_on_transposed_views(self, seed):
        # The y-sweep on its own: F-ordered inputs, F-ordered scratch.
        rng = np.random.default_rng(200 + seed)
        z, m, n, h = random_state(rng, 9, 14)
        got = np.full_like(n, np.nan)
        want = np.full_like(n, np.nan)
        momentum_core(z.T, n.T, m.T, h.T, 0.2, 5.0, 0.03, got.T)
        _ref_momentum_core(z.T, n.T, m.T, h.T, 0.2, 5.0, 0.03, want.T)
        assert same_bytes(got, want)

    def test_overflow_and_nonfinite_faces(self):
        # Faces on the edge of the overflow rule (z_L == -h_R exactly),
        # signed zeros and non-finite values take the same branch.
        rng = np.random.default_rng(7)
        z, m, n, h = random_state(rng, 8, 8)
        z[4, 3], h[4, 4] = 1.25, -1.25
        z[5, 5], h[5, 6] = 0.0, -0.0
        z[6, 2] = np.nan
        m[3, 3], n[6, 6] = np.inf, -np.inf
        got_m, got_n = np.empty_like(m), np.empty_like(n)
        want_m, want_n = np.empty_like(m), np.empty_like(n)
        with np.errstate(all="ignore"):
            nlmnt2(z, m, n, h, 0.3, 11.0, 0.025, out_m=got_m, out_n=got_n)
            _ref_nlmnt2(z, m, n, h, 0.3, 11.0, 0.025, out_m=want_m,
                        out_n=want_n)
        assert same_bytes(got_m, want_m)
        assert same_bytes(got_n, want_n)

    @pytest.mark.parametrize("ny,nx", [(6, 8), (13, 4)])
    def test_output_update(self, ny, nx):
        rng = np.random.default_rng(300 + ny)
        block = Block(0, 1, 0, 0, nx, ny)
        _, _, _, h = random_state(rng, ny, nx)
        eta0 = rng.normal(0.0, 0.1, (ny, nx))
        got = OutputAccumulator(block, h[interior(ny, nx)], eta0)
        want = OutputAccumulator(block, h[interior(ny, nx)], eta0)
        for k in range(6):
            z, m, n, _ = random_state(rng, ny, nx)
            got.update(z, m, n, h, 0.5 * k, dry_threshold=0.02,
                       velocity_cap=9.0)
            _ref_update(want, z, m, n, h, 0.5 * k, dry_threshold=0.02,
                        velocity_cap=9.0)
        for key, arr in got.product_arrays().items():
            assert same_bytes(arr, want.product_arrays()[key]), key


def coastal_mini_kochi(config=None):
    """Mini-Kochi with a source on the coast, so the first steps already
    flood land (wet/dry, overflow and inundation paths)."""
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, config or SimulationConfig(dt=mk.dt))
    model.set_initial_condition(
        GaussianSource(x0=12000.0, y0=9000.0, amplitude=3.0, sigma=1500.0)
    )
    return model


def model_arrays(model):
    out = {}
    for bid, st in model.states.items():
        out.update({(bid, k): a.copy() for k, a in st.state_arrays().items()})
    for bid, acc in model.outputs.items():
        out.update(
            {(bid, k): a.copy() for k, a in acc.product_arrays().items()}
        )
    return out


class TestModelBitwise:
    def test_mini_kochi_steps_match_reference_kernels(self, monkeypatch):
        new = coastal_mini_kochi()
        new.run(12)
        monkeypatch.setattr(model_mod, "nlmass", _ref_nlmass)
        monkeypatch.setattr(model_mod, "nlmnt2", _ref_nlmnt2)
        monkeypatch.setattr(OutputAccumulator, "update", _ref_update)
        ref = coastal_mini_kochi()
        ref.run(12)
        got, want = model_arrays(new), model_arrays(ref)
        assert got.keys() == want.keys()
        for key in got:
            assert same_bytes(got[key], want[key]), key


class TestNoAllocations:
    def test_warm_mini_kochi_step_allocates_less_than_a_block(self):
        model = coastal_mini_kochi()
        model.run(2)  # warm-up: the scratch arena reaches its size
        smallest = min(
            st.block.n_cells * st.z_new.itemsize
            for st in model.states.values()
        )
        # A ufunc on strided views copies its operands through iterator
        # buffers of up to ``np.getbufsize()`` elements each; those are
        # not arrays, so shrink them below the noise floor.  Every byte
        # traced on top is the step's own allocations, all live at once.
        old_bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            model.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            np.setbufsize(old_bufsize)
        assert peak - before < smallest


SHAPED_GRIDS = [
    [Block(0, 1, 0, 0, 48, 24), Block(1, 1, 0, 24, 48, 24)],
    [Block(0, 1, 0, 0, 20, 70)],
    [Block(0, 1, 0, 0, 33, 41)],
]


def flat_model(blocks, config=None):
    """A single-level model over 50 m of water with a Gaussian hump."""
    grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=blocks)])
    model = RTiModel(grid, FlatBathymetry(50.0), config or SimulationConfig(dt=1.0))
    model.set_initial_condition(
        GaussianSource(x0=1000.0, y0=1200.0, amplitude=1.0, sigma=500.0)
    )
    return model


def shaped_models():
    """Models whose blocks all have different shapes."""
    return [flat_model(blocks) for blocks in SHAPED_GRIDS]


class TestArenaThreads:
    N_STEPS = 40

    def test_concurrent_models_match_sequential_runs(self):
        # More threads than cores, switching often: a scratch buffer
        # shared between threads would corrupt the fields.
        sequential = shaped_models()
        for model in sequential:
            model.run(self.N_STEPS)

        concurrent = shaped_models()
        barrier = threading.Barrier(len(concurrent))
        errors = []

        def drive(model):
            try:
                barrier.wait(timeout=60)
                model.run(self.N_STEPS)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(m,)) for m in concurrent
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for seq, con in zip(sequential, concurrent):
            got, want = model_arrays(con), model_arrays(seq)
            for key in want:
                assert same_bytes(got[key], want[key]), key

    def test_scratch_is_bounded_by_the_largest_block(self):
        # Runs in a fresh thread so the arena starts empty.
        result = {}

        def drive():
            model = coastal_mini_kochi()
            model.run(2)
            result["arena"] = arena_nbytes()
            result["largest"] = max(st.z_new.nbytes
                                    for st in model.states.values())

        t = threading.Thread(target=drive)
        t.start()
        t.join(timeout=120)
        assert not t.is_alive()
        # Nine float and five boolean slots, none larger than a padded
        # block field: under ten field sizes, however many blocks.
        assert 0 < result["arena"] <= 10 * result["largest"]


class TestConfigPlumbing:
    def test_vmax_respects_velocity_cap(self):
        ny, nx = 3, 3
        block = Block(0, 1, 0, 0, nx, ny)
        h = np.full(eta_shape(ny, nx), 1.0)
        z = np.zeros(eta_shape(ny, nx))
        m = np.zeros(flux_m_shape(ny, nx))
        n = np.zeros(flux_n_shape(ny, nx))
        # Centre cell: 1 m deep, both x-faces carry 15 m^2/s -> 15 m/s.
        m[G + 1, G + 1 : G + 3] = 15.0
        capped = OutputAccumulator(block, h[interior(ny, nx)], np.zeros((ny, nx)))
        default = OutputAccumulator(block, h[interior(ny, nx)], np.zeros((ny, nx)))
        capped.update(z, m, n, h, 1.0, velocity_cap=5.0)
        default.update(z, m, n, h, 1.0)
        assert capped.vmax[1, 1] == 5.0
        assert default.vmax[1, 1] == 15.0

    def test_model_passes_its_velocity_cap_to_outputs(self, monkeypatch):
        seen = []
        real = OutputAccumulator.update

        def spy(self, *args, **kwargs):
            seen.append(kwargs.get("velocity_cap"))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(OutputAccumulator, "update", spy)
        model = flat_model(
            SHAPED_GRIDS[0], SimulationConfig(dt=1.0, velocity_cap=5.0)
        )
        model.step()
        assert seen and set(seen) == {5.0}

    def test_open_boundary_uses_config_dry_threshold(self):
        # Cells 0.3 m deep under a 0.2 m level hold exactly 0.5 m of
        # water: dry for dry_threshold=0.5 (wet means D > threshold), so
        # the open edge must radiate nothing.
        grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=[
            Block(0, 1, 0, 0, 6, 5),
        ])])
        cfg = SimulationConfig(dt=1.0, boundary="open", dry_threshold=0.5)
        model = RTiModel(grid, FlatBathymetry(0.3), cfg)
        st = model.states[0]
        st.set_initial_eta(np.full((5, 6), 0.2))
        model.step()
        ny, nx = 5, 6
        assert np.all(st.m_old[G : G + ny, G] == 0.0)
        assert np.all(st.m_old[G : G + ny, G + nx] == 0.0)
        assert np.all(st.n_old[G, G : G + nx] == 0.0)
        assert np.all(st.n_old[G + ny, G : G + nx] == 0.0)
