"""Block-parallel compute phases of ``RTiModel.step`` (repro.core.model).

NLMASS, NLMNT2 and OUTPUT run their blocks in groups on a process-wide
thread pool once the blocks are large enough.  The grids here are small,
so the ``pooled`` fixture lowers the module's size rule and sets its core
count, which also covers the pooled path on a 1-core machine.  Every
pooled run must be bitwise identical to the serial one.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.model as model_mod
import repro.obs as obs
import tests.test_integrity as integrity_tests
import tests.test_resilience as resilience_tests
import tests.test_resume as resume_tests
from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.obs import trace as obstrace
from repro.par.decomposition import equal_cell_assignment
from repro.par.driver import run_distributed
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.survive import SurvivalConfig, survivable_run_distributed
from repro.service import ForecastRequest, LocalBackend
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry
from tests.test_kernel_workspace import (
    coastal_mini_kochi,
    model_arrays,
    same_bytes,
)
from tests.test_service import make_service
from tests.test_survive import (
    assert_identical,
    flat_grid,
    reference_run,
    whole_block_decomp,
)


def _use_pool(monkeypatch, cores):
    """Pool every block on *cores* cores, from a fresh pool."""
    monkeypatch.setattr(model_mod, "POOL_MIN_CELLS", 1)
    monkeypatch.setattr(model_mod, "_CORES", cores)
    monkeypatch.setattr(model_mod, "_POOL", None)


def _shut_pool():
    if model_mod._POOL is not None:
        model_mod._POOL.shutdown(wait=True)


@pytest.fixture
def pooled(monkeypatch):
    _use_pool(monkeypatch, cores=2)
    yield
    _shut_pool()


@pytest.fixture
def dispatches(monkeypatch):
    """Count the pooled phase runs and the pool look-ups."""
    seen = {"groups": 0, "pool": 0}
    run_groups, block_pool = model_mod._run_groups, model_mod._block_pool

    def counting_run_groups(kernel, groups):
        seen["groups"] += 1
        return run_groups(kernel, groups)

    def counting_block_pool():
        seen["pool"] += 1
        return block_pool()

    monkeypatch.setattr(model_mod, "_run_groups", counting_run_groups)
    monkeypatch.setattr(model_mod, "_block_pool", counting_block_pool)
    return seen


def assert_models_equal(got, want):
    got, want = model_arrays(got), model_arrays(want)
    assert got.keys() == want.keys()
    for key in want:
        assert same_bytes(got[key], want[key]), key


# -- partition -------------------------------------------------------------


class TestPartition:
    def test_largest_first_with_the_largest_block_on_the_caller(
        self, monkeypatch
    ):
        monkeypatch.setattr(model_mod, "POOL_MIN_CELLS", 100)
        monkeypatch.setattr(model_mod, "_CORES", 2)
        cells = {0: 300, 1: 50, 2: 900, 3: 400, 4: 500, 5: 20}
        groups = model_mod._partition(cells)
        # 900 goes to the caller with the small blocks 1 and 5 (970 cells);
        # 500, 400 and 300 each go to the then lighter worker group.
        assert groups == [[2, 1, 5], [4, 3, 0]]

    def test_serial_below_two_pooled_blocks_or_one_core(self, monkeypatch):
        monkeypatch.setattr(model_mod, "POOL_MIN_CELLS", 100)
        monkeypatch.setattr(model_mod, "_CORES", 4)
        assert model_mod._partition({0: 99, 1: 99, 2: 99}) is None
        assert model_mod._partition({0: 500, 1: 99}) is None
        assert model_mod._partition({0: 500, 1: 100}) == [[0], [1]]
        monkeypatch.setattr(model_mod, "_CORES", 1)
        assert model_mod._partition({0: 500, 1: 500}) is None

    def test_at_most_one_group_per_core(self, monkeypatch):
        monkeypatch.setattr(model_mod, "POOL_MIN_CELLS", 1)
        monkeypatch.setattr(model_mod, "_CORES", 3)
        groups = model_mod._partition({b: 10 + b for b in range(7)})
        assert len(groups) == 3
        loads = [sum(10 + b for b in g) for g in groups]
        assert max(loads) - min(loads) <= 16

    def test_mini_kochi_stays_serial(self):
        mk = build_mini_kochi()
        cells = {
            b.block_id: b.n_cells for lvl in mk.grid.levels
            for b in lvl.blocks
        }
        assert max(cells.values()) < model_mod.POOL_MIN_CELLS
        assert model_mod._partition(cells) is None


# -- bitwise identity ----------------------------------------------------


class TestPooledBitwise:
    N_STEPS = 12

    def test_pooled_matches_serial(self, pooled, dispatches):
        serial = coastal_mini_kochi()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_mod, "POOL_MIN_CELLS", 10**9)
            serial.run(self.N_STEPS)
        assert dispatches["groups"] == 0
        pool_run = coastal_mini_kochi()
        pool_run.run(self.N_STEPS)
        # NLMASS, NLMNT2 and OUTPUT each step.
        assert dispatches["groups"] == 3 * self.N_STEPS
        assert_models_equal(pool_run, serial)

    def test_two_rank_distributed_matches_single_process(
        self, pooled, dispatches
    ):
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0,
                             sigma=2_500.0)
        decomp = equal_cell_assignment(mk.grid, 2, split_blocks=False)
        dist = run_distributed(mk.grid, mk.bathymetry, cfg, decomp, src, 10)
        assert dispatches["groups"] > 0
        model = RTiModel(mk.grid, mk.bathymetry, cfg)
        model.set_initial_condition(src)
        model.run(10)
        assert dist.keys() == model.states.keys()
        for bid, st in model.states.items():
            assert np.array_equal(dist[bid], st.eta_interior()), bid

    def test_straggler_hedging_migrates_blocks_bitwise(
        self, pooled, dispatches
    ):
        # Ranks start with one block each (serial); the hedge gives a rank
        # a second block, so the block set it pools changes mid-run.
        n_steps = 30
        grid, bathy = flat_grid(3), FlatBathymetry(50.0)
        cfg = SimulationConfig(dt=1.0, boundary="wall")
        src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0,
                             sigma=600.0)
        ref = reference_run(grid, bathy, cfg, src, n_steps)
        plan = FaultPlan(
            [FaultSpec(kind="straggler", rank=2, op=0, step=0, span=100,
                       factor=4.0, delay_s=0.03)],
            seed=5,
        )
        dispatches["groups"] = 0
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 3), src, n_steps,
            survival=SurvivalConfig(
                checkpoint_every=10, hedge_stragglers=True,
                hedge_window=5, hedge_budget=2,
            ),
            fault_plan=plan, timeout=200.0, comm_timeout=20.0,
        )
        assert "hedge_migrate" in {ev.kind for ev in report.events}
        assert dispatches["groups"] > 0
        assert_identical(ref, eta)

    def test_concurrent_models_share_the_pool(self, monkeypatch):
        # Three callers, two workers, frequent thread switches: every
        # model must still match its own sequential run.
        _use_pool(monkeypatch, cores=3)
        sources = [
            GaussianSource(x0=12000.0, y0=9000.0, amplitude=3.0,
                           sigma=1500.0),
            GaussianSource(x0=4000.0, y0=16000.0, amplitude=2.0,
                           sigma=2500.0),
            GaussianSource(x0=8000.0, y0=12000.0, amplitude=1.0,
                           sigma=1000.0),
        ]

        def models():
            out = []
            for src in sources:
                model = coastal_mini_kochi()
                model.set_initial_condition(src)
                out.append(model)
            return out

        try:
            sequential = models()
            for model in sequential:
                model.run(self.N_STEPS)
            concurrent = models()
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
                assert_models_equal(con, seq)
        finally:
            _shut_pool()


# -- where the pool is (not) used ----------------------------------------


class TestPoolUse:
    def test_mini_kochi_service_and_distributed_never_submit(
        self, monkeypatch, dispatches
    ):
        monkeypatch.setattr(model_mod, "_POOL", None)
        sc = {
            "grid": "mini-kochi",
            "n_steps": 6,
            "source": {"type": "gaussian", "x0": 4_000.0, "y0": 16_000.0,
                       "amplitude": 2.0, "sigma": 2_500.0},
        }
        service, _backend = make_service(backend=LocalBackend())
        ticket = service.submit(ForecastRequest(scenario=sc,
                                                deadline_s=3_600.0))
        service.run_until_idle()
        assert ticket.status == "done"
        mk = build_mini_kochi()
        run_distributed(
            mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt),
            equal_cell_assignment(mk.grid, 2, split_blocks=False),
            GaussianSource(x0=4_000.0, y0=16_000.0), 4,
        )
        assert dispatches == {"groups": 0, "pool": 0}
        assert model_mod._POOL is None

    def test_no_pool_with_one_usable_cpu(self, monkeypatch, dispatches):
        _use_pool(monkeypatch, cores=1)
        model = coastal_mini_kochi()
        model.run(3)
        assert dispatches == {"groups": 0, "pool": 0}
        assert model_mod._POOL is None

    def test_pool_has_one_worker_less_than_the_cores(self, pooled):
        coastal_mini_kochi().run(1)
        assert model_mod._POOL._max_workers == 1


# -- context carried into the workers -------------------------------------


def _probe_kernel(monkeypatch, name, probe):
    """Replace the model's kernel *name* by one calling *probe* first."""
    kernel = getattr(model_mod, name)

    def probed(*args, **kwargs):
        probe()
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model_mod, name, probed)


class TestCarriedContext:
    def test_numpy_errstate_and_bufsize_reach_the_workers(
        self, pooled, monkeypatch
    ):
        seen = []
        _probe_kernel(monkeypatch, "nlmass", lambda: seen.append((
            threading.current_thread().name,
            np.geterr()["invalid"],
            np.getbufsize(),
        )))
        model = coastal_mini_kochi()
        old = np.setbufsize(4096)
        try:
            with np.errstate(invalid="raise"):
                model.step()
        finally:
            np.setbufsize(old)
        assert len(seen) == len(model.states)
        assert any(name.startswith("repro-blocks") for name, *_ in seen)
        assert all(rest == ["raise", 4096] for _name, *rest in seen), seen

    def test_floating_point_error_raised_as_in_the_serial_step(
        self, pooled
    ):
        # Block 8 is in the worker's group (largest-first over 2 cores).
        def poisoned():
            model = coastal_mini_kochi()
            model.run(2)
            model.states[8].z_old[5, 5] = np.inf
            return model

        model = poisoned()
        assert 8 not in model._partitions[tuple(model.states)][0]
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            model.step()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_mod, "POOL_MIN_CELLS", 10**9)
            model = poisoned()
            with np.errstate(invalid="raise"), pytest.raises(
                FloatingPointError
            ):
                model.step()

    def test_worker_exception_surfaces_from_step(self, pooled, monkeypatch):
        class KernelFault(Exception):
            pass

        done = []

        def fail_on_worker():
            if threading.current_thread().name.startswith("repro-blocks"):
                raise KernelFault("injected")
            done.append(1)

        _probe_kernel(monkeypatch, "nlmnt2", fail_on_worker)
        model = coastal_mini_kochi()
        with pytest.raises(KernelFault, match="injected"):
            model.step()
        # The caller's own group ran to completion before the raise.
        assert len(done) == len(model._partitions[tuple(model.states)][0])


class TestPooledTrace:
    @pytest.fixture(autouse=True)
    def _obs_dark(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    @staticmethod
    def assert_kernels_under_phases(spans):
        by_id = {s["span_id"]: s for s in spans}
        kernels = [s for s in spans if s["name"].endswith(".kernel")]
        assert kernels
        for s in kernels:
            assert by_id[s["parent_id"]]["name"] == s["name"][: -len(".kernel")]
            assert by_id[s["parent_id"]]["rank"] == s["rank"]
        return kernels

    def test_pooled_step_is_one_trace_tree(self, pooled):
        model = coastal_mini_kochi()
        obs.enable()
        with obstrace.context(obstrace.TraceContext("req-1")):
            model.step()
        spans = obs.get_tracer().export()
        assert {s.get("trace_id") for s in spans} == {"req-1"}
        kernels = self.assert_kernels_under_phases(spans)
        assert len(kernels) == 2 * len(model.states)
        assert len({s["tid"] for s in kernels}) == 2

    def test_rank_kernel_spans_carry_their_rank(self, pooled):
        mk = build_mini_kochi()
        obs.enable()
        with obstrace.context(obstrace.TraceContext("dist-1")):
            run_distributed(
                mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt),
                equal_cell_assignment(mk.grid, 2, split_blocks=False),
                GaussianSource(x0=4_000.0, y0=16_000.0), 2,
            )
        spans = obs.get_tracer().export()
        assert {s.get("trace_id") for s in spans} == {"dist-1"}
        kernels = self.assert_kernels_under_phases(spans)
        assert {s["rank"] for s in kernels} == {0, 1}
        # The worker's own rank is restored after each task.
        tracer = obs.get_tracer()
        assert model_mod._POOL.submit(
            lambda: tracer._tls_state().rank
        ).result(timeout=10) is None


# -- resilience suites on the pooled path (nightly) ----------------------


@pytest.mark.slow
class TestPooledResilience:
    """One rollback, one integrity and one kill-and-resume scenario of the
    tier-1 suites, which run below the size rule, with the pool on."""

    def test_nan_rollback_converges_bitwise(self, pooled, dispatches):
        resilience_tests.TestRollbackRecovery(
        ).test_nan_rollback_converges_bitwise()
        assert dispatches["groups"] > 0

    def test_state_flip_is_rolled_back_bitwise_with_scrubs(
        self, pooled, dispatches
    ):
        integrity_tests.TestQuarantineRollback(
        ).test_state_flip_is_rolled_back_bitwise()
        assert dispatches["groups"] > 0

    def test_sigterm_capture_then_resume_is_bitwise(
        self, pooled, dispatches, tmp_path
    ):
        resume_tests.TestKillAndResume(
        ).test_sigterm_capture_then_resume_is_bitwise(tmp_path)
        assert dispatches["groups"] > 0
