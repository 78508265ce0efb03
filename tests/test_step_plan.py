"""The Fig.-2 step plan: built once, walked by every process.

The block topology is static, so seam copy specs, restriction regions
and JNQ flux edges are resolved at construction (the paper's Listing-6
offsets); stepping must never rebuild them.  Single-process and
distributed runs walk the same step, so they feed the step counters the
same way.
"""

import sys

import pytest

import repro.obs as obs
from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.obs.metrics import get_registry
from repro.par.decomposition import equal_cell_assignment
from repro.par.driver import run_distributed
from repro.topo import build_mini_kochi

SOURCE = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
PLAN_FUNCS = {
    "repro.xchg.specs": "seam_copy_specs",
    "repro.nesting.restrict": "restriction_region",
    "repro.nesting.interp": "_edge_geometry",
}


def _count_calls(monkeypatch) -> dict[str, list]:
    """Count every call of the plan functions, under any module binding."""
    calls: dict[str, list] = {}
    for mod_name, attr in PLAN_FUNCS.items():
        real = getattr(sys.modules[mod_name], attr)
        seen = calls[attr] = []

        def counted(*args, _real=real, _seen=seen, **kwargs):
            _seen.append(1)
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("repro") and vars(mod).get(attr) is real:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_stepping_never_rebuilds_the_plan(monkeypatch):
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(SOURCE)
    calls = _count_calls(monkeypatch)
    model.run(5)
    assert {k: len(v) for k, v in calls.items()} == {
        "seam_copy_specs": 0,
        "restriction_region": 0,
        "_edge_geometry": 0,
    }


@pytest.fixture
def armed_obs():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def test_distributed_step_counts_one_model_step(armed_obs):
    mk = build_mini_kochi()
    decomp = equal_cell_assignment(mk.grid, 2, split_blocks=False)
    run_distributed(
        mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt), decomp, SOURCE, 1
    )
    counters = get_registry().to_dict()["counters"]
    assert counters.get("repro_steps_total") == 1
    assert counters.get("repro_cells_total") == mk.grid.n_cells
