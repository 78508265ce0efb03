"""The benchmark's three workloads.

Each workload drives one public entry point of the program:

* ``service_mini`` — a closed loop of one client sending seeded
  mini-Kochi :class:`~repro.service.ForecastRequest`\\ s to
  ``ForecastService(LocalBackend())`` with its default resilience layers.
  Every fifth request exactly repeats an earlier scenario, so the result
  cache serves a fixed minority of requests.  One operation is one
  request, from ``submit()`` until its ticket has settled.
* ``bare_x8`` — bare :class:`~repro.core.RTiModel` stepping on the
  mini-Kochi topology with every block scaled 8x in each direction (dx/8,
  dt/8: the CFL ratio is unchanged).  Kernels dominate and the ~220 MB
  working set is far larger than the L2 cache.  One operation is one step.
* ``dist2_mini`` — :func:`repro.par.run_distributed` on mini-Kochi
  over 2 simulated ranks (whole-block decomposition).  Nesting transfers
  between levels 4 and 5 go through packing and ``par.comm`` messages;
  no intra-level seam crosses ranks, so halos stay direct copies.  One
  operation is one call of ``dist_steps`` steps from the same source.

A workload makes its inputs from the seed, constructs the program in
:meth:`setup`, runs one timed operation in :meth:`op` and checks each
output in :meth:`check_op` and :meth:`final_checks`, outside the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Inputs of ``bare_x8`` come from a pool of this many seeded scenarios,
#: so every seed has a shipped reference digest (seed % POOL picks one).
POOL = 32
#: Relative tolerance of the ``bare_x8`` digests against the references.
DIGEST_RTOL = 1e-6
REFERENCES = Path(__file__).with_name("references.json")
#: Untimed ``bare_x8`` steps before the timed loop.
BARE_WARMUP_STEPS = 2

#: Service deadline [simulated s]: far above the ~10 s a 100-step
#: mini-Kochi forecast is priced at, so admission never degrades or sheds.
DEADLINE_S = 3600.0


@dataclass(frozen=True)
class Sizing:
    """Problem sizes of one benchmark configuration."""

    service_steps: int = 100
    bare_scale: int = 8
    digest_step: int = 8
    dist_steps: int = 50
    #: Set-ups before and again after the timed loop: at least
    #: ``setups``, and more until ``setup_seconds`` have passed.
    #: ``setup_s`` is the median of these and of those run between
    #: operations (``run.SETUP_SHARE``).
    setups: int = 5
    setup_seconds: float = 1.0
    copy_probe_mib: int = 256


FULL = Sizing()
#: Small enough for the benchmark's own tests.
TINY = Sizing(
    service_steps=5, bare_scale=1, digest_step=4, dist_steps=5, setups=2,
    setup_seconds=0.0, copy_probe_mib=8,
)


@dataclass
class OpResult:
    """What one operation did, as far as the metrics need it."""

    steps: int = 0
    cells: int = 0
    #: Full-fidelity forecasts (service), steps (bare) or runs (dist)
    #: this operation completed.
    completed: int = 1
    cache_hit: bool = False
    value: object = None


def _gaussian_params(rng: np.random.Generator) -> dict:
    """A Gaussian source well inside mini-Kochi's level-1 domain."""
    return {
        "type": "gaussian",
        "x0": float(rng.uniform(8_000.0, 21_000.0)),
        "y0": float(rng.uniform(13_000.0, 26_000.0)),
        "amplitude": float(rng.uniform(0.5, 2.5)),
        "sigma": float(rng.uniform(1_500.0, 3_500.0)),
    }


def _source(spec: dict):
    from repro.fault import GaussianSource

    return GaussianSource(
        x0=spec["x0"], y0=spec["y0"], amplitude=spec["amplitude"],
        sigma=spec["sigma"],
    )


def scaled_mini_kochi(scale: int):
    """Mini-Kochi with every block scaled *scale*x in cells (dx, dt / scale)."""
    from repro.grid import Block, GridLevel, NestedGrid
    from repro.topo import build_mini_kochi

    mk = build_mini_kochi()
    levels = [
        GridLevel(
            index=lvl.index,
            dx=lvl.dx / scale,
            blocks=[
                Block(
                    b.block_id, b.level, b.gi0 * scale, b.gj0 * scale,
                    b.nx * scale, b.ny * scale,
                )
                for b in lvl.blocks
            ],
        )
        for lvl in mk.grid.levels
    ]
    return NestedGrid(levels=levels), mk.bathymetry, mk.dt / scale


def payload_digest(payload: dict) -> str:
    """SHA-256 over a LocalBackend payload's arrays and max eta."""
    h = hashlib.sha256()
    for key in ("eta", "zmax"):
        for bid in sorted(payload[key]):
            arr = np.ascontiguousarray(payload[key][bid])
            h.update(f"{key}{bid}{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    h.update(repr(float(payload["max_eta"])).encode())
    return h.hexdigest()


def model_digests(model) -> dict:
    """Aggregate digests of a model state: max eta, level-1 volume, flux."""
    flux = 0.0
    for st in model.states.values():
        flux += float(np.abs(st.m_new).sum() + np.abs(st.n_new).sum())
    return {
        "max_eta": float(model.max_eta()),
        "volume_l1": float(model.total_volume()),
        "flux_abs": flux,
    }


def bare_reference_digests(sizing: Sizing, pool_index: int) -> dict:
    """Digests after ``digest_step`` steps of pool scenario *pool_index*."""
    from repro.core import RTiModel, SimulationConfig

    grid, bathy, dt = scaled_mini_kochi(sizing.bare_scale)
    model = RTiModel(grid, bathy, SimulationConfig(dt=dt))
    rng = np.random.default_rng([7, pool_index])
    model.set_initial_condition(_source(_gaussian_params(rng)))
    model.run(sizing.digest_step)
    return model_digests(model)


def reference_key(sizing: Sizing) -> str:
    return f"x{sizing.bare_scale}-k{sizing.digest_step}"


class Workload:
    name = ""
    #: Name of the benchmark's span around one operation.
    op_span = "bench.op"
    #: Stop the loop after a failed operation (the state is unusable).
    stop_on_failure = False

    def __init__(self, seed: int, sizing: Sizing) -> None:
        self.seed = seed
        self.sizing = sizing

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work that fills caches and finishes lazy set-up."""

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check_op(self, i: int, res: OpResult) -> str | None:
        """Untimed check of one operation; returns a failure or None."""
        return None

    def final_checks(self) -> dict[str, str | None]:
        """Untimed checks after the loop: name -> failure or None."""
        return {}


class ServiceMini(Workload):
    name = "service_mini"
    op_span = "bench.request"

    def __init__(self, seed: int, sizing: Sizing) -> None:
        super().__init__(seed, sizing)
        self._rng = np.random.default_rng([1, seed])
        self._scenarios: list[dict] = []
        #: request index -> index of the request it repeats (or itself).
        self._origin: list[int] = []
        self._digests: dict[int, str] = {}
        self._first_payload = None
        self.warmup_scenario = self._new_scenario()

    def _new_scenario(self) -> dict:
        return {
            "grid": "mini-kochi",
            "n_steps": self.sizing.service_steps,
            "source": _gaussian_params(self._rng),
        }

    def scenario(self, i: int) -> dict:
        while len(self._scenarios) <= i:
            k = len(self._scenarios)
            firsts = [j for j in range(k) if self._origin[j] == j]
            if k % 5 == 4 and firsts:
                j = firsts[int(self._rng.integers(len(firsts)))]
                self._scenarios.append(self._scenarios[j])
                self._origin.append(j)
            else:
                self._scenarios.append(self._new_scenario())
                self._origin.append(k)
        return self._scenarios[i]

    def setup(self) -> None:
        from repro.core import RTiModel, SimulationConfig
        from repro.service import ForecastService, LocalBackend
        from repro.topo import build_mini_kochi

        self.service = ForecastService(LocalBackend())
        mk = build_mini_kochi()
        # The reference model for the first request's payload check.
        self.reference = RTiModel(
            mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt)
        )
        self.reference.set_initial_condition(
            _source(self.scenario(0)["source"])
        )
        self.cells = mk.grid.n_cells

    def _request(self, scenario: dict):
        from repro.service import ForecastRequest

        ticket = self.service.submit(
            ForecastRequest(scenario=scenario, deadline_s=DEADLINE_S)
        )
        if not ticket.settled:
            self.service.run_until_idle()
        return ticket

    def warmup(self) -> None:
        self._request(self.warmup_scenario)

    def op(self, i: int) -> OpResult:
        ticket = self._request(self.scenario(i))
        hit = ticket.status == "cached"
        steps = 0 if hit else self.sizing.service_steps
        full = ticket.result is not None and ticket.result.fidelity.is_full
        return OpResult(
            steps=steps, cells=self.cells, completed=int(full),
            cache_hit=hit, value=ticket,
        )

    def check_op(self, i: int, res: OpResult) -> str | None:
        ticket = res.value
        res.value = None
        origin = self._origin[i]
        allowed = ("done",) if origin == i else ("done", "cached")
        if ticket.status not in allowed:
            return f"request {i}: status {ticket.status}"
        if not ticket.result.fidelity.is_full:
            return f"request {i}: fidelity {ticket.result.fidelity.tag}"
        digest = payload_digest(ticket.result.payload)
        if origin != i and digest != self._digests[origin]:
            return f"request {i}: payload differs from request {origin}"
        self._digests[i] = digest
        if i == 0:
            self._first_payload = ticket.result.payload
        return None

    def final_checks(self) -> dict[str, str | None]:
        payload = self._first_payload
        if payload is None:
            return {"first_payload": "first request has no payload"}
        ref = self.reference
        ref.run(self.sizing.service_steps)
        same = (
            all(
                np.array_equal(payload["eta"][b], st.eta_interior())
                for b, st in ref.states.items()
            )
            and all(
                np.array_equal(payload["zmax"][b], acc.zmax)
                for b, acc in ref.outputs.items()
            )
            and payload["max_eta"] == ref.max_eta()
        )
        return {
            "first_payload": None if same
            else "first payload differs from a direct RTiModel run",
        }


class BareX8(Workload):
    name = "bare_x8"
    op_span = "bench.step"
    stop_on_failure = True

    def __init__(self, seed: int, sizing: Sizing) -> None:
        super().__init__(seed, sizing)
        self.pool_index = seed % POOL
        rng = np.random.default_rng([7, self.pool_index])
        self.source_spec = _gaussian_params(rng)
        self.model = None
        self.digests = None

    def setup(self) -> None:
        from repro.core import RTiModel, SimulationConfig

        self.model = None  # release the previous set-up's arrays first
        grid, bathy, dt = scaled_mini_kochi(self.sizing.bare_scale)
        model = RTiModel(grid, bathy, SimulationConfig(dt=dt))
        model.set_initial_condition(_source(self.source_spec))
        self.model = model
        self.cells = grid.n_cells

    def warmup(self) -> None:
        for _ in range(BARE_WARMUP_STEPS):
            self.model.step()
            self._maybe_digest()

    def _maybe_digest(self) -> None:
        if self.model.step_count == self.sizing.digest_step:
            self.digests = model_digests(self.model)

    def op(self, i: int) -> OpResult:
        self.model.step()
        return OpResult(steps=1, cells=self.cells)

    def check_op(self, i: int, res: OpResult) -> str | None:
        self._maybe_digest()
        return None

    def final_checks(self) -> dict[str, str | None]:
        finite = all(
            np.isfinite(a).all()
            for st in self.model.states.values()
            for a in (st.z_new, st.m_new, st.n_new)
        )
        refs = json.loads(REFERENCES.read_text())[reference_key(self.sizing)]
        ref = refs[self.pool_index]
        if self.digests is None:
            digest = (
                f"run ended before step {self.sizing.digest_step}"
            )
        else:
            bad = [
                k for k, v in ref.items()
                if not math.isclose(self.digests[k], v, rel_tol=DIGEST_RTOL)
            ]
            digest = f"digests differ: {bad}" if bad else None
        return {
            "finite": None if finite else "non-finite final state",
            "digests": digest,
        }


class Dist2Mini(Workload):
    name = "dist2_mini"
    op_span = "bench.run"

    def __init__(self, seed: int, sizing: Sizing) -> None:
        super().__init__(seed, sizing)
        rng = np.random.default_rng([2, seed])
        self.source = _source(_gaussian_params(rng))
        self.reference = None

    def setup(self) -> None:
        from repro.core import RTiModel, SimulationConfig
        from repro.par.decomposition import equal_cell_assignment
        from repro.topo import build_mini_kochi

        mk = build_mini_kochi()
        self.mk = mk
        self.config = SimulationConfig(dt=mk.dt)
        self.decomp = equal_cell_assignment(mk.grid, 2, split_blocks=False)
        # The single-process reference; run_distributed builds the rank
        # states itself on every call, inside the timed operation.
        self.reference_model = RTiModel(mk.grid, mk.bathymetry, self.config)
        self.reference_model.set_initial_condition(self.source)
        self.cells = mk.grid.n_cells

    def warmup(self) -> None:
        import repro.par.driver as dist_mod

        dist_mod.run_distributed(
            self.mk.grid, self.mk.bathymetry, self.config, self.decomp,
            self.source, 0,
        )
        model = self.reference_model
        model.run(self.sizing.dist_steps)
        self.reference = {
            bid: st.eta_interior().copy() for bid, st in model.states.items()
        }

    def op(self, i: int) -> OpResult:
        import repro.par.driver as dist_mod

        out = dist_mod.run_distributed(
            self.mk.grid, self.mk.bathymetry, self.config, self.decomp,
            self.source, self.sizing.dist_steps,
        )
        return OpResult(
            steps=self.sizing.dist_steps, cells=self.cells, value=out
        )

    def check_op(self, i: int, res: OpResult) -> str | None:
        out = res.value
        res.value = None
        if out.keys() != self.reference.keys():
            return f"run {i}: blocks {sorted(out)} returned"
        bad = [
            b for b, eta in self.reference.items()
            if not np.array_equal(out[b], eta)
        ]
        return f"run {i}: blocks {bad} differ from RTiModel" if bad else None


WORKLOADS = {w.name: w for w in (ServiceMini, BareX8, Dist2Mini)}
