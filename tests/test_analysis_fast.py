"""Differential tests for the fast analytic kernels.

Every fast path in the analysis layer keeps its reference
implementation — the per-fault connectivity loop, the
fresh-``spsolve``-per-call PDN solve, the per-flow emulator routing —
and these tests prove the fast results identical to them: randomized
and adversarial fault maps for connectivity, both load models for the
PDN (at 1e-12), and field-for-field emulation stats for the route cache.
"""

import numpy as np
import pytest

from repro.arch.emulator import Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import NetworkError, PdnError, ReproError
from repro.flow.characterize import characterize_activity_sweep
from repro.engine import CIStop, ResultCache
from repro.engine.cache import cache_key
from repro.noc.connectivity import (
    _pair_blockage_reference,
    _pair_blockage_sparse,
    _same_row_col_share_reference,
    disconnected_fraction,
    disconnected_fractions,
    monte_carlo_disconnection,
    same_row_col_share,
)
from repro.noc.faults import FaultMap, random_fault_map
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.pdn.solver import PdnSolution, PdnSolver
from repro.verify.golden import golden_disconnected_fraction
from repro.workloads.bfs import DistributedBfs


def _random_maps(cfg, fault_counts, seed=0):
    rng = np.random.default_rng(seed)
    return [
        random_fault_map(cfg, count, rng)
        for count in fault_counts
        for _ in range(3)
    ]


# ---------------------------------------------------------------------------
# connectivity: the sparse production kernel vs the retained reference loop
# ---------------------------------------------------------------------------


def _assert_matches_reference(fmap):
    """The sparse kernel and the public fast entry point equal the loop."""
    reference = _pair_blockage_reference(fmap)
    assert _pair_blockage_sparse(fmap) == reference
    assert disconnected_fraction(fmap, engine="fast") == reference


def _all_but(cfg, healthy):
    return FaultMap(
        cfg, frozenset(c for c in cfg.tile_coords() if c not in healthy)
    )


class TestConnectivityDifferential:
    def test_randomized_maps_match_reference(self, small_cfg):
        for fmap in _random_maps(small_cfg, (0, 1, 2, 5, 12, 30), seed=3):
            _assert_matches_reference(fmap)

    def test_paper_scale_maps_match_reference(self, paper_cfg):
        for fmap in _random_maps(paper_cfg, (2, 5, 10, 40), seed=4):
            _assert_matches_reference(fmap)

    def test_paper_scale_high_density_matches_reference(self, paper_cfg):
        # Most rows hold a fault here, so the sparse corrections contract
        # over (nearly) every row: the regime where its cost nears dense.
        for fmap in _random_maps(paper_cfg, (200, 600), seed=11)[::3]:
            _assert_matches_reference(fmap)

    def test_paper_scale_near_fully_faulty(self, paper_cfg):
        healthy = {(0, 0), (31, 31), (7, 19), (20, 3), (20, 19)}
        _assert_matches_reference(_all_but(paper_cfg, healthy))

    def test_non_square_grid_matches_reference(self):
        cfg = SystemConfig(rows=6, cols=5)
        for fmap in _random_maps(cfg, (0, 1, 3, 4, 9), seed=5):
            _assert_matches_reference(fmap)

    def test_same_row_only_faults(self, small_cfg):
        _assert_matches_reference(
            FaultMap(small_cfg, frozenset((3, c) for c in range(1, 7)))
        )

    def test_same_col_only_faults(self, small_cfg):
        _assert_matches_reference(
            FaultMap(small_cfg, frozenset((r, 5) for r in range(0, 8, 2)))
        )

    def test_near_fully_faulty(self, small_cfg):
        _assert_matches_reference(_all_but(small_cfg, {(0, 0), (7, 7), (3, 4)}))

    def test_matches_golden_path_walk(self, small_cfg):
        for fmap in _random_maps(small_cfg, (1, 4, 9), seed=12):
            result = disconnected_fraction(fmap, engine="fast")
            single, dual = golden_disconnected_fraction(fmap)
            assert result.single == pytest.approx(single, abs=1e-12)
            assert result.dual == pytest.approx(dual, abs=1e-12)

    def test_degenerate_map_raises_both_kernels(self, small_cfg):
        fmap = _all_but(small_cfg, {(0, 0)})
        for engine in ("fast", "reference"):
            with pytest.raises(NetworkError, match="two healthy"):
                disconnected_fraction(fmap, engine=engine)

    def test_unknown_method_rejected(self, clean_map):
        with pytest.raises(ReproError, match="unknown method"):
            disconnected_fraction(clean_map, method="nope")

    def test_batched_fractions_match_single(self, small_cfg):
        maps = _random_maps(small_cfg, (1, 4), seed=6)
        batched = disconnected_fractions(maps)
        assert batched == [disconnected_fraction(m) for m in maps]

    def test_same_row_col_share_matches_reference(self, small_cfg):
        for fmap in _random_maps(small_cfg, (1, 3, 8), seed=7):
            fast = same_row_col_share(fmap)
            ref = _same_row_col_share_reference(fmap)
            assert fast == pytest.approx(ref, abs=1e-12)


class TestMonteCarloFastPath:
    def test_methods_produce_identical_statistics(self, small_cfg):
        kwargs = dict(fault_counts=[2, 5], trials=6, seed=9)
        fast = monte_carlo_disconnection(small_cfg, **kwargs)
        ref = monte_carlo_disconnection(small_cfg, method="reference", **kwargs)
        assert fast == ref

    def test_degenerate_draw_names_trial_and_seed(self):
        cfg = SystemConfig(rows=1, cols=3)
        with pytest.raises(NetworkError) as excinfo:
            monte_carlo_disconnection(cfg, [2], trials=2, seed=11)
        message = str(excinfo.value)
        assert "degenerate fault map" in message
        assert "trial" in message
        assert "fault_count 2" in message
        assert "run seed (11, 2)" in message

    @pytest.mark.parametrize("batch", [0, 3, True, 1.0, "nope"])
    def test_batch_must_be_one_or_chunk(self, small_cfg, batch):
        with pytest.raises(NetworkError, match="batch must be 1 or 'chunk'"):
            monte_carlo_disconnection(small_cfg, [1], trials=2, batch=batch)

    def test_default_run_keeps_its_cache_identity(self, small_cfg, tmp_path):
        # Fast-kernel runs, per-trial or chunked, must keep the historical
        # params {"fault_count": k} so existing cache entries stay valid.
        cache = ResultCache(tmp_path)
        kwargs = dict(fault_counts=[2, 5], trials=4, seed=6, cache=cache)
        first = monte_carlo_disconnection(small_cfg, **kwargs)
        for count in (2, 5):
            key = cache_key(
                "noc.fig6_disconnection", small_cfg, {"fault_count": count},
                (6, count), 4,
            )
            assert cache.get(key)[0], count
        cache.hits = 0
        chunked = monte_carlo_disconnection(small_cfg, batch="chunk", **kwargs)
        assert chunked == first
        assert cache.hits == 2

    def test_chunk_dispatch_bit_identical_to_per_trial(self, small_cfg):
        kwargs = dict(fault_counts=[2, 5], trials=20, seed=9)
        base = monte_carlo_disconnection(small_cfg, **kwargs)
        for workers in (1, 3):
            chunked = monte_carlo_disconnection(
                small_cfg, workers=workers, batch="chunk", **kwargs
            )
            assert chunked == base

    def test_chunk_dispatch_reference_method(self, small_cfg):
        kwargs = dict(fault_counts=[3], trials=8, seed=4, method="reference")
        base = monte_carlo_disconnection(small_cfg, **kwargs)
        chunked = monte_carlo_disconnection(
            small_cfg, batch="chunk", **kwargs
        )
        assert chunked == base

    def test_chunk_degenerate_draw_names_trial_and_seed(self):
        cfg = SystemConfig(rows=1, cols=3)
        with pytest.raises(NetworkError) as excinfo:
            monte_carlo_disconnection(
                cfg, [2], trials=2, seed=11, batch="chunk"
            )
        message = str(excinfo.value)
        assert "degenerate fault map" in message
        assert "fault_count 2" in message
        assert "run seed (11, 2)" in message


class TestMonteCarloAdaptive:
    def test_stops_early_and_is_worker_invariant(self, small_cfg):
        rule = CIStop(rel_halfwidth=0.02, min_trials=16, block=8)
        kwargs = dict(fault_counts=[5], trials=400, seed=7, adaptive=rule)
        solo = monte_carlo_disconnection(small_cfg, **kwargs)
        assert solo[0].trials < 400
        pooled = monte_carlo_disconnection(small_cfg, workers=4, **kwargs)
        chunked = monte_carlo_disconnection(
            small_cfg, workers=4, batch="chunk", **kwargs
        )
        assert solo == pooled == chunked

    def test_adaptive_prefix_matches_fixed_run(self, small_cfg):
        rule = CIStop(rel_halfwidth=0.05, min_trials=16, block=8)
        adaptive = monte_carlo_disconnection(
            small_cfg, [5], trials=300, seed=3, adaptive=rule
        )
        fixed = monte_carlo_disconnection(
            small_cfg, [5], trials=adaptive[0].trials, seed=3
        )
        assert adaptive[0].mean_single_pct == fixed[0].mean_single_pct
        assert adaptive[0].mean_dual_pct == fixed[0].mean_dual_pct

    def test_adaptive_cap_is_respected(self, small_cfg):
        rule = CIStop(rel_halfwidth=1e-9, min_trials=4, block=4)
        out = monte_carlo_disconnection(
            small_cfg, [5], trials=12, seed=1, adaptive=rule
        )
        assert out[0].trials == 12


# ---------------------------------------------------------------------------
# PDN: factorization-cached solves vs fresh spsolve
# ---------------------------------------------------------------------------


class TestPdnDifferential:
    @pytest.mark.parametrize("load_model", ["ldo", "constant_power"])
    def test_factorized_matches_spsolve(self, small_cfg, load_model):
        reference = PdnSolver(small_cfg, factorize=False)
        fast = PdnSolver(small_cfg)
        for scale in (0.25, 1.0):
            power = scale * small_cfg.tile_peak_power_w
            ref_sol = reference.solve(power, load_model=load_model)
            fast_sol = fast.solve(power, load_model=load_model)
            assert np.allclose(ref_sol.voltages, fast_sol.voltages, atol=1e-12)
            assert np.allclose(ref_sol.currents, fast_sol.currents, atol=1e-12)
            assert ref_sol.iterations == fast_sol.iterations

    @pytest.mark.parametrize("load_model", ["ldo", "constant_power"])
    def test_solve_many_matches_individual_solves(self, small_cfg, load_model):
        rng = np.random.default_rng(1)
        maps = [
            rng.uniform(0.2, 1.0, size=(small_cfg.rows, small_cfg.cols))
            * small_cfg.tile_peak_power_w
            for _ in range(4)
        ]
        solver = PdnSolver(small_cfg)
        batch = solver.solve_many(maps, load_model=load_model)
        for power, batched in zip(maps, batch):
            single = solver.solve(power, load_model=load_model)
            assert np.allclose(single.voltages, batched.voltages, atol=1e-12)
            assert single.iterations == batched.iterations
            assert batched.converged

    def test_solve_many_empty_batch(self, small_cfg):
        assert PdnSolver(small_cfg).solve_many([]) == []

    def test_solve_many_rejects_bad_model(self, small_cfg):
        with pytest.raises(PdnError, match="unknown load model"):
            PdnSolver(small_cfg).solve_many([0.1], load_model="nope")

    def test_factorization_telemetry_counters(self, small_cfg):
        tel = Telemetry()
        with use_telemetry(tel):
            solver = PdnSolver(small_cfg)
            for _ in range(3):
                solver.solve()
        assert tel.metrics.counter("pdn.factorizations").value == 1
        assert tel.metrics.counter("pdn.factorization_reuses").value == 2


class TestPdnSolutionPowerLoads:
    def _solution(self, small_cfg, power):
        shape = (small_cfg.rows, small_cfg.cols)
        return PdnSolution(
            config=small_cfg,
            voltages=np.full(shape, 2.0),
            currents=np.full(shape, 0.1),
            edge_voltage=2.5,
            iterations=1,
            converged=True,
            power_loads_w=power,
        )

    def test_none_power_map_is_safe(self, small_cfg):
        solution = self._solution(small_cfg, None)
        assert solution.power_loads_w is None
        assert solution.specified_power_w is None
        assert solution.delivery_efficiency is None

    def test_recorded_power_map_properties(self, small_cfg):
        power = np.full((small_cfg.rows, small_cfg.cols), 0.35)
        solution = self._solution(small_cfg, power)
        assert solution.specified_power_w == pytest.approx(power.sum())
        assert solution.delivery_efficiency == pytest.approx(
            power.sum() / solution.supply_power_w
        )

    def test_solver_records_power_map(self, small_cfg):
        solution = PdnSolver(small_cfg).solve()
        assert solution.power_loads_w is not None
        assert solution.delivery_efficiency is not None


class TestActivitySweep:
    def test_sweep_shares_factorization(self, small_cfg):
        tel = Telemetry()
        with use_telemetry(tel):
            results = characterize_activity_sweep(
                [0.25, 0.5, 1.0], config=small_cfg
            )
        assert tel.metrics.counter("pdn.factorizations").value == 1
        assert [factor for factor, _ in results] == [0.25, 0.5, 1.0]
        min_v = [shmoo.regulated_v.min() for _, shmoo in results]
        assert min_v[0] >= min_v[-1]

    def test_sweep_validates_inputs(self, small_cfg):
        with pytest.raises(Exception, match="at least one"):
            characterize_activity_sweep([], config=small_cfg)
        with pytest.raises(Exception, match="non-negative"):
            characterize_activity_sweep([-0.5], config=small_cfg)


# ---------------------------------------------------------------------------
# emulator: fault-map-keyed route cache vs per-flow assignment
# ---------------------------------------------------------------------------


def _detour_system():
    """A system whose fault layout forces software detours."""
    cfg = SystemConfig(rows=8, cols=8)
    fmap = FaultMap(cfg).with_fault((0, 4)).with_fault((4, 0))
    return WaferscaleSystem(cfg, fmap)


class TestEmulatorRouteCache:
    def _run_bfs(self, route_cache):
        import networkx as nx

        system = _detour_system()
        graph = nx.gnm_random_graph(80, 320, seed=2)
        return DistributedBfs(system, graph).run(0, route_cache=route_cache)

    def test_stats_identical_with_and_without_cache(self):
        clear_route_cache()
        reference = self._run_bfs(route_cache=False)
        fast_cold = self._run_bfs(route_cache=True)
        fast_warm = self._run_bfs(route_cache=True)
        assert reference.distance == fast_cold.distance == fast_warm.distance
        for field in (
            "supersteps",
            "messages_sent",
            "message_hops",
            "detoured_messages",
            "local_compute_cycles",
            "network_cycles",
            "per_step_messages",
        ):
            assert (
                getattr(reference.stats, field)
                == getattr(fast_cold.stats, field)
                == getattr(fast_warm.stats, field)
            ), field
        assert reference.stats.detoured_messages > 0

    def test_route_cache_telemetry_counters(self):
        clear_route_cache()
        system = _detour_system()
        tel = Telemetry()
        with use_telemetry(tel):
            emulator = Emulator(system, telemetry=tel)
            emulator.send((0, 0), (3, 3), "ping")
            emulator.superstep(lambda tile, inbox, em: 0)
            emulator.send((0, 0), (3, 3), "ping")
            emulator.superstep(lambda tile, inbox, em: 0)
        assert tel.metrics.counter("emu.route_cache_misses").value == 1
        assert tel.metrics.counter("emu.route_cache_hits").value == 1

    def test_unreachable_pair_error_is_cached(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg).with_fault((0, 1)).with_fault((1, 0))
        system = WaferscaleSystem(cfg, fmap)
        clear_route_cache()
        for _ in range(2):     # second pass hits the cached entry
            emulator = Emulator(system)
            emulator.send((0, 0), (1, 1), "ping")
            with pytest.raises(NetworkError, match=r"no path for messages"):
                emulator.superstep(lambda tile, inbox, em: 0)

    def test_cache_disabled_matches_legacy_error(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg).with_fault((0, 1)).with_fault((1, 0))
        system = WaferscaleSystem(cfg, fmap)
        emulator = Emulator(system, route_cache=False)
        emulator.send((0, 0), (1, 1), "ping")
        with pytest.raises(NetworkError, match=r"no path for messages"):
            emulator.superstep(lambda tile, inbox, em: 0)
