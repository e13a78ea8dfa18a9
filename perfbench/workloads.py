"""The four benchmark workloads.

Each workload builds its inputs from the run seed and an op index, so the
same ``(seed, index)`` always gives the same inputs, and every op of a run
does the same amount of work.  ``op`` is the timed call; ``check`` runs
afterwards, outside the timed window, and returns one message per output
violation.  Every fifth op repeats the inputs of the op four places
earlier: its output must be bit-identical, and its latency is the
run's recorded ``hit_p10_ms`` (only ``serve_cold`` has a result cache that
makes a repeat cheap).

Engine kinds are pinned on every call, never left to library defaults.
See README.md for why each workload exists and which layers it covers.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time

import numpy as np

from repro.arch.emulator import Emulator
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.observe import EngineObserver
from repro.engine.seeding import spawn_trial_seeds
from repro.noc.connectivity import disconnected_fraction, monte_carlo_disconnection
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import random_fault_map
from repro.noc.simulator import NocSimulator
from repro.serve import ExperimentService, ServeClient, ServeHttpServer
from repro.workloads.bfs import DistributedBfs, reference_bfs
from repro.workloads.collectives import CollectiveDriver, CollectiveSpec
from repro.workloads.graphs import random_graph
from repro.workloads.traffic import TrafficPattern, generate_traffic
from repro.workloads.waves import FrontierWave

#: Every ``REPEAT_EVERY``-th op repeats the inputs of op ``index - REPEAT_LAG``.
REPEAT_EVERY = 5
REPEAT_LAG = 4
#: Warm-up ops (checked, never timed) use indices from ``WARMUP_BASE`` up.
WARMUP_BASE = 1_000_000
#: The run digest and the simulated counts cover the first ``COUNTED_OPS``
#: timed ops, whose inputs depend on the seed alone, so both repeat exactly.
COUNTED_OPS = 6


def op_seed(seed: int, index: int) -> int:
    """The integer seed of op ``index``'s inputs."""
    return seed * 10_000_019 + index


def is_repeat(index: int) -> bool:
    """Whether timed op ``index`` repeats an earlier op's inputs."""
    return index < WARMUP_BASE and index % REPEAT_EVERY == REPEAT_EVERY - 1


def digest(material) -> str:
    """SHA-256 of a JSON-canonical rendering of simulated outputs."""
    text = json.dumps(material, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _ms(entry: dict | None, per: float = 1.0, key: str = "self_s") -> float:
    return 1e3 * entry[key] / per if entry and per else 0.0


class Workload:
    """A workload run as a sequential closed loop by :mod:`run`."""

    name = ""
    work_unit = ""
    engine_kind = ""
    warmup_ops = 1

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.config = SystemConfig()

    def setup(self) -> None:
        """Build what every op shares (before warm-up)."""

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""

    def input_index(self, index: int) -> int:
        """The op whose inputs op ``index`` uses (itself, or an earlier op)."""
        return index - REPEAT_LAG if is_repeat(index) else index

    def prepare(self, index: int) -> None:
        """Make the inputs of op ``index`` before its timed window."""

    def op(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError

    def material(self, out: dict):
        """The simulated part of an output (what the digest covers)."""
        return out

    def work(self, out: dict) -> float:
        raise NotImplementedError

    def kind(self, out: dict) -> int:
        """Which kind of op ``out`` came from (ops of one kind cost alike)."""
        return 0

    def counts(self, outs: list[dict]) -> dict[str, float]:
        """Simulated counts over the outputs of the counted ops."""
        return {}

    def trace_extra(self, index: int, out: dict) -> list[str]:
        """Traced-run measurements made after an op, outside its latency."""
        return []

    def layer_metrics(self, summary: dict, ops: int) -> dict[str, float]:
        """Per-layer values from the span summary of ``ops`` traced ops."""
        return {}


# ---------------------------------------------------------------------------
# fig6_wafer
# ---------------------------------------------------------------------------

FIG6_FAULT_COUNTS = tuple(range(1, 11))
FIG6_MAPS = 6           # fault maps per fault count in one sweep


class _TrialValues(EngineObserver):
    """Keeps each engine run's per-trial values (one run per fault count)."""

    def __init__(self) -> None:
        self.runs: list[list] = []

    def on_run_end(self, result) -> None:
        self.runs.append([list(v) for v in result.values])


class Fig6Wafer(Workload):
    name = "fig6_wafer"
    work_unit = "fault maps"
    engine_kind = (
        "monte_carlo_disconnection as `repro fig6` calls it: dense "
        "_pair_blockage kernel (batch=1), ExperimentEngine(workers=1), no cache"
    )

    def _sweep(self, seed: int, counts) -> tuple[list, list]:
        values = _TrialValues()
        engine = ExperimentEngine(workers=1, cache=None, observers=[values])
        stats = []
        for count in counts:
            with self.tracer.span("noc.connectivity.monte_carlo_disconnection"):
                stats += monte_carlo_disconnection(
                    self.config, fault_counts=[count], trials=FIG6_MAPS,
                    seed=seed, engine=engine,
                )
        return stats, values.runs

    def op(self, index: int) -> dict:
        seed = op_seed(self.seed, index)
        if self.tracer.enabled:
            stats, runs = self._sweep(seed, FIG6_FAULT_COUNTS)
        else:
            values = _TrialValues()
            stats = monte_carlo_disconnection(
                self.config, fault_counts=list(FIG6_FAULT_COUNTS),
                trials=FIG6_MAPS, seed=seed,
                engine=ExperimentEngine(workers=1, cache=None, observers=[values]),
            )
            runs = values.runs
        return {
            "stats": [
                [s.fault_count, s.trials, s.mean_single_pct, s.mean_dual_pct,
                 s.std_single_pct, s.std_dual_pct]
                for s in stats
            ],
            "maps": runs,
        }

    def check(self, out: dict) -> list[str]:
        bad = []
        if [row[0] for row in out["stats"]] != list(FIG6_FAULT_COUNTS):
            bad.append("fig6: fault counts missing from the sweep")
        if len(out["maps"]) != len(FIG6_FAULT_COUNTS):
            return bad + ["fig6: per-map values missing"]
        for row, maps in zip(out["stats"], out["maps"]):
            count, trials, mean_single, mean_dual = row[:4]
            if trials != FIG6_MAPS or len(maps) != FIG6_MAPS:
                bad.append(f"fig6: {len(maps)} maps at {count} faults")
            for single, dual in maps:
                if not 0.0 <= dual <= single <= 100.0:
                    bad.append(f"fig6: map at {count} faults has dual {dual} single {single}")
            if maps and abs(mean_single - float(np.mean([m[0] for m in maps]))) > 1e-9:
                bad.append(f"fig6: mean single at {count} faults disagrees with its maps")
            if count == 5 and not (mean_single > 12.0 and mean_dual < 2.0):
                bad.append(
                    f"fig6: paper shape lost at 5 faults: single {mean_single:.2f}% "
                    f"(want > 12), dual {mean_dual:.2f}% (want < 2)"
                )
        return bad

    def work(self, out: dict) -> float:
        return float(sum(len(maps) for maps in out["maps"]))

    def counts(self, outs: list[dict]) -> dict[str, float]:
        return {"noc.connectivity.maps": sum(self.work(out) for out in outs)}

    def trace_extra(self, index: int, out: dict) -> list[str]:
        """Time the draw and the kernel alone on the sweep's own maps.

        The engine gives trial ``i`` of fault count ``c`` the ``i``-th
        child of ``SeedSequence((seed, c))``, so redrawing from those
        seeds reproduces the sweep's maps; their fractions must match.
        """
        bad = []
        seed = op_seed(self.seed, index)
        tracer = self.tracer
        with tracer.span("fig6.split"):
            for count, maps in zip(FIG6_FAULT_COUNTS, out["maps"]):
                tracer.label = f"c{count}"
                for trial, child in enumerate(spawn_trial_seeds((seed, count), FIG6_MAPS)):
                    with tracer.span("noc.faults.random_fault_map"):
                        fmap = random_fault_map(self.config, count, np.random.default_rng(child))
                    with tracer.span("noc.connectivity.disconnected_fraction"):
                        result = disconnected_fraction(fmap, engine="fast")
                    if [result.single * 100.0, result.dual * 100.0] != maps[trial]:
                        bad.append(f"fig6: redrawn map {trial} at {count} faults differs")
            tracer.label = ""
        return bad

    def layer_metrics(self, summary: dict, ops: int) -> dict[str, float]:
        maps = ops * len(FIG6_FAULT_COUNTS) * FIG6_MAPS

        def total(name: str, fault_counts) -> float:
            return sum(
                summary.get(f"{name}[c{c}]", {}).get("total_s", 0.0) for c in fault_counts
            )

        draw = total("noc.faults.random_fault_map", FIG6_FAULT_COUNTS)
        kernel = total("noc.connectivity.disconnected_fraction", FIG6_FAULT_COUNTS)
        per_count = ops * FIG6_MAPS * 3
        sweep = summary.get("noc.connectivity.monte_carlo_disconnection", {}).get("total_s", 0.0)
        return {
            "noc.faults.draw_ms_per_map": 1e3 * draw / maps,
            "noc.connectivity.kernel_ms_per_map.lo":
                1e3 * total("noc.connectivity.disconnected_fraction", (1, 2, 3)) / per_count,
            "noc.connectivity.kernel_ms_per_map.hi":
                1e3 * total("noc.connectivity.disconnected_fraction", (8, 9, 10)) / per_count,
            "engine.core.overhead_ms_per_map": 1e3 * (sweep - draw - kernel) / maps,
        }


# ---------------------------------------------------------------------------
# noc_wafer
# ---------------------------------------------------------------------------

NOC_PATTERNS = ("uniform", "transpose")
NOC_RATE = 0.3          # packets per tile per cycle: far past saturation
NOC_CYCLES = 20         # injection window, as `repro noc --cycles`
NOC_FAULTS = 5


def xy_blocked(faulty: np.ndarray, src, dst) -> bool:
    """Whether the X-Y route ``src -> dst`` crosses a faulty tile."""
    (r1, c1), (r2, c2) = src, dst
    return bool(
        faulty[r1, min(c1, c2): max(c1, c2) + 1].any()
        or faulty[min(r1, r2): max(r1, r2) + 1, c2].any()
    )


class NocWafer(Workload):
    name = "noc_wafer"
    work_unit = "simulated tile-cycles"
    engine_kind = 'NocSimulator(engine="vector"), the full-wafer production kernel'

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self._traced_packets: list[int] = []
        self._traced_drain: list[int] = []

    def _simulate(self, fault_map, pattern: str, seed: int) -> dict:
        tracer = self.tracer
        with tracer.span("workloads.traffic.generate_traffic"):
            traffic = generate_traffic(
                self.config, TrafficPattern(pattern), NOC_RATE, NOC_CYCLES, seed=seed
            )
        with tracer.span("noc.construct"):
            sim = NocSimulator(self.config, fault_map=fault_map, engine="vector")
        refused = 0
        if not tracer.enabled:
            for cycle, packet in traffic:
                while sim.cycle < cycle:
                    sim.step()
                if not sim.inject(packet, network=NetworkId.XY):
                    refused += 1
            while sim.cycle < NOC_CYCLES:
                sim.step()
            sim.drain()
            report = sim.report()
            drained = sim.cycle - NOC_CYCLES
        else:
            clock = time.perf_counter
            inject_s = step_s = 0.0
            with tracer.span("noc.inject_phase"):
                for cycle, packet in traffic:
                    while sim.cycle < cycle:
                        t = clock()
                        sim.step()
                        step_s += clock() - t
                    t = clock()
                    accepted = sim.inject(packet, network=NetworkId.XY)
                    inject_s += clock() - t
                    refused += not accepted
                while sim.cycle < NOC_CYCLES:
                    t = clock()
                    sim.step()
                    step_s += clock() - t
                tracer.aggregate("noc.inject", inject_s)
                tracer.aggregate("noc.step", step_s)
            with tracer.span("noc.drain"):
                sim.drain()
            drained = sim.cycle - NOC_CYCLES
            with tracer.span("noc.report"):
                report = sim.report()
        return {
            "pattern": pattern,
            "packets": [[p.src, p.dst] for _, p in traffic],
            "refused": refused,
            "cycles": report.cycles,
            "drain_cycles": drained,
            "injected": report.injected,
            "delivered": report.delivered,
            "responses_delivered": report.responses_delivered,
            "dropped_in_flight": report.dropped_in_flight,
            "in_flight": report.in_flight,
            "packets_unaccounted": report.packets_unaccounted,
            "flit_conservation_ok": report.flit_conservation_ok,
            "link_stalls": sim.link_stalls,
            "p99_latency": report.p99_latency,
            "mean_latency": report.mean_latency,
        }

    def op(self, index: int) -> dict:
        seed = op_seed(self.seed, index)
        fault_map = random_fault_map(self.config, NOC_FAULTS, rng=seed)
        runs = [self._simulate(fault_map, pattern, seed) for pattern in NOC_PATTERNS]
        return {"faulty": sorted(fault_map.faulty), "runs": runs}

    def check(self, out: dict) -> list[str]:
        """Conservation, plus an independent count of the expected drops.

        A request whose X-Y route crosses a faulty tile is dropped in
        flight; every other accepted request is delivered and answered by
        a response that retraces its tiles on the Y-X network.
        """
        faulty = np.zeros((self.config.rows, self.config.cols), dtype=bool)
        for r, c in out["faulty"]:
            faulty[r, c] = True
        bad = []
        for run in out["runs"]:
            tag = f"noc {run['pattern']}"
            accepted = blocked = 0
            for src, dst in run["packets"]:
                if faulty[src] or faulty[dst]:
                    continue
                accepted += 1
                blocked += xy_blocked(faulty, src, dst)
            if not run["flit_conservation_ok"] or run["packets_unaccounted"] != 0:
                bad.append(f"{tag}: flit conservation broken")
            if run["in_flight"] != 0:
                bad.append(f"{tag}: {run['in_flight']} packets left after drain")
            if run["delivered"] != run["injected"] - run["dropped_in_flight"]:
                bad.append(f"{tag}: delivered {run['delivered']} != injected "
                           f"{run['injected']} - dropped {run['dropped_in_flight']}")
            if run["refused"] != len(run["packets"]) - accepted:
                bad.append(f"{tag}: refused {run['refused']} injections, "
                           f"expected {len(run['packets']) - accepted}")
            if run["dropped_in_flight"] != blocked:
                bad.append(f"{tag}: dropped {run['dropped_in_flight']} in flight, "
                           f"expected {blocked}")
            if run["responses_delivered"] != accepted - blocked:
                bad.append(f"{tag}: {run['responses_delivered']} responses, "
                           f"expected {accepted - blocked}")
        return bad

    def work(self, out: dict) -> float:
        return float(sum(run["cycles"] for run in out["runs"]) * self.config.tiles)

    def counts(self, outs: list[dict]) -> dict[str, float]:
        runs = [run for out in outs for run in out["runs"]]
        attempts = sum(len(run["packets"]) for run in runs)
        refused = sum(run["refused"] for run in runs)
        return {
            "noc.sim_cycles": sum(run["cycles"] for run in runs),
            "noc.injected": sum(run["injected"] for run in runs),
            "noc.inject_refused": refused,
            "noc.inject_accept_ratio": (attempts - refused) / attempts,
            "noc.delivered": sum(run["delivered"] for run in runs),
            "noc.link_stalls": sum(run["link_stalls"] for run in runs),
            "noc.sim_latency_p99_cyc": max(run["p99_latency"] for run in runs),
        }

    def layer_metrics(self, summary: dict, ops: int) -> dict[str, float]:
        runs = ops * len(NOC_PATTERNS)
        packets = sum(self._traced_packets)
        step_cycles = runs * NOC_CYCLES
        drain_cycles = sum(self._traced_drain)
        step = summary.get("noc.step", {}).get("total_s", 0.0)
        drain = summary.get("noc.drain", {}).get("total_s", 0.0)
        return {
            "workloads.traffic.gen_ms": _ms(summary.get("workloads.traffic.generate_traffic"), ops),
            "noc.construct_ms": _ms(summary.get("noc.construct"), ops),
            "noc.inject_us_per_packet": 1e6 * summary.get("noc.inject", {}).get("total_s", 0.0)
            / max(packets, 1),
            "noc.step_us_per_cycle": 1e6 * step / step_cycles,
            "noc.drain_us_per_cycle": 1e6 * drain / max(drain_cycles, 1),
            "noc.ns_per_tile_cycle": 1e9 * (step + drain)
            / ((step_cycles + drain_cycles) * self.config.tiles),
        }

    def trace_extra(self, index: int, out: dict) -> list[str]:
        for run in out["runs"]:
            self._traced_packets.append(len(run["packets"]))
            self._traced_drain.append(run["drain_cycles"])
        return []


# ---------------------------------------------------------------------------
# emu_wafer
# ---------------------------------------------------------------------------

EMU_FAULTS = 5
BFS_NODES = 1500
WAVE = {"width": 32, "fanout": 4, "ttl": 4}
RING_RANKS = 64
EMU_PARTS = ("bfs", "wave", "collective")


def _timed_run(tracer, original):
    """``Emulator.run`` that also times the workload's compute callbacks.

    The graph and wave drivers construct their emulator themselves, so
    the traced run installs this in place of ``Emulator.run`` (a method
    of the library's public class).  It records an ``arch.emulator.run``
    span and, under it, one aggregate ``workloads.compute`` span holding
    the summed callback time.
    """

    def run(emulator, compute, max_supersteps: int = 10_000):
        spent = 0.0
        clock = time.perf_counter

        def timed(tile, inbox, em):
            nonlocal spent
            start = clock()
            cycles = compute(tile, inbox, em)
            spent += clock() - start
            return cycles

        with tracer.span("arch.emulator.run"):
            stats = original(emulator, timed, max_supersteps)
            tracer.aggregate("workloads.compute", spent)
        return stats

    return run


class _CountedWave(FrontierWave):
    """A wave that also counts the messages its tiles receive."""

    received = 0

    def compute(self, tile, inbox, em) -> int:
        self.received += len(inbox)
        return super().compute(tile, inbox, em)


class EmuWafer(Workload):
    name = "emu_wafer"
    work_unit = "emulated messages"
    engine_kind = 'Emulator(engine="vector") for BFS, wave and the ring all-reduce'

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self._traced_messages = 0.0
        self._original_run = Emulator.run
        self._inputs: dict[int, tuple] = {}

    def setup(self) -> None:
        if self.tracer.enabled:
            Emulator.run = _timed_run(self.tracer, self._original_run)

    def close(self) -> None:
        Emulator.run = self._original_run

    def prepare(self, index: int) -> None:
        seed = op_seed(self.seed, index)
        self._inputs = {index: (random_fault_map(self.config, EMU_FAULTS, rng=seed),
                                random_graph(nodes=BFS_NODES, seed=seed))}

    def op(self, index: int) -> dict:
        seed = op_seed(self.seed, index)
        tracer = self.tracer
        if index not in self._inputs:
            self.prepare(index)
        fault_map, graph = self._inputs.pop(index)
        with tracer.span("arch.system.construct"):
            system = WaferscaleSystem(self.config, fault_map)

        tracer.label = "bfs"
        with tracer.span("emu.bfs"):
            bfs = DistributedBfs(system, graph).run(0, engine="vector")
        tracer.label = "wave"
        with tracer.span("emu.wave"):
            waver = _CountedWave(system, seed=seed, **WAVE)
            wave = waver.run(engine="vector")
        tracer.label = "collective"
        with tracer.span("emu.collective"):
            with tracer.span("workloads.collectives.build"):
                driver = CollectiveDriver(
                    system,
                    CollectiveSpec(pattern="ring-all-reduce", ranks=RING_RANKS, seed=seed),
                )
                driver.reset()
            ring = Emulator(system, engine="vector").run(driver.compute)
            with tracer.span("workloads.collectives.verify"):
                oracle_checks = driver.verify()
        tracer.label = ""

        def stats(s) -> list[int]:
            return [s.supersteps, s.messages_sent, s.message_hops, s.detoured_messages,
                    s.local_compute_cycles, s.network_cycles]

        return {
            "graph": graph,
            "distance": bfs.distance,
            "bfs": stats(bfs.stats),
            "wave": stats(wave),
            "wave_received": waver.received,
            "collective": stats(ring),
            "oracle_checks": oracle_checks,
            "expected_oracle_checks": sum(len(v) for v in driver.trace.finals.values()),
        }

    def material(self, out: dict):
        return {k: v for k, v in out.items() if k != "graph"} | {
            "distance": sorted(out["distance"].items())
        }

    def check(self, out: dict) -> list[str]:
        bad = []
        if out["distance"] != reference_bfs(out["graph"], 0):
            bad.append("emu bfs: distances differ from reference_bfs")
        # Every received message with ttl > 1 sends ``fanout`` more; messages
        # a tile sends to itself are received but not counted as sent.
        width, fanout, ttl = WAVE["width"], WAVE["fanout"], WAVE["ttl"]
        want = width * sum(fanout**k for k in range(ttl))
        if out["wave_received"] != want or not 0 < out["wave"][1] <= want:
            bad.append(f"emu wave: {out['wave_received']} messages received, "
                       f"{out['wave'][1]} sent, expected {want}")
        if out["oracle_checks"] != out["expected_oracle_checks"] or not out["oracle_checks"]:
            bad.append(f"emu collective: {out['oracle_checks']} oracle checks, "
                       f"expected {out['expected_oracle_checks']}")
        return bad

    def work(self, out: dict) -> float:
        return float(sum(out[part][1] for part in EMU_PARTS))

    def counts(self, outs: list[dict]) -> dict[str, float]:
        return {
            "arch.supersteps": sum(out[part][0] for out in outs for part in EMU_PARTS),
            "arch.messages": sum(self.work(out) for out in outs),
            "arch.detoured": sum(out[part][3] for out in outs for part in EMU_PARTS),
        }

    def layer_metrics(self, summary: dict, ops: int) -> dict[str, float]:
        out = {"arch.system.construct_ms": _ms(summary.get("arch.system.construct"), ops)}
        kernel = 0.0
        for part in EMU_PARTS:
            run = summary.get(f"arch.emulator.run[{part}]")
            kernel += run["self_s"] if run else 0.0
            out[f"arch.emulator.kernel_ms.{part}"] = _ms(run, ops)
            out[f"workloads.compute_ms.{part}"] = _ms(
                summary.get(f"workloads.compute[{part}]"), ops
            )
        messages = self._traced_messages
        out["arch.ns_per_message"] = 1e9 * kernel / messages if messages else 0.0
        out["workloads.collectives.build_ms"] = _ms(
            summary.get("workloads.collectives.build[collective]"), ops
        )
        out["workloads.collectives.verify_ms"] = _ms(
            summary.get("workloads.collectives.verify[collective]"), ops
        )
        return out

    def trace_extra(self, index: int, out: dict) -> list[str]:
        self._traced_messages += self.work(out)
        return []


# ---------------------------------------------------------------------------
# serve_cold
# ---------------------------------------------------------------------------

#: ``ServeClient.wait``'s default poll period, in seconds.
POLL_S = 0.05
#: Cold request kinds, cycled in this order: (experiment, config, params, trials).
SERVE_KINDS = (
    ("noc", {"rows": 8, "cols": 8}, {"cycles": 600, "rate": 0.05, "faults": 0}, 1),
    ("noc", {"rows": 16, "cols": 16}, {"cycles": 200, "rate": 0.02, "faults": 2}, 1),
    ("fig6", {"rows": 16, "cols": 16}, {"max_faults": 6}, 40),
    ("droop", {"rows": 32, "cols": 32}, {}, 1),
    ("shmoo", {"rows": 32, "cols": 32}, {}, 1),
    ("resiliency", {"rows": 16, "cols": 16}, {"max_faults": 4}, 8),
)


class _Server:
    """An in-process server on an ephemeral port; its loop runs in a thread."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.ready = threading.Event()
        self.service = None
        self.port = None
        self.loop = None
        self.error: Exception | None = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, name="perfbench-serve")

    def _run(self) -> None:
        async def main() -> None:
            self.service = ExperimentService(
                engine_workers=1, cache=ResultCache(self.cache_dir)
            )
            server = ServeHttpServer(self.service, port=0)
            await server.start()
            self.port = server.port
            self.loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.ready.set()
            try:
                await self._stop.wait()
            finally:
                await server.close()

        try:
            asyncio.run(main())
        except Exception as exc:  # noqa: BLE001 - reported by start(); the thread ends
            self.error = exc
            self.ready.set()

    def start(self) -> None:
        self._thread.start()
        if not self.ready.wait(30) or self.port is None:
            raise RuntimeError(f"serve did not start: {self.error!r}")

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop")


class ServeCold(Workload):
    """One closed-loop client against an in-process server.

    Op ``index`` is request slot ``index``: a never-repeated cold spec,
    or (every fifth slot) a repeat of the most recent completed spec of
    the next kind in turn, which the service answers from its results.

    ``ServeClient.wait`` polls every ``POLL_S`` from its first call.  The
    client makes that first poll at a seeded random phase of the poll
    period after submitting, as a client whose clock is unrelated to the
    job's would, so a cold request's latency is not rounded to the poll
    grid (which made the median jump by whole poll periods).
    """

    name = "serve_cold"
    work_unit = "completed requests"
    engine_kind = 'serve jobs with engine="fast" (noc on FastNocSimulator), engine_workers=1'
    warmup_ops = len(SERVE_KINDS)

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self._completed: dict[int, list[int]] = {k: [] for k in range(len(SERVE_KINDS))}
        self._repeat_turn = 0
        self._samples: dict[str, list[float]] = {}

    def setup(self) -> None:
        base = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".runs")
        os.makedirs(base, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix="serve-", dir=base)
        self._server = _Server(os.path.join(self._tmp, "cache"))
        self._server.start()
        self.client = ServeClient(port=self._server.port, timeout=60.0)

    def close(self) -> None:
        try:
            self._server.stop()
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)

    def spec(self, index: int) -> tuple[int, dict]:
        """``(kind, body)`` of cold spec ``index``."""
        kind = index % len(SERVE_KINDS)
        experiment, config, params, trials = SERVE_KINDS[kind]
        return kind, {
            "experiment": experiment, "config": config, "params": params,
            "trials": trials, "seed": op_seed(self.seed, index), "engine": "fast",
        }

    def input_index(self, index: int) -> int:
        return index   # :meth:`target` picks what a repeat slot submits

    def target(self, index: int) -> int:
        """The cold spec request slot ``index`` submits."""
        if not is_repeat(index):
            return index
        for _ in SERVE_KINDS:
            kind = self._repeat_turn % len(SERVE_KINDS)
            self._repeat_turn += 1
            if self._completed[kind]:
                return self._completed[kind][-1]
        return index

    def op(self, index: int) -> dict:
        tracer = self.tracer
        target = self.target(index)
        kind, body = self.spec(target)
        with tracer.span("serve.submit"):
            submitted = self.client.submit(**body)
        outcome = submitted["outcome"]
        if submitted["state"] not in ("done", "failed"):
            with tracer.span("serve.wait"):
                time.sleep(POLL_S * np.random.default_rng(op_seed(self.seed, index)).random())
                self.client.wait(submitted["id"], timeout=120.0, poll=POLL_S)
        notified = time.time()
        with tracer.span("serve.fetch"):
            final = self.client.status(submitted["id"])
        return {
            "target": target, "kind": kind, "outcome": outcome,
            "repeat": target != index, "final": final, "notified": notified,
        }

    def material(self, out: dict):
        return out["final"].get("result")

    def check(self, out: dict) -> list[str]:
        final = out["final"]
        bad = []
        if final.get("state") != "done" or not (final.get("result") or {}).get("ok"):
            bad.append(f"serve: spec {out['target']} ended {final.get('state')!r} "
                       f"error {final.get('error')!r}")
        if out["repeat"] and out["outcome"] != "completed":
            bad.append(f"serve: repeat of spec {out['target']} was {out['outcome']!r}")
        if not bad and not out["repeat"]:
            self._completed[out["kind"]].append(out["target"])
        return bad

    def work(self, out: dict) -> float:
        return 1.0

    def kind(self, out: dict) -> int:
        return out["kind"]

    def trace_extra(self, index: int, out: dict) -> list[str]:
        """Split a cold request with the run document's own timestamps."""
        final = out["final"]
        if out["outcome"] != "queued" or final.get("finished_at") is None:
            return []
        experiment = SERVE_KINDS[out["kind"]][0]
        samples = self._samples
        samples.setdefault("serve.queue_wait_ms", []).append(
            final["started_at"] - final["submitted_at"])
        samples.setdefault(f"serve.execute_ms.{experiment}", []).append(
            final["finished_at"] - final["started_at"])
        samples.setdefault("serve.notify_gap_ms", []).append(
            out["notified"] - final["finished_at"])
        return []

    def layer_metrics(self, summary: dict, ops: int) -> dict[str, float]:
        out = {
            "serve.submit_ms": _ms(summary.get("serve.submit"), key="total_s",
                                   per=summary.get("serve.submit", {}).get("count", 0)),
            "serve.fetch_ms": _ms(summary.get("serve.fetch"), key="total_s",
                                  per=summary.get("serve.fetch", {}).get("count", 0)),
        }
        for experiment in dict.fromkeys(kind[0] for kind in SERVE_KINDS):
            out[f"serve.execute_ms.{experiment}"] = 0.0
        for name, values in self._samples.items():
            out[name] = 1e3 * float(np.median(values))
        stats = self._server.service.coalescing_stats()
        requests = stats["requests"] or 1
        out.update({
            "serve.executed": stats["executed"],
            "serve.result_hits": stats["result_hits"],
            "serve.rejected": stats["rejected_rate_limited"] + stats["rejected_queue_full"]
            + stats["rejected_draining"],
            "serve.failed": stats["failed"],
            "serve.hit_ratio": stats["result_hits"] / requests,
        })
        return out
