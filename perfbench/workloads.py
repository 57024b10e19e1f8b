"""The benchmark's four workloads.

Each workload is one closed loop with a single client: it issues an op,
waits for its result, then issues the next.  ``prepare`` is the set-up a
user pays before the first op (building specs, topologies, routings and
executors, after ``import repro``); it returns a :class:`PassPlan` whose
ops are timed and whose ``check`` verifies their outputs afterwards,
outside the timed window.

Every op's output is reduced to a SHA-256 digest of a canonical JSON
form of what the program returned; at the default seed those digests
must equal the ones pinned in ``manifest.json``.  ``check`` also
applies invariants that hold at any seed, and reports exact work
counters read from public return values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Op = Tuple[str, Callable[[], Any]]


@dataclass
class CheckReport:
    """What ``check`` found: per-op digests, failures, work counters."""

    digests: Dict[str, str] = field(default_factory=dict)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    def require(self, op: str, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.append((op, reason))

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(value)


@dataclass
class PassPlan:
    """One pass of a workload: its ops and how to check and end it."""

    ops: List[Op]
    check: Callable[[Dict[str, Any]], CheckReport]
    close: Callable[[], None] = lambda: None
    #: When set, the moment the first op was actually issued, if that
    #: is later than the call that started it (a sweep's first point).
    first_issue: Callable[[], Optional[float]] = lambda: None


def digest(value: Any) -> str:
    """SHA-256 of a canonical JSON form (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_result(report: CheckReport, op: str, result) -> None:
    """Invariants of any result of a certified algorithm."""
    report.require(op, not result.deadlocked, "certified algorithm deadlocked")
    report.require(
        op,
        result.total_delivered <= result.total_injected,
        f"delivered {result.total_delivered} > injected {result.total_injected}",
    )
    report.add("sim.packets_delivered", result.total_delivered)
    report.add("sim.delivered_flits", result.delivered_flits)


class Workload:
    name = ""
    why = ""
    op = ""
    seeded = True

    def describe(self, jobs: int) -> dict:
        return {
            "why": self.why,
            "op": self.op,
            "loop": "closed, one client, ops issued serially",
            "workers": self.workers(jobs),
            "seed": "workload and fault seeds" if self.seeded else "not used (no random input)",
        }

    def workers(self, jobs: int) -> int:
        return 0

    def prepare(self, seed: int, workdir: Path, jobs: int) -> PassPlan:
        raise NotImplementedError


class SweepMesh16(Workload):
    name = "sweep-mesh16"
    why = (
        "The paper's evaluation path, as `repro figure` drives it: engine, executor, "
        "route-table prewarm and cache writes do the work."
    )
    op = "one SweepExecutor.sweep() call: a latency-throughput series of one algorithm and pattern"
    algorithms = ("xy", "west-first", "north-last", "negative-first")
    topology = "mesh:16x16"
    windows = (200, 800, 200)

    def workers(self, jobs: int) -> int:
        return jobs

    def prepare(self, seed: int, workdir: Path, jobs: int) -> PassPlan:
        api = importlib.import_module("repro.api")
        presets = importlib.import_module("repro.experiments.presets")
        mid = presets.get_preset("mid")
        grids = {"uniform": mid.loads_mesh_uniform, "transpose": mid.loads_mesh_transpose}
        config = api.SimulationConfig(
            warmup_cycles=self.windows[0],
            measure_cycles=self.windows[1],
            drain_cycles=self.windows[2],
        )
        first: List[float] = []

        class FirstPoint(api.ExecutorHooks):
            def on_point_start(self, point) -> None:
                if not first:
                    first.append(time.perf_counter())

        cache_dir = workdir / "cache"
        executor = api.SweepExecutor(jobs=jobs, cache_dir=cache_dir, hooks=FirstPoint())
        series: List[Tuple[str, str, Tuple[float, ...]]] = [
            (algorithm, pattern, grids[pattern])
            for pattern in ("uniform", "transpose")
            for algorithm in self.algorithms
        ]

        def sweep_op(algorithm: str, pattern: str, loads) -> Callable[[], Any]:
            def run() -> Any:
                curve = executor.sweep(
                    self.topology, algorithm, pattern, loads,
                    config=config, seed=seed, stop_after_saturation=3,
                )
                return curve, executor.last_metrics

            return run

        ops = [
            (f"{algorithm}/{pattern}", sweep_op(algorithm, pattern, loads))
            for algorithm, pattern, loads in series
        ]

        def check(outputs: Dict[str, Any]) -> CheckReport:
            report = CheckReport()
            cache = api.ResultCache(cache_dir)
            base = api.ExperimentSpec(
                topology=self.topology,
                routing="",
                pattern="",
                load=0.0,
                sizes=api.PAPER_SIZES.choices,
                config=api.ConfigSpec.from_config(config),
                seed=seed,
            )
            for (name, _), (algorithm, pattern, loads) in zip(ops, series):
                if name not in outputs:
                    continue
                curve, metrics = outputs[name]
                point_digests = []
                report.require(name, len(curve.points) >= 1, "empty series")
                for load, point in zip(loads, curve.points):
                    report.require(name, not point.deadlocked, f"deadlocked at load {load}")
                    spec = dataclasses.replace(
                        base, routing=algorithm, pattern=pattern, load=load
                    )
                    entry = cache.load_entry(spec)
                    if entry is None:
                        report.require(name, False, f"no cache entry for load {load}")
                        continue
                    _check_result(report, name, entry[0])
                    point_digests.append(digest(dataclasses.asdict(entry[0])))
                report.digests[name] = digest(
                    {"series": dataclasses.asdict(curve), "points": point_digests}
                )
                report.add("sweep.series_points", len(curve.points))
                for counter in (
                    "points_total", "simulated", "cycles_simulated",
                    "warm_points", "batches", "prewarmed_keys",
                ):
                    report.add(f"executor.{counter}", getattr(metrics, counter))
            return report

        return PassPlan(
            ops=ops,
            check=check,
            close=executor.close,
            first_issue=lambda: first[0] if first else None,
        )


class PointsApi(Workload):
    name = "points-api"
    why = (
        "One-off points through repro.api.run: routes computed lazily on the clock, a "
        "fresh jobs=1 executor per call, obs on every point, cache written then read."
    )
    op = "one repro.api.run(spec, obs=True, cache_dir=...) call"
    windows = (200, 800, 200)

    def specs(self, api, seed: int) -> List[Tuple[str, Any]]:
        presets = importlib.import_module("repro.experiments.presets")
        mid = presets.get_preset("mid")
        config = api.ConfigSpec(
            warmup_cycles=self.windows[0],
            measure_cycles=self.windows[1],
            drain_cycles=self.windows[2],
        )
        # Below saturation and at it: the first and fifth load of the
        # mid preset's grid for each topology and pattern.
        families = (
            ("mesh:16x16", ("west-first", "negative-first", "xy"),
             {"uniform": mid.loads_mesh_uniform, "transpose": mid.loads_mesh_transpose}),
            ("cube:8", ("p-cube", "e-cube"),
             {"uniform": mid.loads_cube_uniform, "transpose": mid.loads_cube_transpose}),
        )
        specs = []
        for topology, algorithms, grids in families:
            for algorithm in algorithms:
                for pattern, grid in grids.items():
                    for load in (grid[0], grid[4]):
                        specs.append((
                            f"{topology}/{algorithm}/{pattern}/{load}",
                            api.ExperimentSpec(
                                topology=topology,
                                routing=algorithm,
                                pattern=pattern,
                                load=load,
                                sizes=api.PAPER_SIZES.choices,
                                config=config,
                                seed=seed,
                            ),
                        ))
        return specs

    def prepare(self, seed: int, workdir: Path, jobs: int) -> PassPlan:
        api = importlib.import_module("repro.api")
        cache_dir = str(workdir / "cache")
        specs = self.specs(api, seed)

        def call(spec) -> Callable[[], Any]:
            return lambda: api.run(spec, obs=True, cache_dir=cache_dir)

        ops = [(f"run:{label}", call(spec)) for label, spec in specs]
        ops += [(f"rerun:{label}", call(spec)) for label, spec in specs]

        def check(outputs: Dict[str, Any]) -> CheckReport:
            report = CheckReport()
            first: Dict[str, str] = {}
            for label, _ in specs:
                for phase in ("run", "rerun"):
                    name = f"{phase}:{label}"
                    if name not in outputs:
                        continue
                    out = outputs[name]
                    _check_result(report, name, out.result)
                    report.require(
                        name, out.cached == (phase == "rerun"),
                        f"cached={out.cached} on the {phase} pass",
                    )
                    report.require(name, out.metrics is not None, "no obs metrics summary")
                    report.digests[name] = digest(dataclasses.asdict(out.result))
                    if phase == "run":
                        first[label] = report.digests[name]
                    else:
                        report.require(
                            name, report.digests[name] == first.get(label),
                            "second-pass digest differs from the first pass",
                        )
                        report.add("points.cache_hits", out.cached)
            return report

        return PassPlan(ops=ops, check=check)


class FaultsMesh16(Workload):
    name = "faults-mesh16"
    why = (
        "A fault study as `repro resilience` runs it: resilience rebuilds and "
        "verify.recertify dominate; the engine is light, routes cold, no prewarm or pool."
    )
    op = "one fault_sweep() call for one algorithm over every fault count"
    algorithms = ("xy", "west-first", "negative-first")
    topology = "mesh:16x16"
    counts = (0, 1, 2)
    load = 0.05
    # Faults strike in the measurement window and each heals 600 cycles
    # later, in the drain: every fault of a cell lands before the first
    # heal, so a cell with c faults is recertified 2c - 1 times whatever
    # the seed, and the work of a pass does not depend on the seed.
    heal_after = 600
    windows = (200, 600, 600)

    def prepare(self, seed: int, workdir: Path, jobs: int) -> PassPlan:
        api = importlib.import_module("repro.api")
        config = api.SimulationConfig(
            warmup_cycles=self.windows[0],
            measure_cycles=self.windows[1],
            drain_cycles=self.windows[2],
        )

        def sweep_op(algorithm: str) -> Callable[[], Any]:
            return lambda: api.fault_sweep(
                self.topology, [algorithm], "uniform", self.load, self.counts,
                config=config, seed=seed, fault_seed=seed, heal_after=self.heal_after,
            )

        ops = [(algorithm, sweep_op(algorithm)) for algorithm in self.algorithms]

        def check(outputs: Dict[str, Any]) -> CheckReport:
            report = CheckReport()
            for name, _ in ops:
                if name not in outputs:
                    continue
                cells = outputs[name].cells
                report.require(
                    name, [cell.fault_count for cell in cells] == list(self.counts),
                    f"cells {[cell.fault_count for cell in cells]}",
                )
                cell_digests = []
                for cell in cells:
                    _check_result(report, name, cell.result)
                    ledger = cell.resilience
                    # The recertification count is work, not a result: a
                    # change that skips a redundant proof keeps the digest.
                    outcome = {k: v for k, v in (ledger or {}).items() if k != "recertifications"}
                    cell_digests.append(digest(
                        {"result": dataclasses.asdict(cell.result), "ledger": outcome}
                    ))
                    if cell.fault_count == 0:
                        report.require(name, ledger is None, "ledger on the fault-free cell")
                        continue
                    if ledger is None:
                        report.require(name, False, f"no ledger at {cell.fault_count} faults")
                        continue
                    count = cell.fault_count
                    report.require(
                        name, ledger["faults_applied"] == count,
                        f"faults_applied {ledger['faults_applied']} != {count}",
                    )
                    report.require(
                        name, ledger["heals_applied"] == count,
                        f"heals_applied {ledger['heals_applied']} != {count}",
                    )
                    report.require(
                        name, ledger["recertifications"] >= 1, "no recertification"
                    )
                    report.require(
                        name,
                        ledger["delivered"] + ledger["dropped"] <= ledger["created"],
                        "ledger: delivered + dropped > created",
                    )
                    report.require(name, not ledger["aborted"], "run aborted")
                    for key in ("faults_applied", "heals_applied", "recertifications",
                                "dropped", "delivered", "created"):
                        report.add(f"resilience.{key}", ledger[key])
                report.digests[name] = digest(cell_digests)
            return report

        return PassPlan(ops=ops, check=check)


class CertifySynth(Workload):
    name = "certify-synth"
    why = (
        "Algorithm design and verification: the full checker set and repro.core do the "
        "work (repro sweep --certify, repro synth); the engine does nothing."
    )
    op = "one repro.verify.certify() call, or the run_synthesis() 2D census"
    seeded = False
    targets = (
        ("mesh:8x8", ("xy", "west-first", "north-last", "negative-first")),
        ("cube:6", ("e-cube", "p-cube")),
    )
    census_topology = "mesh:4x4"
    rediscover = ("west-first", "north-last", "negative-first")

    def prepare(self, seed: int, workdir: Path, jobs: int) -> PassPlan:
        api = importlib.import_module("repro.api")
        verify = importlib.import_module("repro.verify")
        ops: List[Op] = []
        for label, algorithms in self.targets:
            topology = api.parse_topology(label)
            for algorithm in algorithms:
                routing = api.make_routing(algorithm, topology)
                ops.append((
                    f"certify:{label}/{algorithm}",
                    lambda t=topology, r=routing, tl=label: verify.certify(t, r, topology_label=tl),
                ))
        synth_spec = api.SynthSpec(topology=self.census_topology)
        ops.append((f"synth:{self.census_topology}", lambda: api.run_synthesis(synth_spec)))

        def check(outputs: Dict[str, Any]) -> CheckReport:
            report = CheckReport()
            for name, _ in ops:
                if name not in outputs:
                    continue
                out = outputs[name]
                if name.startswith("certify:"):
                    report.require(name, out.verdict == "certified", f"verdict {out.verdict}")
                    report.digests[name] = digest(out.to_dict())
                    report.add("verify.certified", out.verdict == "certified")
                    report.add("verify.checks", len(out.checks))
                    continue
                census = (out.enumerated, out.deadlock_free, out.deadlocked)
                report.require(name, census == (16, 12, 4), f"census {census} != (16, 12, 4)")
                found = {outcome.rediscovers for outcome in out.outcomes}
                missing = [a for a in self.rediscover if a not in found]
                report.require(name, not missing, f"not rediscovered: {missing}")
                report.digests[name] = digest(out.to_payload())
                report.add("synth.candidates", out.enumerated)
                report.add("synth.deadlock_free", out.deadlock_free)
                report.add("synth.deadlocked", out.deadlocked)
                report.add("synth.classes", len(out.outcomes))
            return report

        return PassPlan(ops=ops, check=check)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (SweepMesh16(), PointsApi(), FaultsMesh16(), CertifySynth())
}
