"""Outside-in layer tracing for the benchmark.

The tracer times the program's layers without touching its source: it
replaces the public functions and methods named in :data:`TARGETS` with
wrappers that open a span (name, start, end, parent, pid) around each
call and attach exact counts read from the call's arguments, return
value or public attributes.  Spans stay in memory; worker processes
forked by the program's executor inherit the wrappers, keep their own
spans and write them to a spool directory when they exit, so the parent
can fold them into the same trace.

From the spans, :func:`layer_metrics` derives each layer's self time
(a span's duration minus the part its child spans cover), summed over
every process, plus the counts, and the part of the parent's pass that
no span covers (``other_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pid: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


def _entries(_args, result, _outermost) -> Dict[str, float]:
    return {"entries": len(result)}


def _store_bytes(args, _result, _outermost) -> Dict[str, float]:
    cache, spec = args[0], args[1]
    return {"bytes": cache.path_for(spec).stat().st_size}


def _load_hit(_args, result, _outermost) -> Dict[str, float]:
    return {"hit": int(result is not None)}


def _sim_counts(args, _result, _outermost) -> Dict[str, float]:
    sim = args[0]
    counts = {
        "cycles": sim.cycle,
        "cycles_executed": sim.cycles_executed,
        "flit_moves": sim.flit_moves,
        "packets_delivered": sim.total_delivered,
    }
    cache = sim.route_cache
    if cache is not None:
        counts.update(
            route_misses=cache.misses,
            route_hits=cache.hits,
            route_prefilled=cache.prefilled,
        )
    return counts


def _executor_counts(args, _result, outermost) -> Dict[str, float]:
    """ExecutorMetrics of the outermost executor call (a parallel
    ``sweep`` calls ``run_points``, whose metrics it reports)."""
    if not outermost:
        return {}
    executor = args[0]
    metrics = executor.last_metrics
    return {
        "jobs": executor.jobs,
        "batches": metrics.batches,
        "prewarmed_keys": metrics.prewarmed_keys,
        "warm_points": metrics.warm_points,
    }


def _run_points_counts(args, result, outermost) -> Dict[str, float]:
    counts = _executor_counts(args, result, outermost)
    counts["point_wall_s"] = sum(outcome.wall_time_s for outcome in result)
    for outcome in result:
        ledger = outcome.resilience or {}
        for key in ("faults_applied", "heals_applied", "recertifications", "dropped"):
            counts[key] = counts.get(key, 0) + ledger.get(key, 0)
    return counts


def _census(_args, result, _outermost) -> Dict[str, float]:
    return {
        "candidates": result.enumerated,
        "classes": len(result.outcomes),
        "certified": result.deadlock_free,
    }


#: (span name, defining module, attribute path, counts hook).  The span
#: name's first component is the layer.  A hook gets the call's
#: arguments, its result, and whether no span of the same layer
#: encloses the call.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("topology.parse", "repro.topology.spec", "parse_topology", None),
    ("routing.make", "repro.routing.registry", "make_routing", None),
    ("prewarm.table", "repro.analysis.prewarm", "prewarm_route_table", None),
    ("prewarm.table", "repro.analysis.prewarm", "build_route_table", _entries),
    ("prewarm.ship", "repro.analysis.prewarm", "serialize_route_table", None),
    ("prewarm.ship", "repro.analysis.prewarm", "load_route_table", None),
    ("executor.run", "repro.analysis.executor", "SweepExecutor.run_points", _run_points_counts),
    ("executor.run", "repro.analysis.executor", "SweepExecutor.sweep", _executor_counts),
    ("cache.store", "repro.analysis.executor", "ResultCache.store", _store_bytes),
    ("cache.load", "repro.analysis.executor", "ResultCache.load_entry", _load_hit),
    ("sim.construct", "repro.sim.engine", "WormholeSimulator.__init__", None),
    ("sim.run", "repro.sim.engine", "WormholeSimulator.run", _sim_counts),
    ("obs.summary", "repro.obs.metrics", "MetricsCollector.summary", None),
    ("verify.certify", "repro.verify.suite", "certify", None),
    ("verify.recertify", "repro.verify.suite", "recertify", None),
    ("core.routing_cdg", "repro.core.channel_graph", "routing_cdg", None),
    ("core.shortest_paths", "repro.core.adaptiveness", "count_shortest_paths", None),
    ("resilience.build_controller", "repro.resilience.controller", "build_controller", None),
    ("synth.run", "repro.synth.engine", "run_synthesis", _census),
)

#: Per-layer metrics, in report order: (name, unit).
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("proc.import_s", "s"),
    ("topology.parse_s", "s"),
    ("topology.parses", "count"),
    ("routing.make_s", "s"),
    ("routing.makes", "count"),
    ("routing.route_computations", "count"),
    ("routing.cache_hit_rate", "ratio"),
    ("routing.prefilled_entries", "count"),
    ("prewarm.table_s", "s"),
    ("prewarm.table_entries", "count"),
    ("prewarm.ship_s", "s"),
    ("executor.run_s", "s"),
    ("executor.busy_frac", "ratio"),
    ("executor.batches", "count"),
    ("executor.prewarmed_keys", "count"),
    ("executor.warm_points", "count"),
    ("cache.store_s", "s"),
    ("cache.stores", "count"),
    ("cache.load_s", "s"),
    ("cache.hits", "count"),
    ("cache.entry_bytes", "B"),
    ("sim.construct_s", "s"),
    ("sim.run_s", "s"),
    ("sim.flit_moves_per_s", "1/s"),
    ("sim.cycles", "count"),
    ("sim.cycles_executed", "count"),
    ("sim.flit_moves", "count"),
    ("sim.packets_delivered", "count"),
    ("obs.summary_s", "s"),
    ("obs.collectors", "count"),
    ("verify.certify_s", "s"),
    ("verify.certify_calls", "count"),
    ("verify.recertify_s", "s"),
    ("verify.recertify_calls", "count"),
    ("core.routing_cdg_s", "s"),
    ("core.shortest_paths_s", "s"),
    ("resilience.build_controller_s", "s"),
    ("resilience.faults_applied", "count"),
    ("resilience.heals_applied", "count"),
    ("resilience.recertifications", "count"),
    ("resilience.dropped", "count"),
    ("synth.run_s", "s"),
    ("synth.candidates", "count"),
    ("synth.classes", "count"),
    ("synth.certified", "count"),
    ("other_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span recorder for one traced pass, shared with forked workers.

    Args:
        spool: directory worker processes write their spans to on exit.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------

    def _adopt_process(self) -> None:
        """First span in a forked worker: drop the parent's copy and
        arrange for this process's spans to reach the spool on exit."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(None, self._spool_out, exitpriority=10)

    def _spool_out(self) -> None:
        path = self.spool / f"spans-{self._pid}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps([vars(span) for span in self.spans]))

    def open(self, name: str) -> int:
        if os.getpid() != self._pid:
            self._adopt_process()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, pid=self._pid))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def nested_in(self, index: int, layer: str) -> bool:
        """Whether an enclosing open span belongs to ``layer``."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name.split(".")[0] == layer:
                return True
            parent = self.spans[parent].parent
        return False

    # -- installation ---------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    outermost = not tracer.nested_in(index, name.split(".")[0])
                    tracer.spans[index].counts.update(hook(args, result, outermost))
                return result
            finally:
                tracer.close(index)

        return traced

    def install(self) -> None:
        """Wrap every target in the freshly imported ``repro`` modules.

        Functions are replaced wherever a loaded ``repro`` module binds
        them (``from x import f`` makes a copy of the name per module);
        methods are replaced on their class.
        """
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(name, getattr(owner, method), hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def collect_workers(self) -> None:
        """Fold the spans worker processes spooled into this trace."""
        for path in sorted(self.spool.glob("spans-*.json")):
            offset = len(self.spans)
            for raw in json.loads(path.read_text()):
                span = Span(**raw)
                if span.parent >= 0:
                    span.parent += offset
                self.spans.append(span)
            path.unlink()


def layer_metrics(spans: List[Span], window: Tuple[float, float], pid: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Args:
        spans: every span of the pass, parent and worker processes.
        window: the parent's pass, from its start to the last op's
            return; ``other_s`` is the part of it no top-level span of
            the parent covers.
        pid: the parent process.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    covered = 0.0
    busy_denominator = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        self_time[span.name] = self_time.get(span.name, 0.0) + duration - child_time[index]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[f"{span.name}:{key}"] = counts.get(f"{span.name}:{key}", 0) + value
        if span.pid == pid and span.parent < 0:
            covered += duration
        if "jobs" in span.counts:
            busy_denominator += span.counts["jobs"] * duration

    def seconds(*names: str) -> float:
        return sum(self_time.get(name, 0.0) for name in names)

    def count(key: str) -> float:
        return counts.get(key, 0)

    route_total = (
        count("sim.run:route_misses")
        + count("sim.run:route_hits")
        + count("sim.run:route_prefilled")
    )
    run_s = seconds("sim.run")
    return {
        "proc.import_s": seconds("proc.import"),
        "topology.parse_s": seconds("topology.parse"),
        "topology.parses": calls.get("topology.parse", 0),
        "routing.make_s": seconds("routing.make"),
        "routing.makes": calls.get("routing.make", 0),
        "routing.route_computations": count("sim.run:route_misses"),
        "routing.cache_hit_rate": (
            (route_total - count("sim.run:route_misses")) / route_total if route_total else 0.0
        ),
        "routing.prefilled_entries": count("sim.run:route_prefilled"),
        "prewarm.table_s": seconds("prewarm.table"),
        "prewarm.table_entries": count("prewarm.table:entries"),
        "prewarm.ship_s": seconds("prewarm.ship"),
        "executor.run_s": seconds("executor.run"),
        "executor.busy_frac": (
            count("executor.run:point_wall_s") / busy_denominator if busy_denominator else 0.0
        ),
        "executor.batches": count("executor.run:batches"),
        "executor.prewarmed_keys": count("executor.run:prewarmed_keys"),
        "executor.warm_points": count("executor.run:warm_points"),
        "cache.store_s": seconds("cache.store"),
        "cache.stores": calls.get("cache.store", 0),
        "cache.load_s": seconds("cache.load"),
        "cache.hits": count("cache.load:hit"),
        "cache.entry_bytes": count("cache.store:bytes"),
        "sim.construct_s": seconds("sim.construct"),
        "sim.run_s": run_s,
        "sim.flit_moves_per_s": count("sim.run:flit_moves") / run_s if run_s else 0.0,
        "sim.cycles": count("sim.run:cycles"),
        "sim.cycles_executed": count("sim.run:cycles_executed"),
        "sim.flit_moves": count("sim.run:flit_moves"),
        "sim.packets_delivered": count("sim.run:packets_delivered"),
        "obs.summary_s": seconds("obs.summary"),
        "obs.collectors": calls.get("obs.summary", 0),
        "verify.certify_s": seconds("verify.certify"),
        "verify.certify_calls": calls.get("verify.certify", 0),
        "verify.recertify_s": seconds("verify.recertify"),
        "verify.recertify_calls": calls.get("verify.recertify", 0),
        "core.routing_cdg_s": seconds("core.routing_cdg"),
        "core.shortest_paths_s": seconds("core.shortest_paths"),
        "resilience.build_controller_s": seconds("resilience.build_controller"),
        "resilience.faults_applied": count("executor.run:faults_applied"),
        "resilience.heals_applied": count("executor.run:heals_applied"),
        "resilience.recertifications": count("executor.run:recertifications"),
        "resilience.dropped": count("executor.run:dropped"),
        "synth.run_s": seconds("synth.run"),
        "synth.candidates": count("synth.run:candidates"),
        "synth.classes": count("synth.run:classes"),
        "synth.certified": count("synth.run:certified"),
        "other_s": (window[1] - window[0]) - covered,
    }


def write_trace(path: Path, spans: List[Span], metrics: Dict[str, Any]) -> None:
    """Write one traced pass's spans and derived metrics as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"metrics": metrics, "spans": [vars(span) for span in spans]})
    )
