#!/usr/bin/env python3
"""End-to-end benchmark of the turn-model reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-mesh16 --seed 1 --seconds 25 --trace 0

One run is one process.  It repeats passes of the workload until
``--seconds`` have elapsed (and at least three passes ran).  A pass
re-imports ``repro`` from ``src/`` (so every pass pays set-up the way a
fresh process would, and no warm state leaks between passes), prepares
the workload's inputs from ``--seed``, issues its ops one after another,
then checks every op's output outside the timed window.

With ``--trace 0`` the last line reports the end-to-end metrics, each
the median over passes (``peak_rss_mb`` is the run's peak).  With
``--trace 1`` the passes alternate between traced and untraced after
one untraced warm-up pass; the last line reports the per-layer metrics
(median over traced passes) and the tracing overhead, and the spans of
the last traced pass are written under ``.perfbench/``.

``--pin`` runs one pass of every workload at the default seed and
records its digests, work counters and the host in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"
DEFAULT_SEED = 1
MIN_PASSES = 3
#: Counters of work rather than results: executor counters depend on the
#: worker count, and a change may rightly prove fewer degraded
#: configurations.  They must repeat within a run but are not pinned.
UNPINNED = ("executor.", "resilience.recertifications")

from tracing import LAYER_METRICS, Tracer, layer_metrics, write_trace  # noqa: E402
from workloads import WORKLOADS, Workload, digest  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def host_facts() -> Dict[str, Any]:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": worker_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def worker_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))


def fresh_import(tracer: Optional[Tracer]) -> None:
    """Import ``repro.api`` anew, dropping every ``repro`` module first."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    span = tracer.open("proc.import") if tracer is not None else -1
    module = importlib.import_module("repro.api")
    if tracer is not None:
        tracer.close(span)
    if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {module.__file__}")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_pass(
    workload: Workload,
    seed: int,
    workdir: Path,
    pins: Optional[Dict[str, Any]],
    traced: bool,
) -> Dict[str, Any]:
    """One pass: set up, issue every op, then check the outputs."""
    workdir.mkdir(parents=True)
    gc.collect()
    tracer = Tracer(workdir) if traced else None
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    fresh_import(tracer)
    if tracer is not None:
        tracer.install()
    plan = workload.prepare(seed, workdir, worker_count())
    outputs: Dict[str, Any] = {}
    failures: List[tuple] = []
    issued = time.perf_counter()
    for name, op in plan.ops:
        try:
            outputs[name] = op()
        except Exception as exc:  # a failed op is a result, not a crash
            failures.append((name, f"raised {type(exc).__name__}: {exc}"))
    done = time.perf_counter()
    first = plan.first_issue() or issued
    plan.close()
    cpu = cpu_seconds() - cpu_start

    layers = None
    if tracer is not None:
        tracer.collect_workers()
        spans = list(tracer.spans)
        layers = layer_metrics(spans, (start, done), os.getpid())
        write_trace(ROOT / ".perfbench" / f"trace-{workload.name}.json", spans, layers)
    report = plan.check(outputs)
    failures += report.failures
    if pins is not None:
        for name, _ in plan.ops:
            got = report.digests.get(name)
            want = pins["ops"].get(name)
            if got is not None and got != want:
                failures.append((name, f"digest {got[:16]} != pinned {str(want)[:16]}"))
    shutil.rmtree(workdir)
    return {
        "setup_s": first - start,
        "wall_s": done - first,
        "cpu_s": cpu,
        "attempted": len(plan.ops),
        "failed_ops": sorted({name for name, _ in failures}),
        "failures": failures,
        "digests": report.digests,
        "combined_digest": digest([report.digests.get(name) for name, _ in plan.ops]),
        "counters": report.counters,
        "layers": layers,
        "traced": traced,
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    pins: Optional[Dict[str, Any]],
    min_passes: int = MIN_PASSES,
    log=print,
) -> Dict[str, Any]:
    """Repeat passes for ``seconds`` and summarize them."""
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    passes: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # Traced runs: an untraced warm-up, then traced and untraced
            # passes alternately, so the overhead compares like with like.
            traced = trace and len(passes) % 2 == 1
            result = run_pass(workload, seed, scratch / f"pass-{len(passes)}", pins, traced)
            passes.append(result)
            log(
                f"pass {len(passes)}{' traced' if traced else ''}: "
                f"setup_s={result['setup_s']:.4f} wall_s={result['wall_s']:.4f} "
                f"cpu_s={result['cpu_s']:.4f} ops={result['attempted']} "
                f"failed={len(result['failed_ops'])}"
            )
            enough = len(passes) >= (2 * min_passes - 1 if trace else min_passes)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [failure for result in passes for failure in result["failures"]]
    counters = passes[0]["counters"]
    counter_errors = [
        f"pass {i + 1} counters differ: {result['counters']}"
        for i, result in enumerate(passes)
        if result["counters"] != counters
    ]
    if pins is not None:
        counter_errors += [
            f"counter {key} = {counters.get(key)} != pinned {value}"
            for key, value in pins["counters"].items()
            if counters.get(key) != value
        ]
    summary: Dict[str, Any] = {
        "attempted": sum(result["attempted"] for result in passes),
        "failed": sum(len(result["failed_ops"]) for result in passes),
        "failures": failures,
        "counter_errors": counter_errors,
        "counters": counters,
        "combined_digest": passes[0]["combined_digest"],
        "passes": len(passes),
    }
    untraced = [result for result in passes if not result["traced"]]
    if trace:
        traced = [result for result in passes if result["traced"]]
        metrics = {
            name: statistics.median(result["layers"][name] for result in traced)
            for name, _ in LAYER_METRICS
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(result["wall_s"] for result in traced)
            / statistics.median(result["wall_s"] for result in untraced[1:])
            - 1.0
        )
        units = dict(LAYER_METRICS)
    else:
        metrics = {
            name: statistics.median(result[name] for result in untraced)
            for name in ("setup_s", "wall_s", "cpu_s")
        }
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END)
    summary["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return summary


def load_manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST.read_text())


def pin(log=print) -> None:
    """Record digests and counters of every workload at the default seed."""
    manifest = load_manifest() if MANIFEST.exists() else {}
    manifest["default_seed"] = DEFAULT_SEED
    manifest["host"] = host_facts()
    described = {}
    for name, workload in WORKLOADS.items():
        result = run_pass(workload, DEFAULT_SEED, ROOT / ".perfbench" / "pin", None, False)
        if result["failures"]:
            raise SystemExit(f"perfbench: {name} failed its checks: {result['failures']}")
        log(f"pinned {name}: {result['combined_digest']}")
        described[name] = {
            **workload.describe(worker_count()),
            "digest": result["combined_digest"],
            "ops": result["digests"],
            "counters": {
                key: value
                for key, value in result["counters"].items()
                if not key.startswith(UNPINNED)
            },
        }
    manifest["workloads"] = described
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the pins in manifest.json")
    args = parser.parse_args(argv)
    use_source_tree()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    manifest = load_manifest()
    pins = None
    if args.seed == manifest["default_seed"] or not workload.seeded:
        pins = manifest["workloads"][workload.name]
    facts = host_facts()
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
        f"python={facts['python']}"
    )
    summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), pins)
    for name, value in sorted(summary["counters"].items()):
        print(f"counter {name} = {value}")
    for op, reason in summary["failures"]:
        print(f"FAILED op {op}: {reason}")
    for error in summary["counter_errors"]:
        print(f"FAILED {error}")
    pinned = "checked against the pin" if pins is not None else "not pinned at this seed"
    print(f"digest {summary['combined_digest']} ({pinned})")
    for name, metric in summary["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"error_frac = {summary['failed']}/{summary['attempted']} = "
        f"{summary['failed'] / summary['attempted']:.4g} over {summary['passes']} passes"
    )
    correct = summary["failed"] == 0 and not summary["counter_errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
