"""Execute the pinned BENCH matrix into a report dict.

Three kinds of timed row, three execution paths:

* **matrix cells** go through the harness's
  :class:`~repro.harness.runner.ParallelRunner` (``jobs=1``, no result
  cache — a cache hit's 0-second wall time is exactly what a benchmark
  must not record) with a dedicated JSONL manifest; the wall time comes
  from the manifest record the runner writes, so the number in the
  BENCH file is the same number every other harness consumer sees.
* **before/after pairs** are timed directly, *interleaved* (one before
  run, one after run, repeated ``repeats`` times, median of each
  side).  Interleaving is the methodology load-bearing part: container
  wall clocks drift by ±10% over seconds, and A/A/A/B/B/B timing
  folds that drift into the A-vs-B delta while A/B/A/B/A/B cancels
  it (docs/performance.md, "Methodology").
* the **cluster row** spawns the real sharded cluster (router + shard
  processes over TCP) once and records its end-to-end echo throughput.

Deterministic cells also record a simulation *fingerprint* (the full
SchedStats counter dict plus the workload's scalar metrics) so
``compare`` can gate bit-identity across machines, where wall clocks
cannot be compared at all.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

from ..harness.registry import MACHINE_SPECS, SCHEDULERS, WORKLOADS
from ..harness.runner import ParallelRunner
from ..harness.spec import RunSpec
from ..kernel.params import CPU_HZ
from .matrix import (
    BENCH_ID,
    SCHEMA_VERSION,
    BenchCell,
    BenchPair,
    cluster_row_config,
    matrix_cells,
    matrix_hash,
    pair_cells,
)
from .report import pick_latency_percentiles

__all__ = ["run_bench", "run_matrix", "run_pair", "run_cluster_row"]

#: Interleaved repetitions per before/after pair side.
DEFAULT_REPEATS = 5

#: Where the bench run's harness manifest goes (kept apart from the
#: sweep manifest: bench rows must never be muddied by cache hits).
DEFAULT_BENCH_MANIFEST = Path("results") / "bench-manifest.jsonl"

LogFn = Callable[[str], None]


def _silent(_msg: str) -> None:  # pragma: no cover - trivial
    pass


# -- matrix cells ------------------------------------------------------------


def _manifest_walls(manifest_path: Path, since_line: int) -> dict[str, float]:
    """``spec key → best wall_seconds`` from records after ``since_line``.

    A cell run repeatedly keeps its *minimum* wall time: for a
    deterministic single-threaded computation the fastest observation
    is the one least polluted by interpreter warm-up and container
    scheduling noise (docs/performance.md, "Methodology")."""
    walls: dict[str, float] = {}
    if not manifest_path.exists():
        return walls
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    for line in lines[since_line:]:
        record = json.loads(line)
        if record.get("outcome", "ok") == "ok":
            key, wall = record["key"], record["wall_seconds"]
            walls[key] = min(walls.get(key, wall), wall)
    return walls


def _cell_record(
    cell: BenchCell, result: Any, wall_seconds: float, cpu_seconds: float
) -> dict[str, Any]:
    """One BENCH ``cells[]`` entry from a metered CellResult."""
    sim_elapsed = result.elapsed_seconds
    sim_cycles = int(sim_elapsed * CPU_HZ)
    obs = result.obs_metrics
    picks = obs.get("counters", {}).get("picks", 0)
    decision_total = obs.get("totals", {}).get("decision_cycles", 0)
    hist = obs.get("hists", {}).get("decision_cycles", {})
    record: dict[str, Any] = {
        "id": cell.cell_id,
        "workload": cell.workload,
        "scheduler": cell.scheduler,
        "machine": cell.machine,
        "config": dict(cell.config),
        "deterministic": cell.deterministic,
        "wall_seconds": round(wall_seconds, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "sim_elapsed_seconds": sim_elapsed,
        "sim_cycles": sim_cycles,
        "sim_cycles_per_wall_second": (
            round(sim_cycles / wall_seconds) if wall_seconds > 0 else 0
        ),
        "scheduler_fraction": result.scheduler_fraction,
        "throughput": result.throughput,
        "picks": picks,
        "mean_pick_cycles": (
            round(decision_total / picks, 3) if picks else 0.0
        ),
        "pick_latency_cycles": pick_latency_percentiles(hist),
    }
    if cell.deterministic:
        record["fingerprint"] = {
            "stats": dict(result.stats),
            "metrics": dict(result.metrics),
        }
    return record


#: Runs per matrix cell; the best (minimum) wall time is recorded.
DEFAULT_CELL_REPEATS = 3


def run_matrix(
    cells: list[BenchCell],
    manifest_path: Path = DEFAULT_BENCH_MANIFEST,
    log: LogFn = _silent,
    cell_repeats: int = DEFAULT_CELL_REPEATS,
) -> list[dict[str, Any]]:
    """Run the metered matrix cells serially through the harness.

    Each cell runs ``cell_repeats`` times (no cache, so every run is a
    real computation) and keeps its best wall time; the simulation
    outputs of the final run populate the record (identical across
    runs for deterministic cells — the determinism tests pin that).
    """
    specs = [
        RunSpec(
            workload=c.workload,
            scheduler=c.scheduler,
            machine=c.machine,
            config=c.config,
        )
        for c in cells
    ]
    since = 0
    if manifest_path.exists():
        since = len(
            manifest_path.read_text(encoding="utf-8").splitlines()
        )
    runner = ParallelRunner(
        jobs=1, cache=None, manifest_path=manifest_path, metrics=True
    )
    records: list[dict[str, Any]] = []
    for cell, spec in zip(cells, specs):
        log(f"  {cell.cell_id} ...")
        result = None
        cpu_best = float("inf")
        for _rep in range(max(1, cell_repeats)):
            cpu_start = time.process_time()
            result = runner.run([spec])[0]
            cpu_best = min(cpu_best, time.process_time() - cpu_start)
        walls = _manifest_walls(manifest_path, since)
        wall = walls.get(spec.key, 0.0)
        records.append(_cell_record(cell, result, wall, cpu_best))
        log(
            f"  {cell.cell_id}: {wall:.3f}s wall / {cpu_best:.3f}s cpu "
            f"(best of {cell_repeats})"
        )
    return records


# -- before/after pairs ------------------------------------------------------


def _pair_sides(
    pair: BenchPair,
) -> tuple[Callable[[], Any], Callable[[], Any], bool, str, str]:
    """(before_factory, after_factory, metered, before_label, after_label).

    The before sides are the private legacy code paths — deliberately
    absent from the scheduler registry (they are baselines and
    cross-checks, not experiment vocabulary).
    """
    if pair.dimension == "runqueue":
        from ..sched.vanilla import VanillaScheduler

        return (
            lambda: VanillaScheduler(impl="list"),
            lambda: VanillaScheduler(),
            False,
            "linked-list walk (impl=list)",
            "goodness index over class heads (impl=index)",
        )
    if pair.dimension == "elsc-table":
        from ..core.elsc import ELSCScheduler

        return (
            lambda: ELSCScheduler(table_impl="list"),
            lambda: ELSCScheduler(),
            False,
            "linked table (table_impl=list)",
            "array table + bitmaps (table_impl=array)",
        )
    if pair.dimension == "probe-batch":
        factory = SCHEDULERS[pair.scheduler]
        return (
            factory,
            factory,
            True,
            "per-event emission (batch_size=1)",
            "batched emission (default batch)",
        )
    raise ValueError(f"unknown pair dimension {pair.dimension!r}")


def _timed_run(
    pair: BenchPair,
    factory: Callable[[], Any],
    metered: bool,
    batch_size: Optional[int],
) -> tuple[float, float, dict[str, Any]]:
    """One workload run: (wall seconds, cpu seconds, sim fingerprint)."""
    workload = WORKLOADS[pair.workload]
    config = workload.config_cls(**dict(pair.config))
    spec = MACHINE_SPECS[pair.machine]
    probe = None
    patched = None
    if metered:
        from ..obs import probe as probe_mod
        from ..obs.metrics import MetricsProbe

        probe = MetricsProbe()
        if batch_size is not None:
            patched = probe_mod.DEFAULT_BATCH_SIZE
            probe_mod.DEFAULT_BATCH_SIZE = batch_size
    try:
        start = time.perf_counter()
        cpu_start = time.process_time()
        raw = workload.run(factory, spec, config, metrics=probe)
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - start
    finally:
        if patched is not None:
            from ..obs import probe as probe_mod

            probe_mod.DEFAULT_BATCH_SIZE = patched
    stats = raw.sim.stats
    fingerprint = {
        "stats": {
            name: getattr(stats, name)
            for name in type(stats).__dataclass_fields__
        },
        "metrics": workload.extract(raw),
    }
    return wall, cpu, fingerprint


def run_pair(
    pair: BenchPair,
    repeats: int = DEFAULT_REPEATS,
    log: LogFn = _silent,
) -> dict[str, Any]:
    """Time one before/after pair, interleaved, median of ``repeats``."""
    before_factory, after_factory, metered, before_label, after_label = (
        _pair_sides(pair)
    )
    before_walls: list[float] = []
    after_walls: list[float] = []
    before_cpus: list[float] = []
    after_cpus: list[float] = []
    before_fp: Optional[dict[str, Any]] = None
    after_fp: Optional[dict[str, Any]] = None
    for rep in range(repeats):
        wall, cpu, fp = _timed_run(
            pair, before_factory, metered, 1 if metered else None
        )
        before_walls.append(wall)
        before_cpus.append(cpu)
        before_fp = before_fp or fp
        wall, cpu, fp = _timed_run(pair, after_factory, metered, None)
        after_walls.append(wall)
        after_cpus.append(cpu)
        after_fp = after_fp or fp
        log(
            f"  {pair.cell_id} rep {rep + 1}/{repeats}: "
            f"{before_walls[-1]:.3f}s vs {after_walls[-1]:.3f}s"
        )
    before_med = statistics.median(before_walls)
    after_med = statistics.median(after_walls)
    before_cpu = statistics.median(before_cpus)
    after_cpu = statistics.median(after_cpus)
    improvement = (
        (before_med - after_med) / before_med * 100.0 if before_med else 0.0
    )
    improvement_cpu = (
        (before_cpu - after_cpu) / before_cpu * 100.0 if before_cpu else 0.0
    )
    return {
        "id": pair.cell_id,
        "dimension": pair.dimension,
        "workload": pair.workload,
        "scheduler": pair.scheduler,
        "machine": pair.machine,
        "config": dict(pair.config),
        "repeats": repeats,
        "identical_expected": pair.identical_expected,
        "identical": before_fp == after_fp,
        "before": {
            "label": before_label,
            "wall_seconds": round(before_med, 6),
            "cpu_seconds": round(before_cpu, 6),
            "wall_samples": [round(w, 6) for w in before_walls],
        },
        "after": {
            "label": after_label,
            "wall_seconds": round(after_med, 6),
            "cpu_seconds": round(after_cpu, 6),
            "wall_samples": [round(w, 6) for w in after_walls],
        },
        "improvement_pct": round(improvement, 2),
        "improvement_cpu_pct": round(improvement_cpu, 2),
    }


# -- the cluster throughput row ----------------------------------------------


def run_cluster_row(log: LogFn = _silent) -> dict[str, Any]:
    """One sharded-cluster loadtest; end-to-end echo throughput."""
    from ..cluster.config import ClusterConfig
    from ..cluster.loadtest import run_cluster_loadtest

    config = cluster_row_config()
    log("  cluster/loadtest ...")
    start = time.perf_counter()
    report = asyncio.run(run_cluster_loadtest(ClusterConfig(**config)))
    wall = time.perf_counter() - start
    log(f"  cluster/loadtest: {report.load.throughput:.1f} echoes/s")
    return {
        "id": "cluster/loadtest",
        "config": config,
        "deterministic": False,
        "wall_seconds": round(wall, 6),
        "throughput": round(report.load.throughput, 3),
        "echoes": report.load.echoes,
        "survived": report.survived,
    }


# -- top level ---------------------------------------------------------------


def run_bench(
    repeats: int = DEFAULT_REPEATS,
    smoke: bool = False,
    manifest_path: Path = DEFAULT_BENCH_MANIFEST,
    log: LogFn = _silent,
) -> dict[str, Any]:
    """Run the whole pinned matrix into a BENCH report dict.

    ``smoke=True`` runs the reduced CI matrix: deterministic cells
    only, plus the single acceptance pair (interleaved pair timing is
    the one wall measurement robust enough for a CI gate), and no
    cluster row.
    """
    cells = matrix_cells(smoke=smoke)
    log(f"matrix: {len(cells)} cells" + (" (smoke)" if smoke else ""))
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "bench_id": BENCH_ID,
        "matrix_hash": matrix_hash(smoke=smoke),
        "smoke": smoke,
        "repeats": repeats,
        "cells": run_matrix(cells, manifest_path=manifest_path, log=log),
        "pairs": [],
        "cluster": None,
    }
    pairs = pair_cells(smoke=smoke)
    log(f"pairs: {len(pairs)} before/after")
    report["pairs"] = [run_pair(p, repeats=repeats, log=log) for p in pairs]
    if not smoke:
        report["cluster"] = run_cluster_row(log=log)
    return report
