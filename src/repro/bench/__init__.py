"""Perf-trajectory benchmarking: the ``repro bench`` machinery.

The repo's simulated results are deterministic, but *how fast the
simulator produces them* is a first-class deliverable of its own: the
hot-path work (the goodness index, the ELSC array table, probe
batching) only stays honest if every PR can re-measure the same pinned
cell matrix and diff itself against the committed trajectory file.

Three modules:

:mod:`~repro.bench.matrix`
    the pinned cell matrix — which (workload, scheduler, machine,
    config) cells run, which before/after pairs are timed, and the
    content hash that stamps a BENCH file as produced by *this*
    matrix definition.
:mod:`~repro.bench.runner`
    executes the matrix (metered cells through the harness's
    :class:`~repro.harness.runner.ParallelRunner`, before/after pairs
    via interleaved direct timing, plus one cluster-loadtest
    throughput row) into a report dict.
:mod:`~repro.bench.report`
    the schema-versioned ``BENCH_<n>.json`` file format — write, load
    (with a version gate), pick-latency percentiles, and the
    ``compare`` logic with its regression threshold.

See docs/performance.md for the methodology and a worked read-through
of a BENCH file.
"""

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
from .report import (
    compare_reports,
    format_comparison,
    load_report,
    pick_latency_percentiles,
    write_report,
)
from .runner import run_bench

__all__ = [
    "BENCH_ID",
    "SCHEMA_VERSION",
    "BenchCell",
    "BenchPair",
    "cluster_row_config",
    "matrix_cells",
    "matrix_hash",
    "pair_cells",
    "compare_reports",
    "format_comparison",
    "load_report",
    "pick_latency_percentiles",
    "write_report",
    "run_bench",
]
