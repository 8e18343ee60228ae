"""Bit-identity of the fast run queues against the legacy lists.

The hot-path work (sched/vanilla.py's default goodness index,
core/table.py :class:`ELSCRunqueueTable`) is *pure
mechanism*: the BENCH before/after pairs are only honest if the two
sides of each pair compute exactly the same schedule.  These tests run
full workloads through both layouts and require every SchedStats
counter, the run summary, and the workload result to match exactly —
the same standard the probe-pipeline identity suite applies.
"""

from __future__ import annotations

import pytest

from repro.core.elsc import ELSCScheduler
from repro.harness import MACHINE_SPECS
from repro.sched.stats import SchedStats
from repro.sched.vanilla import VanillaScheduler
from repro.workloads.kernbench import KernbenchConfig, run_kernbench
from repro.workloads.volanomark import VolanoConfig, run_volanomark

#: Small but scheduler-busy: several rooms keep the run queue long
#: enough to exercise recalculation, RT paths stay off, yields happen.
VOLANO = {"rooms": 3, "users_per_room": 6, "messages_per_user": 4}
KERNBENCH = {"files": 30, "jobs": 4, "mean_compile_seconds": 0.2,
             "link_seconds": 0.5}

SPECS = ["UP", "4P"]


def _stats_dict(stats: SchedStats) -> dict:
    return {f: getattr(stats, f) for f in SchedStats.__dataclass_fields__}


def _volano_fingerprint(factory, spec_name):
    result = run_volanomark(
        factory, MACHINE_SPECS[spec_name], VolanoConfig(**VOLANO)
    )
    return {
        "stats": _stats_dict(result.sim.stats),
        "throughput": result.throughput,
        "delivered": result.messages_delivered,
        "elapsed": result.elapsed_seconds,
    }


def _kernbench_fingerprint(factory, spec_name):
    result = run_kernbench(
        factory, MACHINE_SPECS[spec_name], KernbenchConfig(**KERNBENCH)
    )
    return {
        "stats": _stats_dict(result.sim.stats),
        "elapsed": result.elapsed_seconds,
    }


@pytest.mark.parametrize("spec_name", SPECS)
def test_vanilla_array_matches_list_volano(spec_name):
    index = _volano_fingerprint(lambda: VanillaScheduler(impl="index"),
                                spec_name)
    linked = _volano_fingerprint(lambda: VanillaScheduler(impl="list"),
                                 spec_name)
    assert index == linked


@pytest.mark.parametrize("spec_name", SPECS)
def test_vanilla_array_matches_list_kernbench(spec_name):
    index = _kernbench_fingerprint(lambda: VanillaScheduler(impl="index"),
                                   spec_name)
    linked = _kernbench_fingerprint(lambda: VanillaScheduler(impl="list"),
                                    spec_name)
    assert index == linked


@pytest.mark.parametrize("spec_name", SPECS)
def test_elsc_array_table_matches_list_table_volano(spec_name):
    array = _volano_fingerprint(
        lambda: ELSCScheduler(table_impl="array"), spec_name
    )
    linked = _volano_fingerprint(
        lambda: ELSCScheduler(table_impl="list"), spec_name
    )
    assert array == linked


@pytest.mark.parametrize("spec_name", SPECS)
def test_elsc_array_table_matches_list_table_kernbench(spec_name):
    array = _kernbench_fingerprint(
        lambda: ELSCScheduler(table_impl="array"), spec_name
    )
    linked = _kernbench_fingerprint(
        lambda: ELSCScheduler(table_impl="list"), spec_name
    )
    assert array == linked


def test_vanilla_rejects_unknown_impl():
    with pytest.raises(ValueError, match="impl"):
        VanillaScheduler(impl="deque")


def test_elsc_rejects_unknown_table_impl():
    with pytest.raises(ValueError, match="table_impl"):
        ELSCScheduler(table_impl="deque")


@pytest.mark.parametrize("spec_name", SPECS)
def test_probe_batch_size_does_not_change_metrics(spec_name):
    """The probe-batch BENCH pair's identity contract: forcing the
    pipeline to per-event emission (batch_size=1) must leave the
    metrics snapshot and the simulation bit-identical."""
    from repro.obs import probe as probe_mod
    from repro.obs.metrics import MetricsProbe

    def metered(batch_size):
        saved = probe_mod.DEFAULT_BATCH_SIZE
        probe_mod.DEFAULT_BATCH_SIZE = batch_size
        try:
            probe = MetricsProbe()
            result = run_volanomark(
                VanillaScheduler,
                MACHINE_SPECS[spec_name],
                VolanoConfig(**VOLANO),
                metrics=probe,
            )
        finally:
            probe_mod.DEFAULT_BATCH_SIZE = saved
        return _stats_dict(result.sim.stats), probe.to_dict()

    assert metered(1) == metered(probe_mod.DEFAULT_BATCH_SIZE)
