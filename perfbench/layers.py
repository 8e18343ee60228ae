"""Which public functions belong to which layer, for the traced run.

The layer names match the ``per_layer`` metrics in ``BENCHMARK.json``:
``sched``, ``machine``, ``events``, ``workload`` and ``obs`` on the
simulator; ``codec``, ``socket``, ``executor`` and ``sched`` in the live
server process.
"""

from __future__ import annotations

from typing import Any

from tracing import Tracer

# The installers import what they patch, so that an untraced simulated
# run does not load the live server's modules into the process whose
# memory it measures.

#: Scheduler entry points the kernel and the executor call.
SCHED_METHODS = (
    "schedule",
    "add_to_runqueue",
    "del_from_runqueue",
    "move_first_runqueue",
    "move_last_runqueue",
    "recalculate_counters",
)

#: Probe pipeline delivery points.
OBS_METHODS = (
    "emit_sched",
    "emit_wakeup",
    "emit_dispatch",
    "emit_lock",
    "emit_fault",
    "emit_syscall",
    "flush",
)


def install_sched(tracer: Tracer, scheduler_cls: type) -> None:
    for name in SCHED_METHODS:
        tracer.patch(scheduler_cls, name, "sched")


def install_simulator(tracer: Tracer, scheduler_cls: type) -> None:
    """Trace the simulator layers of one scheduling policy class."""
    from repro.kernel.events import EventQueue
    from repro.kernel.machine import Machine
    from repro.obs.probe import ProbeSet

    install_sched(tracer, scheduler_cls)
    tracer.patch(Machine, "run", "machine")
    for name in ("push", "schedule", "pop"):
        tracer.patch(EventQueue, name, "events")
    for name in OBS_METHODS:
        tracer.patch(ProbeSet, name, "obs")

    spawn = Machine.spawn

    def spawn_traced(machine: Machine, body: Any, *args: Any, **kwargs: Any) -> Any:
        def traced_body(env: Any) -> Any:
            return tracer.generator("workload", body(env))

        return spawn(machine, traced_body, *args, **kwargs)

    tracer.replace_attr(Machine, "spawn", spawn_traced)


def install_server(tracer: Tracer, scheduler_cls: type) -> None:
    """Trace the live server's codec, socket, executor and sched layers."""
    import asyncio

    from repro.serve import protocol
    from repro.serve.executor import SchedulerExecutor

    install_sched(tracer, scheduler_cls)
    tracer.patch(protocol, "encode", "codec")
    tracer.patch(protocol, "decode", "codec")
    tracer.patch(asyncio.StreamWriter, "write", "socket")
    tracer.patch_coroutine(asyncio.StreamWriter, "drain", "socket")
    for name in ("ready", "pick", "charge_slice", "release"):
        tracer.patch(SchedulerExecutor, name, "executor")
