"""SchedulerExecutor — kernel scheduling policies driving userspace work.

The simulator's :class:`~repro.sched.base.Scheduler` interface is five
functions over :class:`~repro.kernel.task.Task` objects.  Nothing in it
requires simulated time: ``goodness()``, the ELSC tables, and the
multi-queue stealing logic read task fields (``counter``, ``priority``,
``has_cpu``, ``processor``) and CPU identity only.  This module exploits
that to run any registered policy *unmodified* as the dispatch policy of
a live server: each connection handler is mapped to a ``Task``, arrivals
are wakeups, and "which session do we serve next" is answered by the
policy's own ``schedule()``.

The executor owns a real :class:`~repro.kernel.machine.Machine` and
never runs its event loop.  Handler creation, wakeups, picks, quantum
ticks and exits go through the machine's own host steps (``_add_task``,
``_wake``, ``_pick``, ``_charge_tick``, ``_retire``), so the wakeup
dedup, the runqueue-lock model and the dispatch bookkeeping exist once
and a policy cannot tell a socket loop from the simulator.  The
differential conformance test (``tests/serve/``) holds the two hosts to
the same dispatch order for identical arrival traces.

Virtual time advances only by what each pick costs: the machine clock
moves to the end of the pick's context switch.

SMP is modelled with *virtual CPUs*: the asyncio loop is one real
thread, but ``schedule()`` is invoked round-robin over the machine's
CPUs, so per-CPU policies (``mq``, ``o1``) exercise their multi-queue
paths — including migrations by stealing — exactly as they would on
real processors.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Callable, Optional

from ..kernel.cost_model import CostModel
from ..kernel.cpu import CPU
from ..kernel.machine import Machine
from ..kernel.params import DEFAULT_PRIORITY
from ..kernel.task import SchedPolicy, Task, TaskState
from ..obs.probe import DispatchEvent, PreemptEvent
from ..obs.probes import ProfilerProbe
from ..sched.base import Scheduler
from ..sched.stats import SchedStats

__all__ = ["SchedulerExecutor", "MAX_RESTART_CAUSES", "supervise"]

#: Restart causes an executor keeps; its restart count goes on past it.
MAX_RESTART_CAUSES = 8


class SchedulerExecutor:
    """Dispatch userspace work units through a kernel scheduling policy.

    Life cycle of one handler::

        task = executor.register("session-3")      # blocked, no work yet
        executor.ready(task)                       # request arrived
        picked = executor.pick()                   # policy chooses
        ...serve up to `batch` requests...
        executor.charge_slice(picked)              # quantum accounting
        executor.release(picked, blocked=empty)    # back to the queue/bed
        executor.deregister(task)                  # connection closed

    ``pick()`` rotates over the virtual CPUs; a ``None`` return means
    every policy table was empty *for the CPUs tried this round* — use
    :meth:`has_runnable` (not ``pick() is None``) as the wait gate,
    because a runnable handler that is still ``cpu.current`` elsewhere
    is invisible to other CPUs' ``schedule()`` by the kernel contract.

    Probes attach to :attr:`machine` (``executor.machine.attach``).  The
    executor reports the simulated machine's phases: the decision, lock
    and switch charges are the cost model's, and ``migrate`` is the
    *imputed* cache refill of a migrated handler (the live server pays
    them in wall time, not virtual cycles).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        num_cpus: int = 1,
        smp: bool = False,
        cost: Optional[CostModel] = None,
        prof: Optional[object] = None,
        factory: Optional[Callable[[], Scheduler]] = None,
    ) -> None:
        #: How :meth:`rebuild` replaces a crashed policy instance.  The
        #: default assumes a no-argument scheduler class, which every
        #: registered policy satisfies.
        self._factory: Callable[[], Scheduler] = (
            factory if factory is not None else type(scheduler)
        )
        #: Stats of scheduler instances retired by :meth:`rebuild`, so
        #: a supervised restart loses no accounting.
        self._retired_stats: list[SchedStats] = []
        self.rebuilds = 0
        #: Why the first :data:`MAX_RESTART_CAUSES` rebuilds happened.
        self.restart_causes: list[dict[str, str]] = []
        self._crash_next = False
        self.machine = Machine(scheduler, num_cpus=num_cpus, smp=smp, cost=cost)
        if prof is not None:
            self.machine.attach(ProfilerProbe(prof))
        self._cursor = 0
        #: Wall-clock nanoseconds spent in each pick (``schedule()`` plus
        #: its bookkeeping), the live pick-latency metric.
        self.pick_ns: list[int] = []
        self._pick_ns_cap = 1 << 16
        self.picks = 0
        self.idle_picks = 0

    @classmethod
    def from_name(
        cls,
        name: str,
        num_cpus: int = 1,
        smp: bool = False,
        cost: Optional[CostModel] = None,
        prof: Optional[object] = None,
    ) -> "SchedulerExecutor":
        """Build an executor for a registry-named policy (aliases ok).

        The single front door for the serve and cluster layers: the
        name goes through :func:`repro.sched.registry.create`, so any
        scheduler registered anywhere in the process is servable
        without per-layer tables.
        """
        from ..sched.registry import create, get

        info = get(name)
        return cls(
            create(name),
            num_cpus=num_cpus,
            smp=smp,
            cost=cost,
            prof=prof,
            factory=info.factory,
        )

    @property
    def scheduler(self) -> Scheduler:
        """The policy currently bound to the machine."""
        return self.machine.scheduler

    # -- handler lifecycle ---------------------------------------------------

    def register(
        self,
        name: str,
        priority: int = DEFAULT_PRIORITY,
        policy: SchedPolicy = SchedPolicy.SCHED_OTHER,
        rt_priority: int = 0,
        user: object = None,
    ) -> Task:
        """Create the Task standing in for one handler; starts blocked."""
        task = Task(
            name=name, priority=priority, policy=policy, rt_priority=rt_priority
        )
        # A fresh Task is born RUNNING; a fresh handler has no work.
        task.state = TaskState.INTERRUPTIBLE
        task.user = user
        self.machine._add_task(task)
        return task

    def deregister(self, task: Task) -> None:
        """Handler gone (connection closed): off the queue, off a CPU.

        The task also leaves the machine's table, so a long-running
        server holds only its live handlers.
        """
        if task.exited:
            return
        machine = self.machine
        for cpu in machine.cpus:
            if cpu.current is task:
                cpu.current = cpu.idle_task
                cpu.idle_task.has_cpu = True
        task.has_cpu = False
        machine._retire(task)
        del machine._tasks[task.pid]

    def ready(self, task: Task) -> bool:
        """Work arrived for ``task``; returns True if it was enqueued.

        The kernel's wakeup: a task already runnable on the queue is a
        spurious wake; a task still ``on_runqueue`` (it is somebody's
        ``current``) just flips back to RUNNING.
        """
        machine = self.machine
        return machine._wake(task, machine.clock.now) is not None

    # -- dispatch ------------------------------------------------------------

    def pick(self) -> Optional[Task]:
        """Ask the policy for the next handler to serve.

        Tries each virtual CPU once, round-robin, and returns the first
        non-idle decision; ``None`` when every try came back idle.
        """
        cpus = self.machine.cpus
        ncpu = len(cpus)
        for _ in range(ncpu):
            cpu = cpus[self._cursor]
            self._cursor = (self._cursor + 1) % ncpu
            task = self._pick_on(cpu)
            if task is not None:
                return task
        return None

    def _pick_on(self, cpu: CPU) -> Optional[Task]:
        if self._crash_next:
            # Chaos hook (repro.faults): the adapter blows up out of a
            # pick, exactly like a policy bug would, and the server's
            # supervisor is expected to rebuild() us.
            self._crash_next = False
            raise RuntimeError("injected executor crash (fault plan)")
        machine = self.machine
        self.picks += 1
        t0 = time.perf_counter_ns()
        end = machine._pick(cpu, machine.clock.now)
        elapsed = time.perf_counter_ns() - t0
        if len(self.pick_ns) < self._pick_ns_cap:
            self.pick_ns.append(elapsed)
        machine.clock.advance_to(end)
        task = cpu.current
        if task is cpu.idle_task:
            self.idle_picks += 1
            return None
        if task.cache_cold:
            # A migrated handler refills its cache as it starts, which
            # the simulator charges on its first Run.
            task.cache_cold = False
            probes = machine.probes
            if probes.dispatch:
                probes.emit_dispatch(
                    DispatchEvent(end, cpu.cpu_id, task, machine.cost.cache_refill)
                )
        return task

    # -- slice accounting ------------------------------------------------------

    def charge_slice(self, task: Task) -> None:
        """One dispatch slice consumed: the tick handler's quantum math.

        The slice that takes the counter to zero is recorded as a
        quantum-expiry preemption, the event the simulator's tick path
        counts.
        """
        machine = self.machine
        had_quantum = task.counter > 0
        if machine._charge_tick(task, task.processor) and had_quantum:
            machine.scheduler.stats.preemptions += 1
            if machine.probes.sched:
                machine.probes.emit_sched(
                    PreemptEvent(machine.clock.now, task.processor, task, 0)
                )

    def release(self, task: Task, blocked: bool) -> None:
        """Return a served handler to the policy's jurisdiction.

        The task stays ``cpu.current`` / ``has_cpu`` until the next
        ``schedule()`` on that CPU — exactly the kernel's window between
        a task blocking and its CPU switching away.  ``blocked=True``
        when the handler's inbox is empty.
        """
        if task.exited:
            return
        task.state = (
            TaskState.INTERRUPTIBLE if blocked else TaskState.RUNNING
        )

    # -- supervision -----------------------------------------------------------

    def inject_crash(self) -> None:
        """Arm a one-shot crash: the next ``pick()`` raises."""
        self._crash_next = True

    def record_restart(self, exc: BaseException) -> None:
        """Note why a supervisor is about to rebuild this executor.

        Keeps the exception type and the innermost frames of its
        traceback for the first :data:`MAX_RESTART_CAUSES` restarts, so
        that a restart nobody injected can be told from one a fault plan
        asked for.
        """
        if len(self.restart_causes) < MAX_RESTART_CAUSES:
            lines = traceback.format_exception(
                type(exc), exc, exc.__traceback__, limit=-3
            )
            self.restart_causes.append(
                {"type": type(exc).__name__, "traceback": "".join(lines)}
            )

    def rebuild(self) -> None:
        """Replace a crashed scheduler instance, preserving every handler.

        The dead instance's stats are retired (``merged_stats`` still
        counts them), a fresh policy is built and bound, the virtual
        CPUs are reset to idle, every surviving task's runqueue linkage
        is cleared, and the runnable ones are re-enqueued — the live
        analogue of rebuilding the runqueue after a scheduler hot-swap.
        """
        self._retired_stats.append(self.scheduler.stats)
        machine = self.machine
        for cpu in machine.cpus:
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
        for task in machine._tasks.values():
            # Old policy's intrusive links are garbage now: unlink.
            task.has_cpu = False
            task.run_list.next = None
            task.run_list.prev = None
        machine._bind(self._factory())
        for task in machine._tasks.values():
            if task.state is TaskState.RUNNING:
                machine.scheduler.add_to_runqueue(task)
        self.rebuilds += 1

    def merged_stats(self) -> SchedStats:
        """Stats across the current scheduler and every retired one."""
        total = self.scheduler.stats
        for retired in self._retired_stats:
            total = total.merged_with(retired)
        return total

    # -- introspection ---------------------------------------------------------

    def has_runnable(self) -> bool:
        """True while any registered handler is runnable (the wait gate)."""
        return any(
            t.state is TaskState.RUNNING for t in self.machine._tasks.values()
        )

    def live_count(self) -> int:
        return self.machine.live_count()

    def __repr__(self) -> str:
        return (
            f"<SchedulerExecutor {self.scheduler.name} "
            f"cpus={len(self.machine.cpus)} live={self.live_count()} "
            f"picks={self.picks}>"
        )


async def supervise(
    executor: SchedulerExecutor,
    work: asyncio.Event,
    serve: Callable[[Task], None],
) -> None:
    """The supervised dispatch loop of a live host.

    Picks a handler whenever one is runnable and hands it to ``serve``,
    sleeping on ``work`` (set by the host on every arrival) while
    nothing is.  An exception out of a pick or a serve is survived, not
    fatal: the executor records the cause and rebuilds with every
    handler intact.  The restart is the metric, not the end.  Between
    dispatches the loop yields to the event loop, so readers and
    writers make progress — the "timer tick" of this userspace kernel.
    """
    while True:
        if not executor.has_runnable():
            work.clear()
            # Re-check: a ready() may have raced the clear.
            if not executor.has_runnable():
                await work.wait()
            continue
        try:
            task = executor.pick()
            if task is not None:
                serve(task)
            # else: runnable exists but this rotation found nothing
            # pickable (transient in multi-CPU configurations).
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — supervised: degrade, don't die
            executor.record_restart(exc)
            executor.rebuild()
        await asyncio.sleep(0)
