"""Unit tests for the SchedulerExecutor adapter."""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.harness import SCHEDULERS
from repro.kernel.mm import MMStruct
from repro.kernel.task import SchedPolicy, TaskState
from repro.prof.profiler import Profiler, conservation_errors
from repro.serve import SchedulerExecutor

ALL_SCHEDULERS = sorted(SCHEDULERS)


def make(name="reg", num_cpus=1, smp=False):
    return SchedulerExecutor(SCHEDULERS[name](), num_cpus=num_cpus, smp=smp)


class TestLifecycle:
    def test_registered_handler_starts_blocked(self):
        ex = make()
        task = ex.register("h0")
        assert task.state is TaskState.INTERRUPTIBLE
        assert not ex.has_runnable()
        assert ex.pick() is None

    def test_ready_then_pick_returns_the_handler(self):
        ex = make()
        task = ex.register("h0")
        assert ex.ready(task)
        assert ex.has_runnable()
        assert ex.pick() is task
        assert task.has_cpu
        assert task.processor == 0
        assert task.dispatch_count == 1

    def test_ready_is_deduplicated(self):
        ex = make()
        task = ex.register("h0")
        assert ex.ready(task)
        assert not ex.ready(task)  # spurious wake: already queued
        assert task.wakeup_count == 1

    def test_ready_while_current_just_flips_state(self):
        """The kernel's still-on-runqueue wake: no double insert."""
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.release(task, blocked=True)
        assert task.state is TaskState.INTERRUPTIBLE
        # New work arrives while the task is still cpu.current.
        ex.ready(task)
        assert task.state is TaskState.RUNNING
        # And it is re-pickable on its own CPU.
        assert ex.pick() is task

    def test_deregister_clears_cpu_and_queue(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.deregister(task)
        assert task.exited
        assert ex.live_count() == 0
        assert ex.pick() is None
        # Idempotent.
        ex.deregister(task)

    def test_user_slot_round_trips(self):
        ex = make()
        marker = object()
        task = ex.register("h0", user=marker)
        assert task.user is marker


class TestDispatchSemantics:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_fifo_order_independence_single_handler(self, name):
        ex = make(name)
        task = ex.register("h0")
        ex.ready(task)
        picked = ex.pick()
        assert picked is task
        ex.release(task, blocked=True)
        assert not ex.has_runnable()

    # cfs excluded: fair-share picks by vruntime, not goodness, so the
    # high-priority handler wins *bandwidth*, not necessarily first pick.
    @pytest.mark.parametrize(
        "name", [n for n in ALL_SCHEDULERS if n != "cfs"]
    )
    def test_higher_priority_handler_wins(self, name):
        """Static goodness: the high-priority (large quantum) handler is
        picked over the low-priority one by every goodness-based policy."""
        ex = make(name)
        low = ex.register("low", priority=5)
        high = ex.register("high", priority=35)
        ex.ready(low)
        ex.ready(high)
        assert ex.pick() is high

    def test_released_runnable_handler_is_repicked(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.release(task, blocked=False)  # inbox still has work
        assert ex.has_runnable()
        assert ex.pick() is task

    def test_round_robin_across_virtual_cpus(self):
        """On a 2-CPU executor two ready handlers land on distinct CPUs."""
        ex = make("mq", num_cpus=2, smp=True)
        a = ex.register("a")
        b = ex.register("b")
        ex.ready(a)
        ex.ready(b)
        first = ex.pick()
        second = ex.pick()
        assert {first, second} == {a, b}
        assert first.processor != second.processor

    def test_pick_latency_sampled(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        ex.pick()
        assert len(ex.pick_ns) == ex.picks >= 1
        assert all(ns >= 0 for ns in ex.pick_ns)


class TestQuantumAccounting:
    def test_charge_slice_decrements_counter(self):
        ex = make()
        task = ex.register("h0", priority=3)
        before = task.counter
        ex.charge_slice(task)
        assert task.counter == before - 1
        assert task.ticks_consumed == 1

    def test_expiry_counts_a_preemption(self):
        ex = make()
        task = ex.register("h0", priority=2)
        task.counter = 1
        ex.charge_slice(task)
        assert task.counter == 0
        assert ex.scheduler.stats.preemptions == 1
        # Further slices at zero don't underflow or double-count.
        ex.charge_slice(task)
        assert task.counter == 0
        assert ex.scheduler.stats.preemptions == 1

    def test_sched_fifo_is_untimed(self):
        ex = make()
        task = ex.register(
            "rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=10
        )
        before = task.counter
        ex.charge_slice(task)
        assert task.counter == before

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_exhausted_quanta_recover(self, name):
        """Driving a handler's counter to zero must not wedge any policy:
        the recalculation path hands out fresh quanta."""
        ex = make(name)
        task = ex.register("h0", priority=4)
        ex.ready(task)
        for _ in range(40):
            picked = ex.pick()
            assert picked is task, f"{name} lost the only runnable handler"
            ex.charge_slice(picked)
            ex.release(picked, blocked=False)
        assert task.dispatch_count == 40


class TestMachineBookkeeping:
    """The executor's stats are the Machine's: it runs on one."""

    def test_stats_match_the_machine(self):
        ex = make()
        stats = ex.scheduler.stats
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.charge_slice(task)
        ex.release(task, blocked=True)
        assert ex.pick() is None
        # idle -> h0 and h0 -> idle are both context switches, and each
        # schedule() is a dispatch of CPU 0, as in Machine._dispatch.
        assert stats.switches == 2
        assert stats.idle_schedules == 1
        assert ex.machine.cpus[0].dispatches == 2

        # Two handlers sharing an address space: the second pick after
        # the first one blocks is a same-mm switch.
        mm = MMStruct("shared")
        a = ex.register("a")
        b = ex.register("b")
        a.mm = mm.grab()
        b.mm = mm.grab()
        ex.ready(a)
        assert ex.pick() is a
        ex.release(a, blocked=True)
        ex.ready(b)
        assert ex.pick() is b
        assert stats.picks_same_mm == 1

        # A SCHED_FIFO slice leaves the counter alone but is a tick used.
        rt = ex.register("rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=10)
        counter = rt.counter
        ex.charge_slice(rt)
        assert rt.counter == counter
        assert rt.ticks_consumed == 1

    def test_smp_profile_conserves_cycles_and_imputes_refills(self):
        """A 2P live run under the global lock: lock spin shows up as
        lock_wait, and each migration as one imputed cache refill."""
        prof = Profiler()
        ex = SchedulerExecutor(SCHEDULERS["elsc"](), num_cpus=2, smp=True, prof=prof)
        tasks = [ex.register(f"h{i}") for i in range(4)]
        rng = random.Random(1)
        for _ in range(400):
            if rng.random() < 0.5:
                ex.ready(rng.choice(tasks))
            elif (task := ex.pick()) is not None:
                ex.charge_slice(task)
                ex.release(task, blocked=rng.random() < 0.5)
        ex.machine.probes.flush()
        stats = ex.merged_stats()
        assert stats.migrations > 0 and stats.lock_spin_cycles > 0
        assert conservation_errors(prof, asdict(stats)) == []
        refill = ex.machine.cost.cache_refill
        assert prof.phase_total("migrate") == stats.migrations * refill
