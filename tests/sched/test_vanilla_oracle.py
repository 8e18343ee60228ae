"""Differential test: the goodness index against the linked-list walk.

``VanillaScheduler()`` files queued tasks in per-``(processor, mm)``
classes and reads a few class heads per pick; ``impl="list"`` walks the
whole queue computing ``goodness()`` from the live task fields.  Random
operation sequences drive both through identical worlds — real-time and
exhausted tasks, shared and foreign mms, tasks running on other CPUs,
counter ticks, yields, blocking, renices, the fault injector's
CPU-offline re-file and forced recalculations — and every decision and
the queue order must match exactly.  The whole-run fingerprints in
``tests/bench/test_runqueue_identity.py`` never reach most of these
cases.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MMStruct, Task, VanillaScheduler
from repro.kernel.syscalls import sched_setscheduler, set_priority
from repro.kernel.task import SchedPolicy, TaskState
from tests.conftest import attach

POLICIES = {
    "other": SchedPolicy.SCHED_OTHER,
    "fifo": SchedPolicy.SCHED_FIFO,
    "rr": SchedPolicy.SCHED_RR,
}

# Few distinct values, so that goodness ties are common, and few
# real-time tasks, which would win every pick.
task_spec = st.tuples(
    st.sampled_from(["other"] * 6 + ["fifo", "rr"]),
    st.sampled_from([2, 3]),  # priority
    st.sampled_from([0, 1, 2, None]),  # counter; None: a full quantum
    st.integers(1, 3),  # rt_priority, for the real-time policies
    st.sampled_from(["none", "shared", "foreign"]),  # mm
    st.booleans(),  # queued at the start
)

# A yielding or blocking prev drops out of the contest, so that the
# queued candidates' bonuses decide the pick: weight those picks up.
OPS = (
    ("add",) * 3
    + ("del", "move_first", "move_last", "tick", "tick")
    + ("schedule",) * 2
    + ("yield",) * 2
    + ("block",) * 2
    + ("offline", "renice", "setsched", "recalc")
)
op = st.tuples(st.sampled_from(OPS), st.integers(0, 63), st.integers(0, 63))


class World:
    """One machine, scheduler and task set; two worlds are built alike."""

    def __init__(self, impl, num_cpus, specs):
        self.sched = VanillaScheduler(impl=impl)
        self.machine = Machine(self.sched, num_cpus=num_cpus, smp=num_cpus > 1)
        shared, foreign = MMStruct("shared"), MMStruct("foreign")
        mms = {"none": None, "shared": shared, "foreign": foreign}
        self.tasks = []
        for i, (policy, priority, counter, rt, mm, _queued) in enumerate(specs):
            real_time = policy != "other"
            task = Task(
                name=f"t{i}",
                mm=mms[mm],
                priority=priority,
                policy=POLICIES[policy],
                rt_priority=rt if real_time else 0,
            )
            if counter is not None:
                task.counter = counter
            attach(self.machine, task)
            self.tasks.append(task)
        for task, spec in zip(self.tasks, specs):
            if spec[-1]:
                self.sched.add_to_runqueue(task)
            else:
                task.state = TaskState.INTERRUPTIBLE

    def ident(self, task):
        return None if task is None else self.tasks.index(task)

    def queue(self):
        return [self.ident(task) for task in self.sched.runqueue_tasks()]

    def apply(self, name, a, b):
        """Apply one operation; returns a schedule() decision's fields."""
        sched, machine = self.sched, self.machine
        task = self.tasks[a % len(self.tasks)]
        cpu = machine.cpus[a % len(machine.cpus)]
        current = cpu.current
        busy = current is not cpu.idle_task
        if name == "add" and not task.on_runqueue():
            task.state = TaskState.RUNNING
            sched.add_to_runqueue(task)
        elif name == "del" and task.on_runqueue() and not task.has_cpu:
            sched.del_from_runqueue(task)
            task.state = TaskState.INTERRUPTIBLE
        elif name == "move_first":
            sched.move_first_runqueue(task)
        elif name == "move_last":
            sched.move_last_runqueue(task)
        elif name == "tick" and busy:
            # The machine's tick: only a running task's counter moves.
            if current.policy is not SchedPolicy.SCHED_FIFO:
                current.counter = max(current.counter - 1 - b % 3, 0)
        elif name == "yield" and busy:
            current.yield_pending = True
            return self.schedule(cpu)
        elif name == "block" and busy:
            current.state = TaskState.INTERRUPTIBLE
            return self.schedule(cpu)
        elif name == "offline" and busy:
            # faults/injector.py: the displaced task is re-filed.
            current.has_cpu = False
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
            sched.del_from_runqueue(current)
            sched.add_to_runqueue(current)
        elif name == "renice" and task.policy is SchedPolicy.SCHED_OTHER:
            set_priority(machine, task, (1, 2, 3, 20)[b % 4])
        elif name == "setsched":
            policy = (SchedPolicy.SCHED_OTHER, SchedPolicy.SCHED_RR)[b % 2]
            rt = 0 if policy is SchedPolicy.SCHED_OTHER else 1 + b % 3
            sched_setscheduler(machine, task, policy, rt)
        elif name == "recalc":
            sched.recalculate_counters()
        elif name == "schedule":
            return self.schedule(cpu)
        return None

    def schedule(self, cpu):
        """One schedule() plus the machine's dispatch bookkeeping."""
        prev = cpu.current
        decision = self.sched.schedule(prev, cpu)
        prev.has_cpu = False
        nxt = decision.next_task
        if nxt is None:
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
        else:
            nxt.has_cpu = True
            nxt.processor = cpu.cpu_id
            cpu.current = nxt
        return (
            self.ident(nxt),
            decision.examined,
            decision.recalcs,
            decision.cost,
            decision.eval_cycles,
            decision.recalc_cycles,
        )


def _differential(num_cpus, specs, ops):
    index = World("index", num_cpus, specs)
    walk = World("list", num_cpus, specs)
    assert index.queue() == walk.queue()
    for name, a, b in ops:
        decided = index.apply(name, a, b)
        assert decided == walk.apply(name, a, b), (name, a, b)
        assert index.queue() == walk.queue(), (name, a, b)
        assert index.sched.runqueue_len() == walk.sched.runqueue_len()
    assert index.sched.stats == walk.sched.stats


@given(
    st.lists(task_spec, min_size=3, max_size=10),
    st.lists(op, min_size=30, max_size=100),
)
@settings(max_examples=200, deadline=None)
def test_index_matches_walk_up(specs, ops):
    _differential(1, specs, ops)


@given(
    st.lists(task_spec, min_size=3, max_size=14),
    st.lists(op, min_size=30, max_size=100),
)
@settings(max_examples=200, deadline=None)
def test_index_matches_walk_4p(specs, ops):
    _differential(4, specs, ops)
