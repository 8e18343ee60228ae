"""The stock Linux 2.3.99-pre4 scheduler (the paper's baseline, "reg").

A faithful re-implementation of the behaviour described in the paper's
section 3 (and the corresponding kernel source):

* the run queue is a single circular queue, unsorted; newly woken tasks
  go to the front;
* ``schedule()`` walks the **whole** queue evaluating ``goodness()`` for
  every runnable task not currently executing on another CPU, keeping
  the first-seen maximum (front-of-queue wins ties);
* the previous task is the initial candidate; a pending SCHED_YIELD
  makes its goodness zero for this pass (and the bit is consumed);
* if the best goodness is exactly zero — at least one runnable task
  exists but every quantum is exhausted (or the lone candidate just
  yielded) — the scheduler **recalculates the counter of every task in
  the system** (``counter = counter//2 + priority``) and rescans;
* an exhausted SCHED_RR previous task is given a fresh quantum and moved
  to the back of the queue before the scan;
* running tasks *stay on the run queue* (``has_cpu`` guards the scan).

Costs are charged per the machine's cost model: a goodness evaluation
per examined task, plus the whole-system recalculation loops.  This is
the O(n)-per-entry, redundant-recalculation design the ELSC scheduler
replaces.

Two run-queue implementations compute the same schedule (``impl=``
selects one; ``tests/bench/test_runqueue_identity.py`` and
``tests/sched/test_vanilla_oracle.py`` pin them bit-identical):

``index`` (default)
    an exact goodness index — the paper's own idea applied to the
    simulator's host code.  The *modelled* kernel still pays its full
    scan: ``examined`` is the number of tasks the scan would have
    evaluated (``prev`` when eligible, plus every queued task not
    running on a CPU), so the cycle charge, every ``SchedStats``
    counter and every fingerprint are those of the walk.  Only the
    host work shrinks.

    Goodness is a *static* weight plus bonuses that depend only on the
    task's ``(processor, mm)`` pair.  Each queued task is filed in the
    *class* of its pair, sorted by a sort key kept in
    ``task.rq_weight``::

        rq_weight = order - (weight << _SHIFT)

        weight    counter + priority   SCHED_OTHER with quantum left
                  0                    quantum exhausted
                  1000 + rt_priority   real-time task
        order     queue position: it decreases on every front insert
                  and move_first_runqueue, increases on every
                  move_last_runqueue

    so a class lists its tasks by weight, highest first, then front of
    queue first.  Every member of a class earns the same bonuses, and
    they never reorder it (a real-time weight beats any bonused one, and
    a zero weight earns none), so ``schedule()`` reads only the first
    non-running task of each class — running tasks, at most one per
    CPU, are skipped in place — adds the +15 affinity and +1 mm bonus of
    the class, and keeps the smallest resulting key: the highest
    goodness, front of queue on a tie.  ``run_list.next`` marks a task
    queued, as for every design; ``run_list.prev`` is its class.

    The index is sound because a *queued, non-running* task's counter,
    processor and mm cannot change: ticks only decrement the counter of
    a task that is some CPU's ``current`` (skipped in place until it
    reappears as ``prev``, which is re-filed when ``schedule()`` is
    entered), a pick moves only the picked task's ``processor``,
    recalculation rewrites every counter (every class is rebuilt in the
    :meth:`recalculate_counters` override), and the parameter syscalls
    and the fault injector's CPU-offline path requeue through
    ``del``/``add``.

``list``
    the historical circular doubly-linked ``ListHead`` walk computing
    goodness from the live task fields on every scan: the paper-faithful
    reference, the before-side of the BENCH before/after pair, and the
    differential oracle of the index.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from ..kernel.listops import ListHead
from ..kernel.params import MM_BONUS, PROC_CHANGE_PENALTY, RT_GOODNESS_BASE
from ..kernel.task import SchedPolicy, Task
from .base import SchedDecision, Scheduler
from .goodness import goodness
from .registry import register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU
    from ..kernel.mm import MMStruct

__all__ = ["VanillaScheduler"]

#: Hard cap on recalculate-and-rescan rounds per schedule() call.  The
#: real kernel needs no such guard (each recalculation strictly raises
#: some counter); this exists to turn a simulator bug into a loud error
#: instead of a hang.
_MAX_REPEATS = 64

#: A sort key holds the weight above bit ``_SHIFT`` and the queue order
#: below it; orders start mid-range and move one step per queue
#: operation, far from either end in any simulation.
_SHIFT = 40
_ORDER_MASK = (1 << _SHIFT) - 1
_ORDER_ORIGIN = 1 << (_SHIFT - 1)
#: Keys of weights 1 .. RT_GOODNESS_BASE - 1, the only ones that earn
#: bonuses, lie in [_BONUS_FLOOR, 0).
_BONUS_FLOOR = -(RT_GOODNESS_BASE - 1) << _SHIFT
_AFFINITY_KEY = PROC_CHANGE_PENALTY << _SHIFT
_SAME_MM_KEY = MM_BONUS << _SHIFT
_SORT_KEY = attrgetter("rq_weight")
#: Stands in for a deciding context without an mm: no class matches it.
_NO_MM = object()


class _Class(list):
    """The queued tasks of one ``(processor, mm)`` pair, by sort key."""

    __slots__ = ("cpu", "mm")


@register_scheduler(
    "reg",
    aliases=("vanilla", "current"),
    summary="the 2.3.99 global-runqueue goodness scan",
)
class VanillaScheduler(Scheduler):
    """The current (2.3.99-pre4) Linux scheduler — Figure 1a's run queue."""

    name = "reg"

    def __init__(self, impl: str = "index") -> None:
        super().__init__()
        if impl not in ("index", "list"):
            raise ValueError(f"impl must be index|list, got {impl!r}")
        self.impl = impl
        self._index = impl == "index"
        #: index impl: the classes, keyed by ``(processor, mm)``.
        self._classes: dict[tuple, _Class] = {}
        #: index impl: the orders of the queue's front and back ends.
        self._front = self._back = _ORDER_ORIGIN
        #: list impl: circular doubly-linked queue head.
        self._head = ListHead()
        self._len = 0

    def reset(self) -> None:
        super().reset()
        self._classes = {}
        self._front = self._back = _ORDER_ORIGIN
        self._head = ListHead()
        self._len = 0

    # -- the index -------------------------------------------------------------

    def _file(self, task: Task, order: int) -> None:
        """Insert ``task`` into its class at queue position ``order``,
        weighed from its live scheduling fields."""
        if task.policy is SchedPolicy.SCHED_OTHER:
            counter = task.counter
            weight = counter + task.priority if counter else 0
        else:
            weight = RT_GOODNESS_BASE + task.rt_priority
        key = order - (weight << _SHIFT)
        task.rq_weight = key
        pair = (task.processor, task.mm)
        cls = self._classes.get(pair)
        if cls is None:
            cls = self._classes[pair] = _Class()
            cls.cpu, cls.mm = pair
        cls.insert(bisect_left(cls, key, key=_SORT_KEY), task)
        task.run_list.prev = cls

    def _unfile(self, task: Task) -> None:
        cls = task.run_list.prev
        del cls[bisect_left(cls, task.rq_weight, key=_SORT_KEY)]
        if not cls:
            del self._classes[cls.cpu, cls.mm]

    def _refile(self, task: Task, order: int) -> None:
        self._unfile(task)
        self._file(task, order)

    def _best_head(
        self, this_cpu: int, this_mm: Optional["MMStruct"]
    ) -> tuple[Optional[Task], int]:
        """The queued task the walk would pick, and its goodness.

        Reads the first non-running task of each class; ``(None,
        -1000)`` when every queued task is running.
        """
        if this_mm is None:
            this_mm = _NO_MM
        best = None
        best_key = _ORDER_MASK + 1
        for cls in self._classes.values():
            task = cls[0]
            if task.has_cpu:
                for task in cls:
                    if not task.has_cpu:
                        break
                else:
                    continue
            key = task.rq_weight
            if _BONUS_FLOOR <= key < 0:
                if cls.cpu == this_cpu:
                    key -= _AFFINITY_KEY
                if cls.mm is this_mm:
                    key -= _SAME_MM_KEY
            if key < best_key:
                best_key = key
                best = task
        if best is None:
            return None, -1000
        return best, -(best_key >> _SHIFT)

    def _queued_running(self, prev: Task) -> int:
        """How many queued tasks are running: each is some CPU's
        current, or ``prev``."""
        running = int(prev.has_cpu and prev.on_runqueue())
        for cpu in self.machine.cpus:
            task = cpu.current
            if task is not prev and task.has_cpu and task.on_runqueue():
                running += 1
        return running

    # -- run-queue manipulation (paper section 3.2) ---------------------------

    def add_to_runqueue(self, task: Task) -> int:
        """Insert at the *front* of the queue (newly woken tasks lead)."""
        if task.on_runqueue():
            raise RuntimeError(f"{task.name} is already on the run queue")
        if self._index:
            self._front -= 1
            self._file(task, self._front)
            task.run_list.next = task.run_list
        else:
            task.run_list.init()
            task.run_list.add(self._head)
        self._len += 1
        self.stats.enqueues += 1
        return self.cost.list_op

    def del_from_runqueue(self, task: Task) -> int:
        if not task.on_runqueue():
            return 0
        if self._index:
            self._unfile(task)
        else:
            task.run_list.del_()
        task.run_list.next = None
        task.run_list.prev = None
        self._len -= 1
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        if not task.in_a_list():
            return
        if self._index:
            self._front -= 1
            self._refile(task, self._front)
        else:
            task.run_list.move(self._head)

    def move_last_runqueue(self, task: Task) -> None:
        if not task.in_a_list():
            return
        if self._index:
            self._back += 1
            self._refile(task, self._back)
        else:
            task.run_list.move_tail(self._head)

    # -- schedule() (paper section 3.3.2) -------------------------------------

    def schedule(self, prev: Task, cpu: "CPU") -> SchedDecision:
        self.stats.schedule_calls += 1
        self.stats.runqueue_len_sum += self._len
        idle = cpu.idle_task
        cost = 0
        examined_total = 0
        recalcs = 0
        recalc_cycles = 0

        # Exhausted round-robin real-time tasks get a fresh quantum and go
        # to the back of the line before the scan.
        if (
            prev is not idle
            and prev.policy is SchedPolicy.SCHED_RR
            and prev.counter == 0
            and prev.is_runnable()
        ):
            prev.counter = prev.priority
            self.move_last_runqueue(prev)

        # A previous task that stopped being runnable leaves the queue.
        if prev is not idle and not prev.is_runnable():
            cost += self.del_from_runqueue(prev)

        prev_eligible = prev is not idle and prev.is_runnable()
        this_cpu = cpu.cpu_id
        this_mm = prev.mm
        index = self._index
        if index:
            if prev is not idle and prev.on_runqueue():
                # prev's counter ticked down (and its processor moved)
                # while it ran; this entry is the first pick that can see
                # it as a non-running task again.
                self._refile(prev, prev.rq_weight & _ORDER_MASK)
            scanned = self._len - self._queued_running(prev)
        other_policy = SchedPolicy.SCHED_OTHER

        for _round in range(_MAX_REPEATS):
            c = -1000
            next_task: Optional[Task] = None
            examined = 0
            if prev_eligible:
                # prev_goodness: a pending yield reads as zero and the bit
                # is consumed, so the post-recalculation rescan sees the
                # task's true goodness.
                if prev.yield_pending:
                    prev.yield_pending = False
                    c = 0
                else:
                    c = goodness(prev, this_cpu, prev.mm)
                next_task = prev
                examined += 1
            if index:
                examined += scanned
                best, weight = self._best_head(this_cpu, this_mm)
                if weight > c:
                    c = weight
                    next_task = best
            else:
                # The walk is goodness() inlined;
                # test_goodness_inline_matches pins the two together.
                head = self._head
                node = head.next
                while node is not head:
                    task = node.owner
                    node = node.next
                    if task.has_cpu:
                        continue  # running somewhere (prev included)
                    examined += 1
                    if task.policy is other_policy:
                        counter = task.counter
                        if counter == 0:
                            weight = 0
                        else:
                            weight = counter + task.priority
                            if task.mm is this_mm and this_mm is not None:
                                weight += 1
                            if task.processor == this_cpu:
                                weight += 15
                    else:
                        weight = 1000 + task.rt_priority
                    if weight > c:
                        c = weight
                        next_task = task
            examined_total += examined
            if c != 0:
                break
            # Every candidate's quantum is spent: recalculate the counter
            # of every task in the system and search again.
            recalc_charge = self.recalculate_counters()
            cost += recalc_charge
            recalc_cycles += recalc_charge
            recalcs += 1
        else:
            raise RuntimeError("vanilla scheduler failed to converge")

        cost += self.cost.vanilla_schedule_cost(examined_total)
        self.stats.tasks_examined += examined_total
        self.stats.scheduler_cycles += cost
        return SchedDecision(
            next_task=next_task,
            cost=cost,
            examined=examined_total,
            recalcs=recalcs,
            eval_cycles=self.cost.goodness_eval * examined_total,
            recalc_cycles=recalc_cycles,
        )

    def recalculate_counters(self) -> int:
        """Recalculate, then rebuild every class from the new counters.

        The rebuild is simulator bookkeeping, not simulated work: the
        cycle charge is the inherited recalc cost, identical for both
        implementations (the bit-identity suites depend on that).
        """
        charge = super().recalculate_counters()
        if self._index:
            queued = [task for cls in self._classes.values() for task in cls]
            self._classes = {}
            for task in queued:
                self._file(task, task.rq_weight & _ORDER_MASK)
        return charge

    # -- introspection --------------------------------------------------------

    def runqueue_len(self) -> int:
        return self._len

    def runqueue_tasks(self) -> list[Task]:
        if self._index:
            queued = [task for cls in self._classes.values() for task in cls]
            queued.sort(key=lambda task: task.rq_weight & _ORDER_MASK)
            return queued
        return [node.owner for node in self._head]
