"""The task structure — the paper's Table 1, plus simulator bookkeeping.

Linux 2.3 uses a one-to-one thread model: every user thread is a kernel
task, and the scheduler treats threads and processes identically.  The
fields the paper's Table 1 lists as scheduler-relevant are reproduced
with their kernel names and semantics:

=================  =====================================================
``state``          one of six :class:`TaskState` values
``policy``         :class:`SchedPolicy` plus the ``SCHED_YIELD`` bit
``counter``        ticks remaining in the current quantum (0..2*priority)
``priority``       SCHED_OTHER priority, 1..40, default 20
``mm``             pointer to the shared :class:`~repro.kernel.mm.MMStruct`
``run_list``       intrusive node linking the task into the run queue
``has_cpu``        1 while executing on a processor
``processor``      CPU id the task runs/last ran on (affinity bonus)
``rt_priority``    real-time priority 0..99 (separate field)
=================  =====================================================

A task's *behaviour* is a Python generator yielding
:mod:`~repro.kernel.actions` objects; the machine resumes the generator
as actions complete.  This keeps workload authorship declarative ("run
50 µs, send a message, block on a read") while the kernel side stays in
charge of time, blocking, and scheduling.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .listops import ListHead
from .params import (
    DEFAULT_PRIORITY,
    MAX_PRIORITY,
    MAX_RT_PRIORITY,
    MIN_PRIORITY,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .actions import Action
    from .mm import MMStruct

__all__ = ["Task", "TaskState", "SchedPolicy", "TaskBody", "SCHED_YIELD"]

#: Bit OR-ed into ``policy`` while a sys_sched_yield is pending.
SCHED_YIELD: int = 0x10

_pids = itertools.count(1)

#: Type of a task body: a generator function taking the kernel handle.
TaskBody = Callable[..., Generator["Action", Any, None]]


class TaskState(enum.Enum):
    """The six task states of Linux 2.3 (paper section 3.1)."""

    RUNNING = 0          # runnable (possibly executing)
    INTERRUPTIBLE = 1    # blocked, wakeable by signal
    UNINTERRUPTIBLE = 2  # blocked, not wakeable by signal
    ZOMBIE = 4           # exited, awaiting reaping
    STOPPED = 8          # stopped by job control / ptrace
    SWAPPING = 16        # historical swap state


class SchedPolicy(enum.IntEnum):
    """Scheduling classes (paper section 3.1)."""

    SCHED_OTHER = 0  # normal time-sharing tasks
    SCHED_FIFO = 1   # real-time, run to completion/block
    SCHED_RR = 2     # real-time, round-robin within priority


class Task:
    """One schedulable execution context (thread or process alike)."""

    __slots__ = (
        "pid",
        "name",
        "state",
        "policy",
        "yield_pending",
        "counter",
        "priority",
        "rt_priority",
        "mm",
        "run_list",
        "rq_weight",
        "has_cpu",
        "processor",
        # -- simulator-side fields ------------------------------------
        "body",
        "gen",
        "current_action",
        "send_value",
        "cache_cold",
        "wait_node",
        "exited",
        "exit_callbacks",
        # -- accounting ------------------------------------------------
        "cpu_cycles",
        "dispatch_count",
        "migration_count",
        "yield_count",
        "wakeup_count",
        "ticks_consumed",
        "user",
    )

    def __init__(
        self,
        name: str = "",
        mm: Optional["MMStruct"] = None,
        priority: int = DEFAULT_PRIORITY,
        policy: SchedPolicy = SchedPolicy.SCHED_OTHER,
        rt_priority: int = 0,
        body: Optional[TaskBody] = None,
    ) -> None:
        if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
            raise ValueError(f"priority {priority} outside {MIN_PRIORITY}..{MAX_PRIORITY}")
        if not 0 <= rt_priority <= MAX_RT_PRIORITY:
            raise ValueError(f"rt_priority {rt_priority} outside 0..{MAX_RT_PRIORITY}")
        if policy is not SchedPolicy.SCHED_OTHER and rt_priority == 0:
            # The kernel permits rt_priority 0 for RT tasks but it is
            # almost always a configuration error in workloads; keep it
            # legal but visible.
            pass
        self.pid = next(_pids)
        self.name = name or f"task{self.pid}"
        self.state = TaskState.RUNNING
        self.policy = policy
        #: The SCHED_YIELD bit of the kernel's ``policy`` field, kept as a
        #: separate boolean for clarity; :meth:`policy_word` recombines it.
        self.yield_pending = False
        self.priority = priority
        self.rt_priority = rt_priority
        self.counter = priority  # a fresh task gets one full quantum
        self.mm = mm.grab() if mm is not None else None
        self.run_list = ListHead(owner=self)
        # ``next is None`` means "not on the run queue" in the stock
        # scheduler; start unlinked.
        self.run_list.next = None
        self.run_list.prev = None
        #: Scheduler scratch: the vanilla goodness index keeps the
        #: task's sort key here (see sched/vanilla.py for the encoding
        #: and the refresh discipline).  Like ``run_list``, this is
        #: policy-owned state living on the task struct.
        self.rq_weight = 0
        self.has_cpu = False
        self.processor = -1  # never ran anywhere yet

        self.body = body
        self.gen: Optional[Generator["Action", Any, None]] = None
        self.current_action: Optional["Action"] = None
        self.send_value: Any = None
        #: True when the task's next run must pay the cache-refill
        #: penalty because its last dispatch moved it across CPUs.
        self.cache_cold = False
        #: Wait-queue node while blocked (owned by waitqueue.py).
        self.wait_node: Optional[Any] = None
        self.exited = False
        self.exit_callbacks: list[Callable[["Task"], None]] = []

        self.cpu_cycles = 0
        self.dispatch_count = 0
        self.migration_count = 0
        self.yield_count = 0
        self.wakeup_count = 0
        self.ticks_consumed = 0
        #: Free-form slot for workload-level per-task state.
        self.user: Any = None

    # -- kernel-field helpers ----------------------------------------------

    def policy_word(self) -> int:
        """The raw ``policy`` field value including the SCHED_YIELD bit."""
        return int(self.policy) | (SCHED_YIELD if self.yield_pending else 0)

    def is_realtime(self) -> bool:
        """True for SCHED_FIFO and SCHED_RR tasks."""
        return self.policy is not SchedPolicy.SCHED_OTHER

    def is_runnable(self) -> bool:
        return self.state is TaskState.RUNNING and not self.exited

    def on_runqueue(self) -> bool:
        """Kernel convention: a live ``next`` pointer means "on the run queue".

        Note the ELSC twist (paper section 5.1): a task may be *on the run
        queue* in this sense while not resident in any table list (its
        ``prev`` is then ``None``).
        """
        return self.run_list.next is not None

    def in_a_list(self) -> bool:
        """True when the task is physically linked into some list."""
        return self.run_list.next is not None and self.run_list.prev is not None

    def static_goodness(self) -> int:
        """The paper's *static goodness*: ``counter + priority``.

        Constant while the task sits on the run queue (its counter only
        ticks down while it executes), which is exactly what lets ELSC
        keep the run queue sorted.
        """
        return self.counter + self.priority

    # -- lifecycle -----------------------------------------------------------

    def start(self, kernel_handle: Any) -> None:
        """Instantiate the body generator; called once at task creation."""
        if self.body is None:
            raise ValueError(f"{self.name} has no body to start")
        if self.gen is not None:
            raise RuntimeError(f"{self.name} already started")
        self.gen = self.body(kernel_handle)

    def mark_exited(self) -> None:
        self.exited = True
        self.state = TaskState.ZOMBIE
        if self.mm is not None:
            self.mm.drop()
        for callback in self.exit_callbacks:
            callback(self)
        self.exit_callbacks.clear()

    def __repr__(self) -> str:
        flags = []
        if self.has_cpu:
            flags.append(f"cpu{self.processor}")
        if self.yield_pending:
            flags.append("YIELD")
        extra = (" " + ",".join(flags)) if flags else ""
        return (
            f"<Task {self.name} pid={self.pid} {self.state.name}"
            f" prio={self.priority} ctr={self.counter}{extra}>"
        )
