"""Degrade-don't-die serving: overload windows, crashes, deadlines.

Structure-only assertions (counts and invariants), never wall-clock
values — same discipline as ``test_server_live.py``.
"""

from __future__ import annotations

from repro.faults import FaultPlan, FaultSpec
from repro.harness import MACHINE_SPECS, SCHEDULERS
from repro.serve import ServeConfig, SchedulerExecutor, run_serve_loadtest


def _loadtest(sched, spec, **overrides):
    cfg = ServeConfig(
        rooms=1,
        clients_per_room=4,
        messages_per_client=30,
        message_interval_ms=20.0,
        duration_s=4.0,
        **overrides,
    )
    return run_serve_loadtest(SCHEDULERS[sched], MACHINE_SPECS[spec], cfg), cfg


def test_overload_window_sheds_with_retry_after_then_recovers():
    plan = FaultPlan(
        name="ovl",
        faults=(FaultSpec(kind="overload", at_s=0.3, duration_s=0.6,
                          count=0),),
    )
    result, cfg = _loadtest("elsc", "2P", fault_plan=plan.to_config())
    m = result.metrics()
    # Inside the window everything is shed, with a retry-after hint.
    assert m["shed"] > 0
    assert m["shed_retry_after"] == m["shed"]
    # Outside the window service recovered: real completions happened,
    # and everything offered was either served or shed — nothing lost.
    assert m["completed"] > 0
    assert m["completed"] + m["shed"] + m["expired"] == m["sent"]
    assert m["connect_failures"] == 0
    assert m["fault_events"] == 2  # window opened + restored
    assert result.fault_events[0]["kind"] == "overload"


def test_executor_crash_is_supervised_and_nothing_is_lost():
    plan = FaultPlan(
        name="cx", faults=(FaultSpec(kind="executor_crash", at_s=0.3),)
    )
    result, cfg = _loadtest("mq", "2P", fault_plan=plan.to_config())
    m = result.metrics()
    assert m["executor_restarts"] == 1
    assert result.executor.rebuilds == 1
    assert m["completed"] == m["sent"] == cfg.messages_expected
    assert m["shed"] == 0
    # merged_stats spans the rebuild: picks before the crash still count.
    assert result.sim.stats.schedule_calls > 0


def test_request_deadline_expires_stale_queue():
    # A deadline far below dispatch latency: every admitted request ages
    # out and is answered "expired" instead of served late.
    result, cfg = _loadtest("reg", "UP", request_deadline_ms=1e-6)
    m = result.metrics()
    assert m["expired"] > 0
    assert m["completed"] + m["shed"] + m["expired"] == m["sent"]


def test_executor_rebuild_preserves_handlers_directly():
    executor = SchedulerExecutor(SCHEDULERS["elsc"](), num_cpus=2, smp=True,
                                 factory=SCHEDULERS["elsc"])
    tasks = [executor.register(f"s{i}") for i in range(4)]
    for task in tasks[:3]:
        assert executor.ready(task)
    picked = executor.pick()
    assert picked is not None
    before = executor.scheduler.stats.schedule_calls
    executor.inject_crash()
    try:
        executor.pick()
    except RuntimeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("injected crash did not raise")
    executor.rebuild()
    assert executor.rebuilds == 1
    # Every handler survived the rebuild; runnable ones are re-queued.
    assert executor.live_count() == 4
    assert executor.has_runnable()
    assert executor.pick() is not None
    # Retired stats still count toward the merged view.
    merged = executor.merged_stats()
    assert merged.schedule_calls >= before + 1


def test_unplanned_restart_is_recorded_and_fails_loadtest(tmp_path, monkeypatch):
    """A policy that raises once with no fault plan: the server survives,
    records the cause, and ``repro loadtest`` exits nonzero."""
    import json

    from repro.cli import main
    from repro.sched.vanilla import VanillaScheduler

    schedule = VanillaScheduler.schedule
    raised = []

    def schedule_raising_once(self, prev, cpu):
        if not raised:
            raised.append(True)
            raise ValueError("policy bug")
        return schedule(self, prev, cpu)

    monkeypatch.setattr(VanillaScheduler, "schedule", schedule_raising_once)
    out = tmp_path / "loadtest.json"
    rc = main([
        "loadtest", "--scheduler", "reg", "--spec", "UP",
        "--rooms", "1", "--clients", "2", "--messages", "10",
        "--interval-ms", "10", "--duration", "4", "--no-cache",
        "--manifest", str(tmp_path / "manifest.jsonl"), "--json", str(out),
    ])
    assert rc == 1
    m = json.loads(out.read_text())["metrics"]
    assert m["executor_restarts"] == 1
    assert m["completed"] == m["sent"] == 20
    (cause,) = m["restart_causes"]
    assert cause["type"] == "ValueError"
    assert "schedule_raising_once" in cause["traceback"]
    assert "policy bug" in cause["traceback"]
