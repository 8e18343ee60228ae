"""The cluster commands fail on executor restarts that no plan injected.

Supervised recovery keeps a shard serving through a scheduler crash, so
a run with an unexplained restart still "survives".  ``repro cluster
loadtest`` and ``repro cluster chaos`` must nonetheless exit nonzero
for it, unless their fault plan crashes executors on purpose.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.cli import _cluster_restart_gate, main
from repro.cluster.router import ClusterRouter
from repro.faults import resolve_plan


def test_unplanned_shard_restart_fails_cluster_loadtest(
    tmp_path, monkeypatch, capsys
):
    """A real two-shard run in which shard 0's executor crashes with no
    fault plan: the cluster survives, and the command fails."""
    wait_ready = ClusterRouter.wait_ready

    async def wait_ready_then_crash(self, *args, **kwargs):
        await wait_ready(self, *args, **kwargs)
        assert self.send_fault(0, "executor_crash")

    monkeypatch.setattr(ClusterRouter, "wait_ready", wait_ready_then_crash)
    out = tmp_path / "cluster.json"
    rc = main([
        "cluster", "loadtest", "--shards", "2", "--rooms", "4",
        "--clients", "2", "--messages", "5", "--interval-ms", "20",
        "--duration", "8", "--seed", "7", "--json", str(out),
    ])
    payload = json.loads(out.read_text())
    assert payload["survived"]
    assert payload["aggregate"]["executor_restarts"] == 1
    (cause,) = payload["shards"]["0"]["counters"]["restart_causes"]
    assert cause["type"] == "RuntimeError"
    assert rc == 1
    err = capsys.readouterr().err
    assert "[shard-0]" in err and "injected executor crash" in err


def _report(restarts: int) -> SimpleNamespace:
    causes = [{"type": "RuntimeError", "traceback": "tb\n"}] * restarts
    return SimpleNamespace(
        aggregate={"executor_restarts": restarts},
        shards={0: {"counters": {"restart_causes": causes}}},
    )


def test_only_an_executor_crash_plan_excuses_a_restart():
    assert _cluster_restart_gate(_report(0), None) == 0
    assert _cluster_restart_gate(_report(1), None) == 1
    assert _cluster_restart_gate(_report(1), resolve_plan("kill-one-shard")) == 1
    assert _cluster_restart_gate(_report(1), resolve_plan("crash-executor")) == 0
