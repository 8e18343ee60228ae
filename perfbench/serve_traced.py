"""Run ``repro serve`` with the live layers traced.

Usage: ``python3 perfbench/serve_traced.py STEM SERVE-ARGS...``, where
SERVE-ARGS are the arguments of ``python -m repro`` (``serve ...``).
When the server stops on SIGINT, the per-span-name totals, the
tracing cost per span, the server's counters, the scheduler's
statistics and the server CPU time since it began accepting are
written to ``STEM.json`` and the spans to ``STEM.spans``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import layers
from tracing import Overhead, Tracer


def main(argv: list[str]) -> int:
    stem, serve_args = Path(argv[0]), argv[1:]
    from repro import cli
    from repro.harness.registry import SCHEDULERS
    from repro.serve.server import ChatServer

    scheduler = serve_args[serve_args.index("--scheduler") + 1]
    overhead = Overhead.measure()
    tracer = Tracer()
    layers.install_server(tracer, type(SCHEDULERS[scheduler]()))
    servers: list[ChatServer] = []
    ready_cpu = [0.0]
    start = ChatServer.start

    async def start_traced(server: ChatServer, *args: object, **kwargs: object) -> None:
        await start(server, *args, **kwargs)
        servers.append(server)
        ready_cpu[0] = time.process_time()

    ChatServer.start = start_traced  # type: ignore[method-assign]
    status = cli.main(serve_args)
    cpu = time.process_time() - ready_cpu[0]
    server = servers[0]
    executor = server.executor
    tracer.write(stem, {
        "totals": tracer.totals(),
        "overhead": overhead.to_dict(),
        "cpu_s": cpu,
        "counters": server.counters(),
        "sched_stats": dataclasses.asdict(executor.merged_stats()),
        "executor": {"picks": executor.picks, "idle_picks": executor.idle_picks},
    })
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
