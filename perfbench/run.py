"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are the ones ``BENCHMARK.json`` names.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it makes the traced run and reports the per-layer metrics.
A layer that a workload does not run reports 0.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run goes to
``.perfbench/runs/`` and a summary to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from benchutil import cpu_pair, pin


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, root: Path) -> tuple[dict[str, Any], tuple]:
    """The workload's report and the layers it does not run."""
    own_cpu, server_cpu = cpu_pair()
    pin(own_cpu)
    if args.workload == "chat-live":
        import live

        absent = ("machine", "events", "workload", "obs", "model")
        if args.trace:
            return live.trace(args.seed, root, server_cpu), absent
        return live.measure(args.seed, args.seconds, root, server_cpu), absent
    import simwork

    absent = ("codec", "socket", "executor", "server", "loadgen")
    if args.trace:
        return simwork.trace(args.workload, args.seed, root), absent
    return simwork.measure(args.workload, args.seed, args.seconds, root), absent


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("no program source at src/repro: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    report, absent = run_workload(args, root)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, dict[str, Any]] = {}
    errors = list(report["detail"].get("errors", []))
    for metric in wanted:
        name = metric["name"]
        value = report["metrics"].get(name)
        if value is None and args.trace and name.split(".")[0] in absent:
            value = 0
        if value is None:
            errors.append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    result = {"correct": not errors, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}

    record = {**result, "errors": errors, "measured": report["metrics"],
              "detail": report["detail"]}
    out = root / ".perfbench" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<28} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
