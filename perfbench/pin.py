"""Write ``pins.json``: the fingerprint and counts of each simulated
workload for every seed in ``simwork.PINNED_SEEDS``.

    python3 perfbench/pin.py

Run it from the root of a checkout, and only when a change is meant to
alter what the simulator computes; the benchmark fails every pinned
seed whose result no longer matches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import simwork  # noqa: E402


def main() -> int:
    pins = {}
    for name, w in simwork.WORKLOADS.items():
        seeds = {}
        for seed in simwork.PINNED_SEEDS:
            run = simwork.simulate(w, seed)
            seeds[str(seed)] = {"fingerprint": run.fingerprint(), "counts": run.counts()}
            print(f"{name} seed {seed}: {run.wall_s:.2f}s {run.counts()}", file=sys.stderr)
        pins[name] = {"config": simwork.config_doc(w), "seeds": seeds}
    simwork.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
