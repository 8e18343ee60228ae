"""The simulated workloads: ``volano-scan`` and ``kernbench-fork``.

Both drive the public workload entry points (``run_volanomark``,
``run_kernbench``) on a fixed input made from the seed, time whole
simulations, and check every result: completion (the entry points raise
on a deadlock, a lost message or a missing object), identical results
for every simulation of one input, the fingerprint pinned in
``pins.json`` for that seed, and the profiler's cycle conservation.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable, Optional

from repro.harness.registry import MACHINE_SPECS, SCHEDULERS
from repro.kernel.simulator import make_machine
from repro.obs.metrics import MetricsProbe
from repro.prof import Profiler, conservation_errors
from repro.workloads import (
    Kernbench,
    KernbenchConfig,
    VolanoConfig,
    VolanoMark,
    run_kernbench,
    run_volanomark,
)

import layers
from benchutil import GAP_LOOPS, SpeedTrack, peak_rss_mb, percentile
from tracing import Overhead, Tracer

PINS_PATH = Path(__file__).with_name("pins.json")

#: Set-ups timed per run: each imports the simulator in a fresh
#: interpreter, then builds and populates a machine.
SETUP_SAMPLES = 15
#: Distinct inputs of one run; the timed simulations go through all of
#: them in whole rounds.
INPUTS_PER_RUN = 4
#: Seeds whose fingerprints ``pins.json`` holds.
PINNED_SEEDS = range(0, 41)

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import repro.workloads, repro.harness.registry, repro.obs.metrics; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    scheduler: str
    machine: str
    #: Attach a MetricsProbe the way ``repro sweep --metrics`` does.
    metered: bool
    #: The workload config for a seed.
    config: Callable[[int], Any]
    run: Callable[..., Any]
    bench_cls: type


WORKLOADS = {
    "volano-scan": SimWorkload(
        name="volano-scan",
        scheduler="reg",
        machine="4P",
        metered=True,
        config=lambda seed: VolanoConfig(
            rooms=20, users_per_room=30, messages_per_user=1, seed=seed
        ),
        run=run_volanomark,
        bench_cls=VolanoMark,
    ),
    "kernbench-fork": SimWorkload(
        name="kernbench-fork",
        scheduler="elsc",
        machine="4P",
        metered=False,
        config=lambda seed: KernbenchConfig(files=1500, jobs=4, seed=seed),
        run=run_kernbench,
        bench_cls=Kernbench,
    ),
}


@dataclass
class Simulation:
    seed: int
    wall_s: float
    cpu_s: float
    result: Any
    probe: Optional[MetricsProbe]
    track: Optional[SpeedTrack]
    #: Host nanoseconds of each ``schedule()`` call, when tracked.
    pick_ns: list[int]

    @property
    def pick_mean_ms(self) -> float:
        """Mean host time of a ``schedule()`` call, scaled by the track."""
        return sum(self.pick_ns) / len(self.pick_ns) * self.track.factor / 1e6

    @property
    def events(self) -> int:
        return self.result.sim.summary.events_handled

    def counts(self) -> dict[str, int]:
        """Host-independent counts of this simulation."""
        stats = self.result.sim.stats
        return {
            "events": self.events,
            "picks": stats.schedule_calls,
            "examined": stats.tasks_examined,
            "enqueues": stats.enqueues,
            "recalcs": stats.recalc_entries,
            "model_cycles": self.result.sim.summary.cycles,
        }

    def fingerprint(self) -> str:
        """Digest of SchedStats, run summary, payload and probe metrics."""
        sim = self.result.sim
        summary = sim.summary
        doc = {
            "stats": dataclasses.asdict(sim.stats),
            "summary": {
                name: getattr(summary, name)
                for name in ("cycles", "events_handled", "tasks_total",
                             "tasks_exited", "tasks_blocked", "deadlocked")
            },
            "payload": sim.payload,
            "metrics": self.probe.snapshot() if self.probe is not None else None,
        }
        text = json.dumps(doc, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()


def simulate(w: SimWorkload, seed: int, tracked: bool = False) -> Simulation:
    """One simulation of the workload's input for ``seed``.

    ``tracked`` times every ``schedule()`` call (two clock reads per
    decision) and samples the host speed all through the simulation
    with a :class:`SpeedTrack`, whose loops ``wall_s`` and ``cpu_s``
    then leave out.
    """
    probe = MetricsProbe() if w.metered else None
    config = w.config(seed)
    factory = SCHEDULERS[w.scheduler]
    spec = MACHINE_SPECS[w.machine]
    sched_cls = type(factory())
    schedule = sched_cls.schedule
    track = SpeedTrack() if tracked else None
    pick_ns: list[int] = []
    if track is not None:
        now = time.perf_counter_ns

        def timed_schedule(self: Any, prev: Any, cpu: Any) -> Any:
            start = now()
            decision = schedule(self, prev, cpu)
            end = now()
            pick_ns.append(end - start)
            track.poll(end)
            return decision

        sched_cls.schedule = timed_schedule
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = w.run(factory, spec, config, metrics=probe)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
    finally:
        sched_cls.schedule = schedule
    if track is not None:
        wall, cpu = wall - track.loops_s, cpu - track.loops_s
    return Simulation(seed, wall, cpu, result, probe, track, pick_ns)


def load_pins(w: SimWorkload) -> dict[str, Any]:
    pins = json.loads(PINS_PATH.read_text())[w.name]
    if pins["config"] != config_doc(w):
        raise SystemExit(f"{PINS_PATH.name}: {w.name} config differs from the workload")
    if sorted(map(int, pins["seeds"])) != list(PINNED_SEEDS):
        raise SystemExit(f"{PINS_PATH.name}: {w.name} seeds differ from PINNED_SEEDS")
    return pins


def config_doc(w: SimWorkload) -> dict[str, Any]:
    """The workload's input definition, as pinned (seed left out)."""
    config = dataclasses.asdict(w.config(0))
    config.pop("seed")
    return {"scheduler": w.scheduler, "machine": w.machine,
            "metered": w.metered, **config}


# -- set-up ------------------------------------------------------------------


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter takes to import the simulator."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def populate_seconds(w: SimWorkload, seed: int) -> float:
    """Seconds from an empty machine to a populated one, before any event."""
    start = time.perf_counter()
    bench = w.bench_cls(w.config(seed))
    machine = make_machine(SCHEDULERS[w.scheduler](), MACHINE_SPECS[w.machine])
    if w.metered:
        machine.attach(MetricsProbe())
    bench.populate(machine)
    return time.perf_counter() - start


def setup_seconds(w: SimWorkload, seed: int, root: Path) -> tuple[float, float]:
    """Seconds of one set-up: the import, then the populate.  The
    populate starts on a collected heap, so that no sample pays for a
    garbage collection of earlier samples' machines."""
    imported = import_seconds(root)
    gc.collect()
    return imported, populate_seconds(w, seed)


# -- the runs ----------------------------------------------------------------


class Checker:
    """Runs simulations as operations that may fail, and checks each.

    A simulation fails when the entry point raises (deadlock, lost
    message, missing object), when its fingerprint differs from an
    earlier simulation of the same input, or when it differs from the
    one pinned for its seed.
    """

    def __init__(self, w: SimWorkload) -> None:
        self.pins = {int(k): v["fingerprint"] for k, v in load_pins(w)["seeds"].items()}
        self.fingerprints: dict[int, str] = {}
        self.attempted = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def attempt(self, w: SimWorkload, seed: int,
                tracked: bool = False) -> Optional[Simulation]:
        self.attempted += 1
        try:
            run = simulate(w, seed, tracked)
        except Exception as exc:  # noqa: BLE001 — a failed operation, not a crash
            self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        digest = run.fingerprint()
        expected = self.fingerprints.setdefault(seed, digest)
        if digest != expected:
            self.errors.append(f"seed {seed}: result differs between repeats")
        elif seed in self.pins and digest != self.pins[seed]:
            self.errors.append(f"seed {seed}: fingerprint {digest[:16]} "
                               f"!= pinned {self.pins[seed][:16]}")
        return run


def verify(w: SimWorkload, seed: int, checker: Checker,
           reference: Optional[Simulation]) -> None:
    """An untimed run with the profiler attached: checks cycle
    conservation and that profiling changed no SchedStats counter."""
    checker.attempted += 1
    prof = Profiler()
    try:
        result = w.run(SCHEDULERS[w.scheduler], MACHINE_SPECS[w.machine],
                       w.config(seed), prof=prof)
    except Exception as exc:  # noqa: BLE001
        checker.errors.append(f"verification run: {type(exc).__name__}: {exc}")
        return
    stats = dataclasses.asdict(result.sim.stats)
    errors = conservation_errors(prof, stats)
    if reference is not None and stats != dataclasses.asdict(reference.result.sim.stats):
        errors.append("profiled run's SchedStats differ from the timed runs'")
    checker.errors.extend(f"verification run: {e}" for e in errors)


def measure(name: str, seed: int, seconds: float, root: Path) -> dict[str, Any]:
    """Untraced run: the end-to-end metrics.

    Timed simulations go in whole rounds through the inputs of seeds
    ``seed`` to ``seed + INPUTS_PER_RUN - 1``, so every input weighs the
    same in the median however many rounds fit in ``seconds``, and one
    run's median does not rest on the scheduling luck of a single input.
    """
    w = WORKLOADS[name]
    checker = Checker(w)
    setup_track = SpeedTrack()
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(setup_seconds(w, seed, root))
        setup_track.sample(GAP_LOOPS)

    # One warm-up simulation lets lazy imports and allocator growth
    # finish; then whole rounds run until the next one would overrun
    # the measuring time (at least one round runs).
    checker.attempt(w, seed)
    rss = peak_rss_mb()
    timed: list[Simulation] = []
    start = time.perf_counter()
    rounds = 0
    while checker.failed == 0:
        for k in range(INPUTS_PER_RUN):
            run = checker.attempt(w, seed + k, tracked=True)
            if run is None:
                break
            timed.append(run)
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break
    verify(w, seed, checker, timed[0] if timed else None)

    metrics: dict[str, float] = {
        "setup_s": median([imp + pop for imp, pop in setups]) * setup_track.factor,
        "peak_rss_mb": rss,
    }
    pick_ms = [ns * r.track.factor / 1e6 for r in timed for ns in r.pick_ns]
    if timed:
        metrics["host_s"] = median([r.wall_s * r.track.factor for r in timed])
        metrics["cpu_us_per_op"] = median([r.cpu_s * r.track.factor / r.events * 1e6
                                           for r in timed])
        metrics["lat_p50_ms"] = median([r.pick_mean_ms for r in timed])
        metrics["lat_p99_ms"] = percentile(pick_ms, 99)
    detail = {
        "workload": name,
        "seed": seed,
        "fingerprints": checker.fingerprints,
        "pinned": sorted(set(checker.fingerprints) & set(checker.pins)),
        "errors": checker.errors,
        "samples": {
            "input_seed": [r.seed for r in timed],
            "wall_s": [r.wall_s for r in timed],
            "cpu_s": [r.cpu_s for r in timed],
            "speed_factor": [r.track.factor for r in timed],
            "track_loops_s": [r.track.loops for r in timed],
            "rounds": rounds,
            "import_s": [imp for imp, _ in setups],
            "populate_s": [pop for _, pop in setups],
            "setup_calibration_s": setup_track.loops,
            "picks_timed": len(pick_ms),
            "pick_mean_ms": [r.pick_mean_ms for r in timed],
        },
        "counts": {r.seed: r.counts() for r in timed},
    }
    return {"attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics, "detail": detail}


def trace(name: str, seed: int, root: Path) -> dict[str, Any]:
    """Traced run: the per-layer metrics and the tracing overhead."""
    w = WORKLOADS[name]
    checker = Checker(w)
    checker.attempt(w, seed)  # warm-up
    track = SpeedTrack()
    baseline = checker.attempt(w, seed)
    track.sample(GAP_LOOPS)
    overhead = Overhead.measure()
    tracer = Tracer()
    layers.install_simulator(tracer, type(SCHEDULERS[w.scheduler]()))
    try:
        traced = checker.attempt(w, seed)
    finally:
        tracer.restore()
    track.sample(GAP_LOOPS)
    totals = tracer.totals()
    tracer.write(root / ".perfbench" / "trace" / f"{name}-seed{seed}",
                 {"totals": totals, "overhead": overhead.to_dict()})
    metrics: dict[str, float] = {}
    if baseline is not None and traced is not None:
        metrics = layer_metrics(totals, overhead, traced, track.factor, baseline.wall_s)
    detail = {"workload": name, "seed": seed, "errors": checker.errors,
              "totals": totals, "overhead": overhead.to_dict()}
    return {"attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics, "detail": detail}


def layer_metrics(totals: dict[str, dict[str, int]], overhead: Overhead,
                  traced: Simulation, factor: float, baseline_s: float) -> dict[str, float]:
    """Layer shares of the traced simulation, without the tracing cost."""
    untraced_wall = traced.wall_s - overhead.total_ns(totals) / 1e9
    selfs = Tracer.layer_self_seconds(totals, overhead)
    stats = traced.result.sim.stats
    picks = stats.schedule_calls

    def pct(layer: str) -> float:
        return 100.0 * selfs.get(layer, 0.0) / untraced_wall

    def calls(key: str) -> int:
        return totals.get(key, {}).get("calls", 0)

    return {
        "sched.self_pct": pct("sched"),
        "sched.picks": picks,
        "sched.us_per_pick": overhead.self_ns(totals["sched.schedule"]) * factor
        / picks / 1e3,
        "sched.enqueues": stats.enqueues,
        "sched.recalcs": stats.recalc_entries,
        "sched.examined_per_pick": stats.tasks_examined / picks,
        "machine.self_pct": pct("machine"),
        "machine.events": traced.events,
        "events.self_pct": pct("events"),
        "events.pushes": calls("events.push"),
        "events.pops": calls("events.pop"),
        "workload.self_pct": pct("workload"),
        "workload.steps": calls("workload.send"),
        "obs.self_pct": pct("obs"),
        "obs.emits": sum(calls(f"obs.{op}") for op in layers.OBS_METHODS
                         if op.startswith("emit_")),
        "model.seconds": traced.result.elapsed_seconds,
        "model.sched_pct": 100.0 * traced.result.scheduler_fraction,
        "trace.host_s": traced.wall_s * factor,
        "trace.overhead_pct": 100.0 * (traced.wall_s / baseline_s - 1.0),
    }
