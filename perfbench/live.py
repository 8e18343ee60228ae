"""The live workload: ``chat-live``.

An ``elsc``/``UP`` ``repro serve`` server runs in its own process; this
process drives it over the line-JSON protocol with two connections
joined to one room, so every message is echoed to both.

* ``sat`` — closed loop: each connection keeps ``WINDOW`` messages in
  flight, sending one more for each of its own echoes.  It gives the
  throughput, the server CPU per message and the echo latency at
  saturation (send to receipt by the sender).
* ``paced`` — open loop: each connection sends on a Poisson schedule
  made from the seed, at ``PACED_RATE`` messages/s over both, and each
  message is timed from when it was due until every member has it.
  Its latencies go to the run record only: on a shared VM they follow
  the host's wake-up delays more than the server.

The client checks every byte it receives: each frame must be the exact
frame a member sent, each sender's frames must arrive once and in
order at both members, and the server's closing counters must
reconcile with what was sent.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Optional

from benchutil import GAP_LOOPS, SpeedTrack, cpu_seconds, peak_rss_mb, percentile, pin
from tracing import Overhead, Tracer

SERVE_ARGS = ["serve", "--scheduler", "elsc", "--spec", "UP",
              "--host", "127.0.0.1", "--port", "0"]
SERVE_CMD = ["-m", "repro", *SERVE_ARGS]
#: Messages each connection keeps in flight in ``sat``: enough queued
#: server work (tens of ms) that a stall of the generator's CPU does
#: not leave the server idle.
WINDOW = 256
#: Pause between reads in ``sat``, so each read takes many frames and the
#: generator stays much cheaper per message than the server.
POLL_PAUSE_S = 0.0005
#: Offered load of ``paced``, messages/s over both connections, kept
#: fixed so later changes meet the same load.  On a shared 2-vCPU x86-64
#: VM the server saturated at 37 000-40 000 messages/s in calm
#: periods and at 16 000-25 000 in slow ones; at 10 000 the slow periods
#: pushed it near saturation and the tail to tens of milliseconds, so
#: the rate is a quarter of the slow-period figure.
PACED_RATE = 5000.0
#: ``host_s`` is the time to echo this many messages at saturation.
HOST_BATCH = 1000
#: Share of the measuring time given to ``sat`` (with its warm-up); the
#: rest goes to ``paced``.
SAT_SHARE = 0.6
#: Length of one measured slice of ``sat``.
SLICE_S = 1.0
#: Slices of ``paced``, each with its own Poisson schedule, whose
#: latency percentiles are combined by their median.
PACED_SLICES = 10
#: Server starts timed per run for ``setup_s``: the one driven through
#: both phases, and the rest started and stopped at once before it.
SETUP_SAMPLES = 15
#: Unmeasured closed-loop time before ``sat`` is measured.
WARMUP_S = 0.5
#: Bytes of seeded padding carried by every message.
PAD_BYTES = 32
#: The generator counts as the saturated side, failing the run, when the
#: server was busy for less than this share of the measured ``sat`` time.
MIN_SERVER_BUSY = 0.8
STOP_TIMEOUT_S = 15.0
IO_TIMEOUT_S = 20.0


class LoadError(RuntimeError):
    """The server's output broke an echo or accounting check."""


def _read_line(fd: int, deadline: float) -> bytes:
    """One line from a pipe, or an error once ``deadline`` passes."""
    data = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while not data.endswith(b"\n"):
            timeout = deadline - time.perf_counter()
            if timeout <= 0 or not sel.select(timeout):
                raise LoadError(f"no line from the server within its deadline: {data!r}")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise LoadError(f"server pipe closed: {data!r}")
            data += chunk
    return data


def _server_child(cpu: int) -> None:
    """In the forked server, before exec: pin it, and let SIGINT stop it
    even when this process was started with SIGINT ignored (as an
    asynchronous shell command is)."""
    pin(cpu)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro serve`` process; ``setup_s`` is spawn until first accept."""

    def __init__(self, root: Path, argv: list[str], cpu: int) -> None:
        # A fixed hash seed: a random one per server process moved the
        # paced tail latency by about a tenth from run to run.
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: _server_child(cpu),
        )
        try:
            line = _read_line(self.proc.stderr.fileno(), start + 60.0)
            match = re.search(rb"serving on [\d.]+:(\d+)", line)
            if match is None:
                raise LoadError(f"unexpected server banner {line!r}")
            self.port = int(match.group(1))
            self.first = Conn(self.port)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Interrupt the server and wait for it to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Conn:
    """One client connection, welcomed by the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = b""
        self.expect_op("welcome")

    def read_frame(self) -> dict[str, Any]:
        while b"\n" not in self.pending:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise LoadError("server closed the connection")
            self.pending += chunk
        line, self.pending = self.pending.split(b"\n", 1)
        return json.loads(line)

    def expect_op(self, op: str) -> dict[str, Any]:
        frame = self.read_frame()
        if frame.get("op") != op:
            raise LoadError(f"expected {op!r}, got {frame!r}")
        return frame

    def close(self) -> None:
        self.sock.close()


class ChatLoad:
    """Two members of one room, sending and checking chat messages."""

    def __init__(self, server: Server, seed: int) -> None:
        rng = random.Random(seed)
        pad = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(PAD_BYTES))
        self.server = server
        self.conns = [server.first, Conn(server.port)]
        for i, conn in enumerate(self.conns):
            conn.sock.sendall(b'{"op":"join","room":"r0","user":"u%d"}\n' % i)
            conn.expect_op("joined")
        # The server re-encodes the parsed frame with compact separators
        # and the keys in sent order, so an echo is byte-identical.
        head = b'{"op":"msg","room":"r0","user":"u'
        tail = b',"pad":"' + pad.encode() + b'"}\n'
        self.frame = head + b'%d","seq":%d' + tail
        self.full_re = re.compile(
            b"(?:" + re.escape(head) + rb'[01]","seq":\d+' + re.escape(tail) + b")*"
        )
        self.seq_re = [
            re.compile(re.escape(head + b'%d","seq":' % s) + rb"(\d+)") for s in (0, 1)
        ]
        self.sent = [0, 0]
        #: expect[i][s]: next sequence number member i must get from s.
        self.expect = [[0, 0], [0, 0]]
        # select(2) keeps sub-millisecond timeouts; epoll rounds them up
        # to a whole millisecond, which would make the paced sends late.
        self.sel = selectors.SelectSelector()
        for i, conn in enumerate(self.conns):
            conn.sock.settimeout(None)
            self.sel.register(conn.sock, selectors.EVENT_READ, i)

    @property
    def echoed(self) -> int:
        """Messages whose echo has reached their sender."""
        return self.expect[0][0] + self.expect[1][1]

    def send(self, i: int, n: int) -> None:
        first = self.sent[i]
        self.sent[i] = first + n
        frame = self.frame
        self.conns[i].sock.sendall(b"".join([frame % (i, q) for q in range(first, first + n)]))

    def receive(self, i: int) -> None:
        """Read and check what member ``i`` got."""
        conn = self.conns[i]
        chunk = conn.sock.recv(262144)
        if not chunk:
            raise LoadError(f"server closed connection {i}")
        data = conn.pending + chunk
        cut = data.rfind(b"\n") + 1
        body, conn.pending = data[:cut], data[cut:]
        if self.full_re.fullmatch(body) is None:
            raise LoadError(f"member {i} got an unexpected frame in {body[:200]!r}")
        for s in (0, 1):
            seqs = self.seq_re[s].findall(body)
            if not seqs:
                continue
            first = self.expect[i][s]
            if list(map(int, seqs)) != list(range(first, first + len(seqs))):
                raise LoadError(f"member {i} got sender {s}'s messages out of order, "
                                f"duplicated or missing after seq {first}")
            self.expect[i][s] = first + len(seqs)

    def poll(self, timeout: float) -> list[int]:
        """Receive on every member with data; return those members."""
        ready = [key.data for key, _ in self.sel.select(timeout)]
        for i in ready:
            self.receive(i)
        return ready

    def delivered(self, s: int) -> int:
        """Messages of sender ``s`` that have reached every member."""
        return min(self.expect[0][s], self.expect[1][s])

    def closed_loop(self, seconds: float, echo_s: Optional[list[float]] = None) -> int:
        """Keep ``WINDOW`` messages in flight per member for ``seconds``;
        return how many echoes reached their senders meanwhile.  With
        ``echo_s``, append to it each echo's time from its send to its
        receipt by the sender (echoes still in flight at the end are
        left out)."""
        before = self.echoed
        base = list(self.sent)
        stamps: list[list[float]] = [[], []]
        timed = [0, 0]
        ready = [0, 1]
        now = time.perf_counter()
        end = now + seconds
        while now < end:
            for i in ready:
                missing = WINDOW - (self.sent[i] - self.expect[i][i])
                if missing:
                    stamps[i] += [now] * missing
                    self.send(i, missing)
            time.sleep(POLL_PAUSE_S)
            ready = self.poll(0.1)
            now = time.perf_counter()
            if echo_s is not None:
                for i in ready:
                    got = self.expect[i][i] - base[i]
                    if got > timed[i]:
                        echo_s += [now - t for t in stamps[i][timed[i]:got]]
                        timed[i] = got
        return self.echoed - before

    def open_loop(self, seconds: float, seed: int) -> tuple[list[float], list[float]]:
        """Send on a seeded Poisson schedule for ``seconds``; return each
        message's delivery latency (from when it was due until every
        member had it) and how late the generator sent it, in s."""
        rate = PACED_RATE / 2
        schedules = []
        for i in (0, 1):
            rng, t, due = random.Random(seed * 2 + i), 0.0, []
            while True:
                t += rng.expovariate(rate)
                if t >= seconds:
                    break
                due.append(t)
            schedules.append(due)
        base = list(self.sent)
        done = [self.delivered(s) for s in (0, 1)]
        due_at: list[list[float]] = [[], []]
        latency: list[float] = []
        late: list[float] = []
        start = time.perf_counter()
        nxt = [0, 0]
        while nxt != [len(x) for x in schedules] or done != self.sent:
            now = time.perf_counter()
            if now > start + seconds + IO_TIMEOUT_S:
                raise LoadError(f"undelivered messages: sent {self.sent}, got {self.expect}")
            for i in (0, 1):
                k = nxt[i]
                while k < len(schedules[i]) and start + schedules[i][k] <= now:
                    due_at[i].append(start + schedules[i][k])
                    late.append(now - due_at[i][-1])
                    k += 1
                if k > nxt[i]:
                    self.send(i, k - nxt[i])
                    nxt[i] = k
            waiting = [start + schedules[i][nxt[i]] for i in (0, 1)
                       if nxt[i] < len(schedules[i])]
            self.poll(max(0.0, min(waiting) - time.perf_counter()) if waiting else 0.1)
            now = time.perf_counter()
            for s in (0, 1):
                frontier = self.delivered(s)
                if frontier > done[s]:
                    latency.extend(now - d for d in
                                   due_at[s][done[s] - base[s]:frontier - base[s]])
                    done[s] = frontier
        return latency, late

    def drain(self) -> None:
        """Wait until every member has every message sent so far."""
        deadline = time.perf_counter() + IO_TIMEOUT_S
        while any(self.expect[i][s] < self.sent[s] for i in (0, 1) for s in (0, 1)):
            if time.perf_counter() > deadline:
                raise LoadError(f"undelivered messages: sent {self.sent}, got {self.expect}")
            self.poll(0.1)

    def reconcile(self) -> dict[str, Any]:
        """Check the server's counters against what was sent."""
        self.drain()
        if any(conn.pending for conn in self.conns):
            raise LoadError("partial frame left over")
        self.sel.unregister(self.conns[0].sock)
        self.conns[0].sock.settimeout(IO_TIMEOUT_S)
        self.conns[0].sock.sendall(b'{"op":"metrics"}\n')
        counters = self.conns[0].expect_op("metrics")["counters"]
        total = sum(self.sent)
        want = {"completed": total, "deliveries": 2 * total, "shed": 0, "expired": 0,
                "dropped_fanout": 0, "executor_restarts": 0, "protocol_errors": 0}
        wrong = {k: (counters.get(k), v) for k, v in want.items() if counters.get(k) != v}
        if wrong:
            raise LoadError(f"server counters do not reconcile (got, want): {wrong}")
        return counters

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.close()


def load_slice(load: ChatLoad, seconds: float) -> dict[str, float]:
    """Closed loop for ``seconds``, measured; then drain, unmeasured, so
    the server is idle when the slice returns."""
    server_cpu0 = cpu_seconds(load.server.pid)
    own_cpu0 = time.process_time()
    wall0 = time.perf_counter()
    echo_s: list[float] = []
    echoed = load.closed_loop(seconds, echo_s)
    sample = {
        "msgs": echoed,
        "echo_p50_ms": percentile(echo_s, 50) * 1e3,
        "echo_p99_ms": percentile(echo_s, 99) * 1e3,
        "wall_s": time.perf_counter() - wall0,
        "server_cpu_s": cpu_seconds(load.server.pid) - server_cpu0,
        "loadgen_cpu_s": time.process_time() - own_cpu0,
    }
    load.drain()
    return sample


def saturate(load: ChatLoad, seconds: float, track: SpeedTrack) -> list[dict[str, float]]:
    """The measured ``sat`` phase, in slices of about ``SLICE_S`` with
    the server's CPU calibrated between them."""
    slices = []
    count = max(1, round(seconds / SLICE_S))
    for _ in range(count):
        sample = load_slice(load, seconds / count)
        track.sample(GAP_LOOPS)
        slices.append({**sample, "speed_factor": track.recent_factor(2 * GAP_LOOPS)})
    return slices


def pace(load: ChatLoad, seconds: float, seed: int,
         track: SpeedTrack) -> tuple[list[dict[str, float]], list[float]]:
    """The measured ``paced`` phase, in ``PACED_SLICES`` slices, each
    followed by calibration loops on both CPUs once all its messages are
    delivered; and how late the generator sent each message, in ms.

    A slice's latency percentiles are scaled by the mean speed factor of
    the two CPUs around it; the run record keeps the median over slices,
    which a stall of the VM (tens of milliseconds, now and then) in one
    slice does not move."""
    own = SpeedTrack()
    slices, late_ms = [], []
    for k in range(PACED_SLICES):
        latency, late = load.open_loop(seconds / PACED_SLICES, seed * PACED_SLICES + k)
        track.sample(GAP_LOOPS)
        own.sample(GAP_LOOPS)
        ms = [x * 1e3 for x in latency]
        slices.append({
            "messages": len(ms),
            "p50_ms": percentile(ms, 50),
            "p99_ms": percentile(ms, 99),
            "speed_factor": (track.recent_factor(2 * GAP_LOOPS)
                             + own.recent_factor(2 * GAP_LOOPS)) / 2,
        })
        late_ms += [x * 1e3 for x in late]
    return slices, late_ms


def sat_summary(slices: list[dict[str, float]]) -> dict[str, float]:
    """Totals of ``sat`` slices, and the medians over them, each slice
    scaled by the speed of the server's CPU just before and after it."""
    total = {k: sum(x[k] for x in slices)
             for k in ("msgs", "wall_s", "server_cpu_s", "loadgen_cpu_s")}
    return {
        "msgs_per_s": total["msgs"] / total["wall_s"],
        "server_busy": total["server_cpu_s"] / total["wall_s"],
        "server_cpu_us_per_msg": total["server_cpu_s"] / total["msgs"] * 1e6,
        "loadgen_cpu_us_per_msg": total["loadgen_cpu_s"] / total["msgs"] * 1e6,
        "host_s": median([HOST_BATCH * x["wall_s"] / x["msgs"] * x["speed_factor"]
                          for x in slices]),
        "cpu_us_per_op": median([x["server_cpu_s"] / x["msgs"] * x["speed_factor"] * 1e6
                                 for x in slices]),
        "echo_p50_ms": median([x["echo_p50_ms"] * x["speed_factor"] for x in slices]),
        "echo_p99_ms": median([x["echo_p99_ms"] * x["speed_factor"] for x in slices]),
    }


def steadiness_errors(sat: dict[str, Any]) -> list[str]:
    """Errors when the generator, not the server, limited ``sat``."""
    errors = []
    if sat["server_busy"] < MIN_SERVER_BUSY:
        errors.append(f"server busy only {sat['server_busy']:.2f} of sat: "
                      "the generator is the saturated side")
    if sat["loadgen_cpu_us_per_msg"] >= sat["server_cpu_us_per_msg"]:
        errors.append("generator costs more CPU per message than the server")
    return errors


def session(root: Path, argv: list[str], track: SpeedTrack, seed: int,
            sat_s: float, paced_s: float) -> dict[str, Any]:
    """Start a server on the track's CPU, run both phases against it,
    check, and stop it.  ``setup_s`` is not scaled."""
    out: dict[str, Any] = {"errors": [], "sent": 0, "echoed": 0}
    try:
        server = Server(root, argv, track.cpu)
        out["setup_s"] = server.setup_s
    except (LoadError, OSError) as exc:
        out["errors"].append(f"server start: {type(exc).__name__}: {exc}")
        return out
    load: Optional[ChatLoad] = None
    try:
        load = ChatLoad(server, seed)
        load.closed_loop(WARMUP_S)
        load.drain()
        out["sat_slices"] = saturate(load, sat_s, track)
        out["sat"] = sat_summary(out["sat_slices"])
        out["errors"] += steadiness_errors(out["sat"])
        out["paced_slices"], out["late_ms"] = pace(load, paced_s, seed, track)
        out["counters"] = load.reconcile()
        out["peak_rss_mb"] = peak_rss_mb(server.pid)
    except (LoadError, OSError, ValueError) as exc:
        out["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if load is not None:
            out["sent"], out["echoed"] = sum(load.sent), load.echoed
            load.close()
        server.stop()
    return out


def _report(result: dict[str, Any], metrics: dict[str, float],
            detail: dict[str, Any]) -> dict[str, Any]:
    sent = max(result["sent"], 1)
    failed = sent - result["echoed"] if result["errors"] else 0
    return {"attempted": sent, "failed": max(failed, len(result["errors"])),
            "metrics": metrics, "detail": {**detail, "errors": result["errors"]}}


def setup_only(root: Path, track: SpeedTrack) -> float:
    """Start a server, stop it once it accepts; its set-up time, not
    scaled."""
    server = Server(root, SERVE_CMD, track.cpu)
    server.first.close()
    server.stop()
    track.sample(GAP_LOOPS)
    return server.setup_s


def measure(seed: int, seconds: float, root: Path, cpu: int) -> dict[str, Any]:
    """Untraced run: the end-to-end metrics.  ``cpu`` is the server's.

    ``SETUP_SAMPLES - 1`` servers are started and stopped for their
    set-up time alone; one more is driven through both phases for the
    whole measuring time.
    """
    setup_track = SpeedTrack(cpu)
    setups: list[float] = []
    try:
        setups = [setup_only(root, setup_track) for _ in range(SETUP_SAMPLES - 1)]
    except (LoadError, OSError) as exc:
        result: dict[str, Any] = {"errors": [f"server start: {type(exc).__name__}: {exc}"],
                                  "sent": 0, "echoed": 0}
    else:
        result = session(root, SERVE_CMD, SpeedTrack(cpu), seed,
                         max(SLICE_S, SAT_SHARE * seconds - WARMUP_S),
                         (1 - SAT_SHARE) * seconds)
    metrics: dict[str, float] = {}
    p50s: list[float] = []
    p99s: list[float] = []
    if not result["errors"]:
        setups.append(result["setup_s"])
        p50s = [x["p50_ms"] * x["speed_factor"] for x in result["paced_slices"]]
        p99s = [x["p99_ms"] * x["speed_factor"] for x in result["paced_slices"]]
        sat = result["sat"]
        metrics.update(setup_s=median(setups) * setup_track.factor,
                       host_s=sat["host_s"], cpu_us_per_op=sat["cpu_us_per_op"],
                       lat_p50_ms=sat["echo_p50_ms"], lat_p99_ms=sat["echo_p99_ms"],
                       paced_p50_ms=median(p50s), paced_p99_ms=median(p99s),
                       peak_rss_mb=result["peak_rss_mb"])
    detail = {
        "workload": "chat-live", "seed": seed, "setup_s": setups,
        "sat": result.get("sat"), "sat_slices": result.get("sat_slices"),
        "paced_rate": PACED_RATE,
        "paced_slices": result.get("paced_slices"),
        "late_ms_p99": percentile(result["late_ms"], 99) if "late_ms" in result else None,
        "peak_rss_mb": result.get("peak_rss_mb"), "counters": result.get("counters"),
        "setup_calibration_s": setup_track.loops,
    }
    return _report(result, metrics, detail)


def trace(seed: int, root: Path, cpu: int) -> dict[str, Any]:
    """Traced run: an untraced session for the baseline and the
    generator's cost, then a session against a traced server."""
    sat_s, paced_s = 4.0, 3.0
    track = SpeedTrack(cpu)
    plain = session(root, SERVE_CMD, track, seed, sat_s, paced_s)
    stem = root / ".perfbench" / "trace" / f"chat-live-seed{seed}"
    launcher = [str(Path(__file__).with_name("serve_traced.py")), str(stem), *SERVE_ARGS]
    traced = session(root, launcher, track, seed, sat_s, paced_s)
    result = {"sent": plain["sent"] + traced["sent"],
              "echoed": plain["echoed"] + traced["echoed"],
              "errors": plain["errors"] + traced["errors"]}
    metrics: dict[str, float] = {}
    summary: dict[str, Any] = {}
    if not result["errors"]:
        summary = json.loads(stem.with_suffix(".json").read_text())
        metrics = layer_metrics(summary, plain, traced)
    detail = {"workload": "chat-live", "seed": seed, "trace": summary,
              "plain_sat": plain.get("sat"), "traced_sat": traced.get("sat")}
    return _report(result, metrics, detail)


def layer_metrics(summary: dict[str, Any], plain: dict[str, Any],
                  traced: dict[str, Any]) -> dict[str, float]:
    """Layer shares of the traced server's CPU time, without the
    tracing cost, and the generator's figures from the untraced session."""
    totals = summary["totals"]
    overhead = Overhead(**summary["overhead"])
    cpu = summary["cpu_s"] - overhead.total_ns(totals) / 1e9
    selfs = Tracer.layer_self_seconds(totals, overhead)
    counters = summary["counters"]

    def pct(layer: str) -> float:
        return 100.0 * selfs.get(layer, 0.0) / cpu

    def calls(key: str) -> int:
        return totals.get(key, {}).get("calls", 0)

    stats = summary["sched_stats"]
    picks = stats["schedule_calls"]
    executor = summary["executor"]
    mean_gap_ms = 2e3 / PACED_RATE
    return {
        "sched.self_pct": pct("sched"),
        "sched.picks": picks,
        "sched.us_per_pick": overhead.self_ns(totals["sched.schedule"]) / picks / 1e3,
        "sched.enqueues": stats["enqueues"],
        "sched.recalcs": stats["recalc_entries"],
        "sched.examined_per_pick": stats["tasks_examined"] / picks,
        "codec.self_pct": pct("codec"),
        "codec.encodes_per_delivery": calls("codec.encode") / counters["deliveries"],
        "codec.decodes": calls("codec.decode"),
        "socket.self_pct": pct("socket"),
        "socket.writes_per_msg": calls("socket.write") / counters["completed"],
        "executor.self_pct": pct("executor"),
        "executor.picks": executor["picks"],
        "executor.idle_pick_ratio": executor["idle_picks"] / executor["picks"],
        "server.other_self_pct": 100.0 - sum(
            pct(layer) for layer in ("sched", "codec", "socket", "executor")
        ),
        "loadgen.cpu_pct_of_server": 100.0 * plain["sat"]["loadgen_cpu_us_per_msg"]
        / plain["sat"]["server_cpu_us_per_msg"],
        "loadgen.late_p99_pct": 100.0 * percentile(plain["late_ms"], 99) / mean_gap_ms,
        "trace.host_s": traced["sat"]["host_s"],
        "trace.overhead_pct": 100.0 * (traced["sat"]["host_s"] / plain["sat"]["host_s"] - 1.0),
    }
