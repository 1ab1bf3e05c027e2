"""Drive ``repro serve --mode socket`` from outside and check its answers.

The load comes from this process: closed loops on at most two
connections, one thread each.  Request bodies are JSON-encoded before any timing starts;
the only per-send work is splicing the request id in front of a body.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

import stats

HOST = "127.0.0.1"
READY_TIMEOUT_S = 120.0
#: How long a connection may sit silent before its missing answers count
#: as missing.
DRAIN_TIMEOUT_S = 15.0

clock = time.perf_counter


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class Requests:
    """Pre-encoded request bodies for the test rows, in seeded order."""

    def __init__(self, dataset, field_names: Sequence[str],
                 order: np.ndarray) -> None:
        self.features: List[Dict[str, int]] = []
        self.bodies: List[bytes] = []
        for row in order:
            features = {name: int(value)
                        for name, value in zip(field_names, dataset.x[row])}
            self.features.append(features)
            self.bodies.append(b', "features": '
                               + json.dumps(features).encode() + b'}\n')

    def line(self, tag: str, i: int) -> bytes:
        return (b'{"request_id": "%s-%d"' % (tag.encode(), i)
                + self.bodies[i % len(self.bodies)])

    def features_of(self, i: int) -> Dict[str, int]:
        return self.features[i % len(self.features)]


class Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(DRAIN_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def readline(self) -> bytes:
        """One response line; ``b""`` when the server is silent too long."""
        try:
            return self.reader.readline()
        except (socket.timeout, OSError):
            return b""

    def ask(self, payload: Dict) -> Dict:
        """One probe round trip (only while no requests are in flight)."""
        self.send(json.dumps(payload).encode() + b"\n")
        raw = self.readline()
        if not raw:
            raise RuntimeError(f"no answer to probe {payload}")
        return json.loads(raw)

    def close(self) -> None:
        for handle in (self.reader, self.sock):
            try:
                handle.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    port: int
    ready_s: float

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def kill(self) -> None:
        """Stop a server that never got a request: nothing to drain."""
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def launch(command: Sequence[str], log_path: Path, env: Dict[str, str]
           ) -> Server:
    """Start a server and wait for its ready line on stdout."""
    log = open(log_path, "wb")
    started = clock()
    try:
        process = subprocess.Popen(list(command), stdout=subprocess.PIPE,
                                   stderr=log, env=env)
    finally:
        log.close()
    try:
        readable, _, _ = select.select([process.stdout], [], [],
                                       READY_TIMEOUT_S)
        line = process.stdout.readline() if readable else b""
        ready_s = clock() - started
        ready = json.loads(line) if line else {}
        if ready.get("status") != "ready":
            raise RuntimeError(
                f"server did not become ready: {line[:200]!r}; log tail: "
                f"{log_path.read_bytes()[-2000:].decode(errors='replace')}")
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    return Server(process=process, port=int(ready["port"]), ready_s=ready_s)


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one connection sent and got back (answers parsed afterwards)."""

    tag: str
    start: float
    sent: Dict[int, float] = field(default_factory=dict)
    received: List[Tuple[float, bytes]] = field(default_factory=list)


def _closed_conn(conn: Connection, requests: Requests, tag: str, depth: int,
                 until: float, phase: Phase) -> None:
    i = 0
    for _ in range(depth):
        phase.sent[i] = clock()
        conn.send(requests.line(tag, i))
        i += 1
    outstanding = depth
    while outstanding:
        raw = conn.readline()
        if not raw:
            return
        now = clock()
        phase.received.append((now, raw))
        outstanding -= 1
        if now < until:
            phase.sent[i] = now
            conn.send(requests.line(tag, i))
            i += 1
            outstanding += 1


def closed_loop(conns: Sequence[Connection], requests: Requests, tag: str,
                depth: int, seconds: float) -> List[Phase]:
    """Each connection keeps ``depth`` requests in flight for ``seconds``:
    a new one is sent as each answer arrives, and none after ``seconds``.
    The last connection runs on the calling thread."""
    start = clock()
    until = start + seconds
    phases = [Phase(tag=f"{tag}{k}", start=start) for k in range(len(conns))]
    threads = [threading.Thread(target=_closed_conn,
                                args=(conn, requests, phase.tag, depth, until,
                                      phase))
               for conn, phase in zip(conns[:-1], phases[:-1])]
    for thread in threads:
        thread.start()
    try:
        _closed_conn(conns[-1], requests, phases[-1].tag, depth, until,
                     phases[-1])
    finally:
        for thread in threads:
            thread.join()
    return phases


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Answers matched to requests: exactly-once accounting and latency."""

    sent: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    missing: int = 0
    duplicates: int = 0
    unknown: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Where each window's latencies end in ``latencies_s``.
    window_ends: List[int] = field(default_factory=list)
    probabilities: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: ``ok`` answers per second of each window, from its first send to
    #: its last answer.
    window_rps: List[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.statuses.get("ok", 0)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    @property
    def exactly_once(self) -> bool:
        return (self.missing == 0 and self.duplicates == 0
                and self.unknown == 0)

    def rps(self) -> float:
        """Median over the windows of each window's ``ok`` answers/s."""
        return stats.median(self.window_rps)

    def window_latencies_s(self) -> List[List[float]]:
        starts = [0] + self.window_ends[:-1]
        return [self.latencies_s[a:b]
                for a, b in zip(starts, self.window_ends)]

    def latency_ms(self, q: float) -> float:
        """Median over the windows of each window's nearest-rank
        percentile; failed or missing requests count as slower than any
        answer."""
        return stats.median([stats.percentile(window, q)
                             for window in self.window_latencies_s()]) * 1e3


def account(windows: Sequence[Sequence[Phase]]) -> Outcome:
    """Match answers to requests by id; latency runs from each send.

    ``windows`` holds the phases of each :func:`closed_loop` call.
    """
    out = Outcome()
    for phases in windows:
        last_answer = max((at for phase in phases
                           for at, _ in phase.received),
                          default=phases[0].start)
        ok_before = out.ok
        for phase in phases:
            _account_phase(phase, out)
        out.window_ends.append(len(out.latencies_s))
        out.window_rps.append((out.ok - ok_before)
                              / (last_answer - phases[0].start))
    return out


def _account_phase(phase: Phase, out: Outcome) -> None:
    answered: Dict[int, int] = {}
    for at, raw in phase.received:
        response = json.loads(raw)
        tag, _, index = str(response.get("request_id", "")).rpartition("-")
        if (tag != phase.tag or not index.isdigit()
                or int(index) not in phase.sent):
            out.unknown += 1
            continue
        i = int(index)
        answered[i] = answered.get(i, 0) + 1
        if answered[i] > 1:
            out.duplicates += 1
            continue
        status = response.get("status", "?")
        out.statuses[status] = out.statuses.get(status, 0) + 1
        if status == "ok":
            out.latencies_s.append(at - phase.sent[i])
            out.probabilities[(phase.tag, i)] = response["probability"]
        else:
            out.latencies_s.append(float("inf"))
    out.sent += len(phase.sent)
    missing = len(phase.sent) - len(answered)
    out.missing += missing
    out.latencies_s.extend([float("inf")] * missing)


def bitwise_check(outcome: Outcome, requests: Requests, service,
                  rng: np.random.Generator, sample: int) -> Dict[str, int]:
    """Served probabilities vs in-process single-request ``predict``."""
    keys = sorted(outcome.probabilities)
    picks = rng.choice(len(keys), size=min(sample, len(keys)), replace=False)
    mismatches = 0
    for pick in picks:
        tag, i = keys[int(pick)]
        local = service.predict(requests.features_of(i)).probability
        if local != outcome.probabilities[(tag, i)]:
            mismatches += 1
    return {"checked": len(picks), "mismatches": mismatches}


def server_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env
