"""Run ``repro serve`` with its layers timed from outside (the traced server).

    python3 perfbench/launcher.py STATS.json serve --mode socket ...

Everything after the stats path is passed to the ``repro`` command line
unchanged.  Before the server starts, the public functions of each layer
on the request path are wrapped (``serving``: protocol handlers, queue,
micro-batcher, service; ``data``: cross transform; ``core``: scoring;
``obs``: the metrics registry).  Spans count on the worker threads only,
which is where requests are scored.  Their clock is the thread's CPU
time: four workers share one interpreter lock, and wall-clock spans would
charge each one for the time it waited for the lock.

The client marks its measurement window with two probe lines that carry
an extra key, ``{"op": "health", "perfbench": "start"}`` and ``...
"stop"}``; the server answers them as ordinary health probes.  ``start``
clears the counters; ``stop`` writes them to STATS.json.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

WORKER_PREFIX = "serve-worker"


class _Worker:
    """Busy-cycle bookkeeping of one worker thread."""

    __slots__ = ("depth", "cycle_start", "handle_end", "busy_s",
                 "respond_s")

    def __init__(self) -> None:
        self.depth = 0
        self.cycle_start = None
        self.handle_end = None
        self.busy_s = 0.0
        self.respond_s = 0.0


class ServerTrace:
    """The server-side half of the traced serving run.

    A worker's *busy cycle* runs from the moment its queue wait returns
    work to the moment it waits again.  Inside it: the protocol handler
    (``serving.parse``, self time), the service (``serving.service``), its
    children, and then ``serving.respond`` — from the handler's return to
    the next wait, which is writing the responses back.  Cycles and spans
    are timed in thread CPU seconds, queue waits in wall seconds.
    """

    def __init__(self, stats_path: str) -> None:
        from spans import SpanRecorder

        self.stats_path = stats_path
        self.clock = time.thread_time
        self.wall = time.perf_counter
        self.recorder = SpanRecorder(
            clock=self.clock,
            thread_filter=lambda t: t.name.startswith(WORKER_PREFIX))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._put_at: Dict[int, float] = {}
        self.waits: List[float] = []
        self.batch_sizes: List[int] = []
        self.prepare_s: List[float] = []
        self._cpu0 = time.process_time()

    def _worker(self):
        state = getattr(self._local, "worker", False)
        if state is False:
            thread = threading.current_thread()
            state = (_Worker() if thread.name.startswith(WORKER_PREFIX)
                     else None)
            self._local.worker = state
            if state is not None:
                with self._lock:
                    self._workers.append(state)
        return state

    # -- control ---------------------------------------------------------
    def control(self, action: str) -> None:
        if action == "start":
            self.recorder.reset()
            with self._lock:
                for w in self._workers:
                    w.busy_s = w.respond_s = 0.0
            self.waits = []
            self.batch_sizes = []
            self._cpu0 = time.process_time()
        elif action == "stop":
            with self._lock:
                busy = sum(w.busy_s for w in self._workers)
                respond = sum(w.respond_s for w in self._workers)
            stats = {
                "layers": self.recorder.totals(),
                "calls": self.recorder.calls(),
                "busy_s": busy,
                "respond_s": respond,
                "queue_waits_s": list(self.waits),
                "batch_sizes": list(self.batch_sizes),
                "cpu_s": time.process_time() - self._cpu0,
                "prepare_s": list(self.prepare_s),
            }
            tmp = self.stats_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(stats, fh)
            os.replace(tmp, self.stats_path)

    # -- wrappers --------------------------------------------------------
    def _wait(self, fn, *args, **kwargs):
        """Queue ``get`` / ``next_batch``: closes and opens busy cycles."""
        w = self._worker()
        if w is None:
            return fn(*args, **kwargs)
        if w.depth == 0 and w.cycle_start is not None:
            now = self.clock()
            w.busy_s += now - w.cycle_start
            if w.handle_end is not None and w.handle_end >= w.cycle_start:
                w.respond_s += now - w.handle_end
            w.cycle_start = None
        w.depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            w.depth -= 1
        if result is not None:
            now = self.wall()
            for item in (result if isinstance(result, list) else (result,)):
                put = self._put_at.pop(id(item), None)
                if put is not None:
                    self.waits.append(now - put)
            if w.depth == 0:
                w.cycle_start = self.clock()
        return result

    def _handle(self, fn, size, *args, **kwargs):
        """Protocol handlers: the ``serving.parse`` span, plus markers."""
        w = self._worker()
        if w is None:
            line = args[0]
            if isinstance(line, str) and "perfbench" in line:
                self.control(json.loads(line)["perfbench"])
            return fn(*args, **kwargs)
        self.batch_sizes.append(size(args[0]))
        try:
            return self.recorder.call("serving.parse", fn, args, kwargs)
        finally:
            w.handle_end = self.clock()

    def install(self) -> None:
        from repro import experiments
        from repro.data.cross import CrossProductTransform
        from repro.models.base import CTRModel
        from repro.obs.metrics import (Counter, Gauge, Histogram,
                                       MetricsRegistry)
        from repro.serving import server
        from repro.serving.batching import MicroBatcher
        from repro.serving.queue import BoundedRequestQueue
        from repro.serving.service import PredictionService
        from repro.serving.validation import RequestValidator
        from spans import wrap

        rec = self.recorder
        prepare = experiments.prepare_dataset

        def timed_prepare(*args, **kwargs):
            start = self.wall()
            try:
                return prepare(*args, **kwargs)
            finally:
                self.prepare_s.append(self.wall() - start)

        experiments.prepare_dataset = timed_prepare

        handle_line = server.handle_request_line
        handle_lines = server.handle_request_lines
        server.handle_request_line = (
            lambda *a, **k: self._handle(handle_line, lambda _: 1, *a, **k))
        server.handle_request_lines = (
            lambda *a, **k: self._handle(handle_lines, len, *a, **k))

        put = BoundedRequestQueue.put
        get = BoundedRequestQueue.get
        next_batch = MicroBatcher.next_batch

        def timed_put(queue, item, *args, **kwargs):
            self._put_at[id(item)] = self.wall()
            return put(queue, item, *args, **kwargs)

        BoundedRequestQueue.put = timed_put
        BoundedRequestQueue.get = (
            lambda *a, **k: self._wait(get, *a, **k))
        MicroBatcher.next_batch = (
            lambda *a, **k: self._wait(next_batch, *a, **k))

        PredictionService.predict = wrap(rec, "serving.service",
                                         PredictionService.predict)
        PredictionService.predict_batch = wrap(
            rec, "serving.service", PredictionService.predict_batch)
        RequestValidator.validate = wrap(rec, "serving.validate",
                                         RequestValidator.validate)
        CrossProductTransform.transform = wrap(
            rec, "data.cross", CrossProductTransform.transform)
        CTRModel.predict_proba = wrap(rec, "core.score",
                                      CTRModel.predict_proba)
        for owner, attr in ((MetricsRegistry, "counter"),
                            (MetricsRegistry, "gauge"),
                            (MetricsRegistry, "histogram"),
                            (MetricsRegistry, "timer"),
                            (Counter, "inc"), (Gauge, "set"),
                            (Histogram, "observe")):
            setattr(owner, attr, wrap(rec, "obs.metrics",
                                      getattr(owner, attr)))


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py STATS.json serve [repro serve flags...]",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = ServerTrace(argv[0])
    trace.install()
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
