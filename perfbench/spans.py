"""Self-time spans recorded around calls into the program's layers.

The benchmark measures layers from outside: it replaces a public function
or method with a wrapper that opens a span, calls the original and closes
the span.  A span's *self time* is its duration minus the time its child
spans (on the same thread) cover, so the self times of nested layers add
up to the time of the outermost span without counting anything twice.

Spans inside an *opaque* span are not recorded: their time stays in the
opaque span's self time (evaluation is one layer, whatever it calls).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _ThreadState:
    __slots__ = ("stack", "opaque", "active", "totals", "calls")

    def __init__(self, active: bool) -> None:
        self.stack: List[float] = []   # child time covered, per open span
        self.opaque = 0
        self.active = active
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}


class SpanRecorder:
    """Per-thread span stacks accumulating self time and calls per name.

    ``thread_filter(thread)`` picks the threads whose spans count; the
    others run the wrapped functions untouched.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 thread_filter: Optional[Callable[[threading.Thread], bool]]
                 = None) -> None:
        self.clock = clock
        self._filter = thread_filter
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            active = (self._filter is None
                      or self._filter(threading.current_thread()))
            st = _ThreadState(active)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- recording -------------------------------------------------------
    def _close(self, st: _ThreadState, name: str, start: float) -> None:
        duration = self.clock() - start
        child = st.stack.pop()
        st.totals[name] = st.totals.get(name, 0.0) + duration - child
        st.calls[name] = st.calls.get(name, 0) + 1
        if st.stack:
            st.stack[-1] += duration

    def call(self, name: str, fn: Callable, args: Tuple, kwargs: Dict,
             opaque: bool = False) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        st = self.state()
        if not st.active or st.opaque:
            return fn(*args, **kwargs)
        st.stack.append(0.0)
        if opaque:
            st.opaque += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            if opaque:
                st.opaque -= 1
            self._close(st, name, start)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        st = self.state()
        if not st.active or st.opaque:
            yield
            return
        st.stack.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            self._close(st, name, start)

    # -- results ---------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Self seconds per span name, summed over threads."""
        out: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, value in list(st.totals.items()):
                out[name] = out.get(name, 0.0) + value
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, value in list(st.calls.items()):
                out[name] = out.get(name, 0) + value
        return out

    def reset(self) -> None:
        """Forget totals and counts (open spans keep running)."""
        with self._lock:
            states = list(self._states)
        for st in states:
            st.totals.clear()
            st.calls.clear()


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         opaque: bool = False) -> Callable:
    """``fn`` with every call recorded as a span called ``name``."""
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, opaque)
    return wrapper


def wrap_generator(recorder: SpanRecorder, name: str,
                   fn: Callable) -> Callable:
    """``fn`` returning a generator whose every ``next`` is a span.

    Time the consumer spends between items is not the generator's.
    """
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            with recorder.span(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item
    return wrapper


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
