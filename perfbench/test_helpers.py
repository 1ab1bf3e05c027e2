"""Self-tests for the benchmark's helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import statistics
import threading

import pytest

import stats
from spans import Patches, SpanRecorder, wrap, wrap_generator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- order statistics ----------------------------------------------------
def test_median_and_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.0] * 3) == (2.0, 2.0, 2.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_failed_requests_count_as_slowest():
    values = [1.0] * 98 + [float("inf")] * 2
    assert stats.percentile(values, 98) == 1.0
    assert stats.percentile(values, 99) == float("inf")


def test_serving_figures_are_medians_over_windows():
    from serve import Outcome

    out = Outcome(latencies_s=[1.0, 2.0, 3.0, 10.0, 20.0, 30.0,
                               5.0, 6.0, float("inf")],
                  window_ends=[3, 6, 9], window_rps=[900.0, 100.0, 500.0])
    assert out.window_latencies_s()[1] == [10.0, 20.0, 30.0]
    # Per-window p50s are 2, 20 and 6; per-window p99s 3, 30 and inf.
    assert out.latency_ms(50) == 6.0e3
    assert out.latency_ms(99) == 30.0e3
    assert out.rps() == 500.0


# -- highest percentile with at least ten samples beyond it ---------------
@pytest.mark.parametrize("n, expected", [
    (5, 0.0), (19, 0.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99)])
def test_highest_reportable_percentile(n, expected):
    assert stats.highest_reportable(n) == expected


def test_samples_beyond_counts_strictly_above_the_rank():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(1, 50) == 0


# -- add-up check -----------------------------------------------------------
def test_addup_passes_when_layers_cover_the_wall_time():
    result = stats.addup(10.0, {"a": 6.0, "b": 3.8}, 0.05)
    assert result["ok"]
    assert result["unattributed_s"] == pytest.approx(0.2)
    assert result["unattributed_share"] == pytest.approx(0.02)


def test_addup_fails_when_too_much_is_unattributed():
    result = stats.addup(10.0, {"a": 6.0, "b": 3.0}, 0.05)
    assert not result["ok"]
    assert result["unattributed_share"] == pytest.approx(0.1)


def test_addup_fails_when_layers_claim_more_than_the_wall_time():
    assert not stats.addup(10.0, {"a": 6.0, "b": 4.5}, 0.05)["ok"]


# -- spans ------------------------------------------------------------------
def test_self_times_add_up_to_the_outer_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        wrap(rec, "inner", inner)()
        clock.advance(3.0)

    wrap(rec, "outer", outer)()
    assert rec.totals() == {"outer": 4.0, "inner": 2.0}
    assert rec.calls() == {"outer": 1, "inner": 1}


def test_opaque_span_keeps_its_children():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    inner = wrap(rec, "inner", lambda: clock.advance(2.0))

    def evaluate():
        clock.advance(1.0)
        inner()

    wrap(rec, "eval", evaluate, opaque=True)()
    inner()
    assert rec.totals() == {"eval": 3.0, "inner": 2.0}


def test_generator_span_excludes_consumer_time():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def batches():
        for i in range(3):
            clock.advance(0.5)
            yield i

    seen = []
    for item in wrap_generator(rec, "data", batches)():
        clock.advance(10.0)
        seen.append(item)
    assert seen == [0, 1, 2]
    assert rec.totals() == {"data": 1.5}
    assert rec.calls() == {"data": 4}     # three items and the final stop


def test_thread_filter_and_reset():
    rec = SpanRecorder(thread_filter=lambda t: t.name == "counted")
    work = wrap(rec, "work", lambda: None)
    for name in ("counted", "ignored"):
        thread = threading.Thread(target=work, name=name)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    work()                                  # main thread: ignored
    assert rec.calls() == {"work": 1}
    rec.reset()
    assert rec.calls() == {} and rec.totals() == {}


def test_patches_restore_originals():
    class Owner:
        def method(self):
            return "original"

    patches = Patches()
    patches.set(Owner, "method", lambda self: "patched")
    assert Owner().method() == "patched"
    patches.restore()
    assert Owner().method() == "original"
