"""One scoring path: a request is a batch of one, batch size a setting.

``PredictionService.predict`` runs the same pipeline as
``predict_batch``, and both transports always drain their queue through
the micro-batcher.  These tests pin what that collapse must keep:
deadline accounting on every answer, and transports whose answers do
not depend on ``batch_size``.
"""

import io
import json
import socket
import struct

import pytest

from repro.serving import BatchRequest, CircuitBreaker
from repro.serving.server import ServingStack, SocketServer, serve_stdio

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}
INVALID = {"field_0": "not-an-id"}


def bits(probability):
    """Bit pattern of a float64 — bitwise comparison, not a tolerance."""
    return (None if probability is None
            else struct.pack("<d", probability))


class TestDeadlineAccounting:
    """Every ``serve_request`` event reports the resolved deadline."""

    def _deadlines(self, sink):
        return [e.payload["deadline_ms"]
                for e in sink.of_type("serve_request")]

    def test_invalid_request_reports_default_deadline(self, make_service,
                                                      mem_sink):
        _, sink = mem_sink
        service = make_service(deadline_s=0.05)
        assert service.predict(INVALID).status == "invalid"
        request = BatchRequest(INVALID)
        (response,) = service.predict_batch([request])
        assert response.status == "invalid"
        assert self._deadlines(sink) == [pytest.approx(50.0)] * 2
        assert request.deadline_s is None

    def test_breaker_open_reports_default_deadline(self, make_service,
                                                   mem_sink):
        _, sink = mem_sink
        service = make_service(
            deadline_s=0.05,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=3600.0))
        service.breaker.record_failure()  # latch open
        response = service.predict(REQ)
        assert response.degraded_reason == "breaker_open"
        requests = [BatchRequest(REQ), BatchRequest(REQ)]
        for response in service.predict_batch(requests):
            assert response.degraded_reason == "breaker_open"
        assert self._deadlines(sink) == [pytest.approx(50.0)] * 3
        assert [r.deadline_s for r in requests] == [None, None]

    def test_scored_requests_leave_caller_requests_untouched(
            self, make_service, mem_sink):
        _, sink = mem_sink
        service = make_service(deadline_s=10.0)
        requests = [BatchRequest(REQ), BatchRequest(REQ, deadline_s=5.0)]
        assert [r.status for r in service.predict_batch(requests)] == [
            "ok", "ok"]
        assert self._deadlines(sink) == [pytest.approx(10_000.0),
                                         pytest.approx(5_000.0)]
        assert [r.deadline_s for r in requests] == [None, 5.0]


def request_stream():
    """Valid, invalid and unparseable protocol lines, with ids."""
    lines = []
    for i in range(20):
        if i % 5 == 3:
            lines.append('{"features": {"field_0": 1,')  # unparseable
        elif i % 5 == 1:
            lines.append(json.dumps({"features": INVALID,
                                     "request_id": f"r{i}"}))
        else:
            features = {"field_0": i % 8, "field_1": i % 6,
                        "field_2": i % 10}
            lines.append(json.dumps({"features": features,
                                     "request_id": f"r{i}"}))
    return lines


def summary(answers):
    return [(a.get("status"), a.get("request_id"), a.get("served_by"),
             a.get("error"), bits(a.get("probability")))
            for a in answers]


def stack_for(service):
    return ServingStack(service=service, reloader=None,
                        model_name="lr", dataset="test")


def socket_answers(service, batch_size, lines):
    # One worker keeps the answers in request order on the connection.
    server = SocketServer(stack_for(service), workers=1,
                          queue_depth=256, batch_size=batch_size)
    host, port = server.start()
    try:
        with socket.create_connection((host, port), timeout=10.0) as conn:
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
            wfile.write("".join(line + "\n" for line in lines))
            wfile.flush()
            return [json.loads(rfile.readline()) for _ in lines]
    finally:
        server.shutdown(drain_s=5.0)


def stdio_answers(service, batch_size, lines):
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout = io.StringIO()
    assert serve_stdio(stack_for(service), stdin, stdout,
                       batch_size=batch_size) == 0
    ready, *answers = [json.loads(line)
                       for line in stdout.getvalue().splitlines()]
    assert ready["status"] == "ready"
    return answers


class TestBatchSizeIsASetting:
    @pytest.mark.parametrize("transport", [socket_answers, stdio_answers])
    def test_answers_match_at_batch_1_and_8(self, make_service, transport):
        lines = request_stream()
        one = transport(make_service(), 1, lines)
        eight = transport(make_service(), 8, lines)
        assert len(one) == len(lines)
        assert {a["status"] for a in one} == {"ok", "invalid"}
        assert summary(one) == summary(eight)

    def test_stdio_stops_at_shutdown_op_at_batch_1(self, make_service):
        lines = [json.dumps({"features": REQ, "request_id": "a"}),
                 json.dumps({"op": "shutdown"}),
                 json.dumps({"features": REQ, "request_id": "b"})]
        answers = stdio_answers(make_service(), 1, lines)
        assert [a.get("request_id") for a in answers] == ["a", None]
        assert answers[1] == {"status": "shutting_down"}
