"""Span self-time accounting, op coverage and the export format."""

from bench.spans import OP, NullSpans, SpanLog


def log_with(records) -> SpanLog:
    log = SpanLog()
    log.epoch = 0.0
    log.spans = [list(record) for record in records]
    return log


def test_self_time_is_span_minus_direct_children():
    log = log_with([
        (OP, 0.0, 10.0, None, {}),
        ("engine.run", 1.0, 9.0, 0, {}),
        ("engine.flush", 2.0, 5.0, 1, {}),
        ("engine.flush", 6.0, 8.0, 1, {}),
    ])
    assert log.self_seconds() == {OP: 2.0, "engine.run": 3.0, "engine.flush": 5.0}
    assert log.durations("engine.flush") == [3.0, 2.0]


def test_op_coverage_is_the_worst_op():
    log = log_with([
        (OP, 0.0, 10.0, None, {}),
        ("a", 0.0, 10.0, 0, {}),
        (OP, 10.0, 20.0, None, {}),
        ("a", 10.0, 16.0, 2, {}),
        ("grandchild", 11.0, 12.0, 3, {}),
    ])
    assert log.op_coverage() == 0.6


def test_span_context_manager_nests_and_times():
    log = SpanLog()
    with log.span(OP, index=3):
        with log.span("inner"):
            pass
    (outer, inner) = log.spans
    assert outer[0] == OP and outer[3] is None and outer[4] == {"index": 3}
    assert inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_null_spans_record_nothing():
    spans = NullSpans()
    with spans.span(OP):
        with spans.span("inner", a=1):
            pass
    assert not spans.enabled


def test_export_is_the_tracer_wire_format():
    log = log_with([(OP, 0.5, 1.5, None, {"shape": 1})])
    assert log.export() == {
        "spans": [{"name": OP, "ts": 500000.0, "dur": 1000000.0, "args": {"shape": 1}}],
        "dropped": 0,
    }
