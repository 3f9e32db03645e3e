"""Calibration maths on synthetic timings, and the percentile rules."""

import itertools

import pytest

from bench.calib import (
    P90_MIN_SAMPLES,
    TimedSection,
    calibrate_interval,
    kernel,
    p50,
    p90,
    quartile_spread,
)

REF_MS = 15.0
OP_WALLS = [0.30, 0.20, 0.45, 0.10, 0.10, 0.10, 0.10, 0.10, 0.60]


def run_section(slowdown: float, readings=None) -> TimedSection:
    """The same ops on a host ``slowdown`` times slower than the reference."""

    source = iter(readings) if readings is not None else itertools.repeat(REF_MS * slowdown)
    section = TimedSection(REF_MS, block_s=0.5 * slowdown, reader=lambda: next(source))
    section.start()
    for wall in OP_WALLS:
        section.add_op(wall * slowdown)
        section.checkpoint()
    section.finish()
    return section


def test_reference_speed_host_is_left_alone():
    section = run_section(1.0)
    assert section.op_ms() == pytest.approx([w * 1000 for w in OP_WALLS])
    assert section.ops_per_s() == pytest.approx(len(OP_WALLS) / sum(OP_WALLS))


def test_uniformly_slower_host_yields_identical_calibrated_metrics():
    fast, slow = run_section(1.0), run_section(2.0)
    assert slow.op_ms(calibrated=False) == pytest.approx([2 * ms for ms in fast.op_ms()])
    assert slow.op_ms() == pytest.approx(fast.op_ms())
    assert p50(slow.op_ms()) == pytest.approx(p50(fast.op_ms()))
    assert slow.ops_per_s() == pytest.approx(fast.ops_per_s())
    assert slow.ops_per_s(calibrated=False) == pytest.approx(fast.ops_per_s() / 2)


def test_blocks_close_once_they_hold_enough_work():
    section = run_section(1.0)
    # 0.30+0.20 closes block 0, 0.45+0.10 block 1, 4 x 0.10 + 0.60 block 2;
    # the empty block the last checkpoint opened is dropped
    assert [block for _, block in section.ops] == [0, 0, 1, 1, 2, 2, 2, 2, 2]
    assert len(section.blocks) == 3
    assert len(section.readings) == 4


def test_each_block_uses_the_mean_of_its_two_readings():
    # the host slows down half way: readings 15, 15, 30, 30
    section = run_section(1.0, readings=[15.0, 15.0, 30.0, 30.0])
    factors = [block.factor(REF_MS) for block in section.blocks]
    assert factors == pytest.approx([1.0, 15.0 / 22.5, 0.5])
    assert section.op_ms()[2] == pytest.approx(450 * 15.0 / 22.5)


def test_busy_time_that_is_not_an_op_counts_against_throughput_only():
    section = TimedSection(REF_MS, reader=lambda: REF_MS)
    section.start()
    section.add_op(0.1, busy=False)
    section.add_op(0.1, busy=False)
    section.add_busy(0.5)
    section.finish()
    assert section.ops_per_s() == pytest.approx(2 / 0.5)
    assert section.op_ms() == pytest.approx([100.0, 100.0])


def test_failed_ops_are_counted():
    section = TimedSection(REF_MS, reader=lambda: REF_MS)
    section.start()
    section.add_op(0.1)
    section.add_op(0.1, ok=False)
    section.finish()
    assert (len(section.ops), section.failed) == (2, 1)


def test_calibrate_interval():
    assert calibrate_interval(2.0, 30.0, 30.0, REF_MS) == pytest.approx(1.0)
    assert calibrate_interval(2.0, 15.0, 45.0, REF_MS) == pytest.approx(1.0)


def test_no_p90_under_a_hundred_samples():
    assert p90(list(range(P90_MIN_SAMPLES - 1))) is None
    assert p90([]) is None


def test_p90_is_nearest_rank():
    assert p90(list(range(1, 101))) == 90
    assert p90(list(range(200, 0, -1))) == 180
    assert p50([3, 1, 2]) == 2


def test_quartile_spread_matches_the_contract_formula():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # statistics.quantiles(n=4): Q1 = 11.75, Q3 = 17.25, median 14.5
    assert quartile_spread(values) == pytest.approx(5.5 / 14.5)


def test_kernel_is_frozen():
    # editing the kernel re-bases every calibrated metric: this value pins
    # the work it does (hits + rows), not its speed
    assert kernel() == 27000
