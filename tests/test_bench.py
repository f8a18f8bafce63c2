"""Benchmark plumbing: the arithmetic, the report, and a small real run."""

import pytest

from bridgescript.bench import (
    BenchReport,
    _reduced,
    format_report,
    measure_first_vs_rest,
    per_call_seconds,
    run_bench,
    to_record,
)
from bridgescript.errors import IterationsTooSmall


def test_per_call_formula_cancels_loop_overhead():
    # loop costs L per iteration, each call costs C
    n, loop_cost, call_cost = 1000, 2e-6, 5e-6
    empty = n * loop_cost
    one = n * (loop_cost + call_cost)
    two = n * (loop_cost + 2 * call_cost)
    assert per_call_seconds(empty, one, two, n) == pytest.approx(call_cost)


def test_per_call_formula_averages_the_two_differences():
    # noisy middle sample: the two differences disagree, the mean stands
    assert per_call_seconds(0.0, 3.0, 4.0, 2) == pytest.approx(1.0)


def test_reduced_warm_up_size():
    assert _reduced(1_000_000) == 10_000
    assert _reduced(200_000) == 2_000
    assert _reduced(50_000) == 1_000
    assert _reduced(1_000) == 1_000


def test_iteration_floor():
    with pytest.raises(IterationsTooSmall):
        run_bench(999)


def _synthetic_report() -> BenchReport:
    return BenchReport(
        iterations=1000,
        empty_loop_s=0.001, one_call_s=0.003, two_calls_s=0.005,
        per_call_outbound_s=2e-6,
        native_empty_loop_s=0.001, native_one_call_s=0.002,
        native_two_calls_s=0.003, per_call_native_s=1e-6,
        ratio=2.0,
        inbound_iterations=1000,
        inbound_empty_loop_s=0.0001, inbound_one_call_s=0.004,
        inbound_two_calls_s=0.008, per_call_inbound_s=3.95e-6,
    )


def test_record_is_flat_integer_nanoseconds():
    rec = to_record(_synthetic_report())
    assert rec["per_call_outbound_ns"] == 2000
    assert rec["per_call_native_ns"] == 1000
    assert rec["per_call_inbound_ns"] == 3950
    assert rec["iterations"] == 1000
    assert rec["ratio"] == 2.0
    for key, value in rec.items():
        if key == "ratio":
            continue
        assert type(value) is int, key


def test_report_text_carries_the_reference_point():
    text = format_report(_synthetic_report())
    assert "outbound 49 us, native 3 us" in text
    assert "inbound 64 us" in text
    assert "outbound/native ratio: 2.0x" in text
    assert "per call    2.000 us" in text


def test_record_and_report_are_unchanged():
    r = _synthetic_report()
    assert to_record(r) == {
        "iterations": 1000, "empty_loop_ns": 1000000,
        "one_call_ns": 3000000, "two_calls_ns": 5000000,
        "per_call_outbound_ns": 2000, "native_empty_loop_ns": 1000000,
        "native_one_call_ns": 2000000, "native_two_calls_ns": 3000000,
        "per_call_native_ns": 1000, "ratio": 2.0,
        "inbound_iterations": 1000, "inbound_empty_loop_ns": 100000,
        "inbound_one_call_ns": 4000000, "inbound_two_calls_ns": 8000000,
        "per_call_inbound_ns": 3950,
    }
    assert list(to_record(r)) == [
        "iterations", "empty_loop_ns", "one_call_ns", "two_calls_ns",
        "per_call_outbound_ns", "native_empty_loop_ns",
        "native_one_call_ns", "native_two_calls_ns", "per_call_native_ns",
        "ratio", "inbound_iterations", "inbound_empty_loop_ns",
        "inbound_one_call_ns", "inbound_two_calls_ns", "per_call_inbound_ns",
    ]
    assert format_report(r) == (
        "outbound (script -> host proxy, N=1000)\n"
        "  empty loop  0.0010 s\n"
        "  one call    0.0030 s\n"
        "  two calls   0.0050 s\n"
        "  per call    2.000 us\n"
        "native (script closure, N=1000)\n"
        "  empty loop  0.0010 s\n"
        "  one call    0.0020 s\n"
        "  two calls   0.0030 s\n"
        "  per call    1.000 us\n"
        "inbound (host -> script wrapper, N=1000)\n"
        "  empty loop  0.0001 s\n"
        "  one call    0.0040 s\n"
        "  two calls   0.0080 s\n"
        "  per call    3.950 us\n"
        "outbound/native ratio: 2.0x\n"
        "reference point (1999 hardware): outbound 49 us, native 3 us"
        " (~16x), inbound 64 us")


def test_small_real_run_orders_the_costs():
    r = run_bench(3000)
    assert r.iterations == 3000
    assert r.inbound_iterations == 1000
    assert r.per_call_outbound_s > r.per_call_native_s > 0
    assert r.per_call_inbound_s > 0
    assert r.ratio == pytest.approx(
        r.per_call_outbound_s / r.per_call_native_s)
    # loops that do more work take longer
    assert r.two_calls_s > r.one_call_s > r.empty_loop_s
    text = format_report(r)
    assert "N=3000" in text


def test_first_call_dwarfs_the_steady_state():
    first, rest = measure_first_vs_rest(calls=4000, runs=3)
    assert first > rest > 0
