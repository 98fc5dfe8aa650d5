"""Tests of the benchmark's own machinery: failure accounting, the
percentile rule, self time of nested spans, seeded inputs, span wrappers.
None of them runs the library."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import harness  # noqa: E402
import inputs  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402


class _FakeOp:
    def __init__(self, kind, run, check):
        self.kind, self.run, self.check, self.size = kind, run, check, 1.0


class _FakeWorkload:
    """Per cycle: one op that works, one that raises, one whose output
    misses its oracle."""

    headline = ("good",)

    def ops(self, index):
        def boom():
            raise ValueError("no")
        yield _FakeOp("good", lambda: 1, lambda out, ledger: (True, 2, None))
        yield _FakeOp("raises", boom, lambda out, ledger: (True, 1, None))
        yield _FakeOp("wrong", lambda: 1,
                      lambda out, ledger: (False, 0, harness.oracle_miss("off")))


def test_failed_op_is_never_a_latency_sample_or_work():
    ledger = harness.Ledger()
    cycles = run.closed_loop(_FakeWorkload(), ledger, cycles=3)
    assert cycles == 3
    assert len(ledger.records) == 9
    assert len(ledger.latencies(["good", "raises", "wrong"])) == 3
    assert ledger.latencies(["raises"]) == [] and ledger.latencies(["wrong"]) == []
    assert ledger.work(["raises", "wrong"]) == 0
    assert ledger.work(["good"]) == 6
    summary = ledger.kind_summary("raises")
    assert summary["ops_failed"] == 3
    assert summary["failures_by_class"] == {"ValueError": 3}
    assert summary["first_failure"]["origin"] == "foreign"
    assert ledger.wrong_answers == 3          # only the oracle misses
    assert ledger.clean(["good"]) and not ledger.clean(["good", "raises"])
    assert set(run.headline_metrics(_FakeWorkload(), ledger)) == {"op_p50_ms_norm", "work_per_s_norm"}


def test_headline_metrics_left_out_when_a_headline_op_failed():
    ledger = harness.Ledger()
    ledger.add("good", 1, 0.1, True, 1)
    ledger.add("good", 2, 0.1, False, 1, harness.oracle_miss("off"))
    assert run.headline_metrics(_FakeWorkload(), ledger) == {}


def test_latency_samples_are_per_unit_of_input_size():
    ledger = harness.Ledger()
    ledger.add("good", 1, 0.4, True, 1, norm_seconds=0.2, size=2.0)
    assert ledger.latencies(["good"]) == [0.2]
    assert ledger.latencies(["good"], norm=True) == [0.1]
    assert ledger.busy_seconds(["good"]) == 0.4


def test_importtime_lines_give_cumulative_seconds():
    import layers
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       389 |       9283 |   scipy\n"
            "import time:       471 |     533243 | qshje\n")
    seconds = layers.parse_importtime(text)
    assert seconds == {"scipy": 9283e-6, "qshje": 533243e-6}
    metrics = layers.startup_metrics(seconds)
    assert metrics["startup.qshje.import_s"] == (533243e-6, "s")
    assert metrics["startup.numpy.import_s"] == (0.0, "s")


def test_closed_loop_stops_after_whole_cycles_once_time_is_up():
    ledger = harness.Ledger()
    cycles = run.closed_loop(_FakeWorkload(), ledger, seconds=1e-9)
    assert cycles == 1 and len(ledger.records) == 3


@pytest.mark.parametrize("n, p, beyond", [(20, 50, 10), (100, 90, 10),
                                          (250, 96, 10), (1000, 99, 10),
                                          (37, 72, 10)])
def test_percentile_rule_highest_with_ten_beyond(n, p, beyond):
    samples = list(range(n, 0, -1))           # unsorted input
    got_p, value, count = harness.tail_percentile(samples)
    assert (got_p, count) == (p, n)
    assert sum(1 for s in samples if s > value) == beyond
    if p < 99:                                # the next percentile has fewer beyond it
        rank = ((p + 1) * n + 99) // 100
        assert n - rank < 10


def test_percentile_rule_needs_twenty_samples():
    assert harness.tail_percentile(list(range(19))) is None


def test_self_time_of_nested_spans():
    S = harness.Span
    spans = [
        S("root", 0.0, 10.0, None, 1, 1),
        S("child", 1.0, 4.0, 0, 1, 1),
        S("grandchild", 2.0, 3.0, 1, 1, 1),
        S("worker", 3.0, 6.0, 0, 1, 2),       # overlaps "child" on another thread
        S("leaf", 7.0, 9.5, 0, 1, 1),
    ]
    assert harness.self_times(spans) == pytest.approx([10 - 5 - 2.5, 2, 1, 3, 2.5])
    assert harness.has_ancestor(spans, 2, "root")
    assert not harness.has_ancestor(spans, 0, "root")


def test_tracer_nests_spans_and_charges_worker_threads_to_the_open_op():
    import threading
    tracer = harness.Tracer()
    tracer.op_id = 7
    outer = tracer.begin("op.x")
    inner = tracer.begin("inner")
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("fanned")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(inner)
    tracer.end(outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == outer
    assert by_name["fanned"].parent == inner and by_name["fanned"].op == 7
    assert by_name["fanned"].thread != by_name["inner"].thread
    assert all(s.end is not None for s in tracer.spans)


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", ["bound", "trajectory", "cli"])
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 11, cycles=3)
    assert _same(first, inputs.generate(workload, 11, cycles=3))
    assert not _same(first, inputs.generate(workload, 12, cycles=3))


def test_every_cli_cycle_has_each_command_and_the_repeat_last():
    for cycle in inputs.generate("cli", 5, cycles=4):
        kinds = [op["kind"] for op in cycle]
        assert kinds[-1] == "repeat"
        assert sorted(kinds[:-1]) == sorted(
            ["trajectory", "spherical", "spherical", "trajectory", "sweep"] * 2 + ["quantize"]
            + [f"malformed.{name}" for name, _ in inputs.MALFORMED])
        assert cycle[-1]["argv"] in [op["argv"] for op in cycle if op["kind"] == "trajectory"]


def test_wrapper_keeps_return_values_and_exceptions():
    tracer = harness.Tracer()
    err = KeyError("k")

    def ok(x):
        return [x]

    def bad():
        raise err

    wrapped_ok = instrument._wrap(tracer, "m.ok", ok, lambda a, k, r: len(r))
    wrapped_bad = instrument._wrap(tracer, "m.bad", bad, lambda a, k, r: 1 / 0)
    assert wrapped_ok(3) == [3]
    with pytest.raises(KeyError) as info:
        wrapped_bad()
    assert info.value is err
    assert [(s.name, s.work) for s in tracer.spans] == [("m.ok", 1), ("m.bad", None)]
