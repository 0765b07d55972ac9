"""Self-tests for the benchmark harness: span self time, wrapper
transparency, failure-aware latency percentiles, the gate on ops that raise,
times in reference seconds, and agreement between BENCHMARK.json and the
metrics the harness prints.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import atlab
import atlab.density
import atlab.theorems
from atlab.errors import CapacityError

import latency
import run
import speed
from spans import BOUNDARIES, Recorder, layer_metrics
from workloads import WORKLOADS, OpLog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock)

    def inner():
        clock.advance(3)

    wrapped_inner = rec.wrap("density.max_density", inner, "m")

    def outer():
        clock.advance(1)
        wrapped_inner()
        clock.advance(2)
        wrapped_inner()
        clock.advance(1)

    wrapped_outer = rec.wrap("theorems.check", outer, "m")
    rec.recording = True
    with rec.op("one"):
        clock.advance(1)
        wrapped_outer()

    counts = rec.take_counts()
    assert counts["density.max_density"]["calls"] == 2
    assert counts["density.max_density"]["self_s"] == 6
    assert counts["theorems.check"]["calls"] == 1
    assert counts["theorems.check"]["self_s"] == 4
    spans = {s[3]: s for s in rec.spans}
    op_span, outer_span = spans["op.one"], spans["theorems.check"]
    assert op_span[6] == 1 and op_span[5] - op_span[4] == 11
    assert outer_span[2] == op_span[0]
    inner_spans = [s for s in rec.spans if s[3] == "density.max_density"]
    assert [s[2] for s in inner_spans] == [outer_span[0]] * 2
    assert all(s[1] == op_span[0] for s in rec.spans)
    assert sum(s[6] for s in rec.spans) == 11


def test_wrapper_returns_value_unchanged():
    rec = Recorder()
    sentinel = object()

    def fn(a, b=None):
        return (sentinel, a, b)

    wrapped = rec.wrap("atsolver.orient", fn, "m")
    for recording in (False, True):
        rec.recording = recording
        result = wrapped(1, b=2)
        assert result[0] is sentinel and result[1:] == (1, 2)
    assert wrapped.__name__ == "fn"


def test_wrapper_lets_capacity_error_through():
    rec = Recorder()

    def over_budget(_d):
        raise CapacityError("over budget")

    wrapped = rec.wrap("eulerian.poly", over_budget, "m")
    rec.recording = True
    with pytest.raises(CapacityError, match="over budget"):
        wrapped(None)
    counts = rec.take_counts()["eulerian.poly"]
    assert counts["calls"] == 1 and counts["capacity_errors"] == 1
    assert not rec._stack


def test_install_wraps_every_binding_and_uninstall_restores():
    original = atlab.density.max_density
    rec = Recorder()
    rec.install()
    try:
        for module in (atlab, atlab.density, atlab.atsolver, atlab.theorems):
            assert module.max_density is not original
        rec.recording = True
        atlab.theorems.max_density(atlab.cycle(4))
        atlab.density.max_density(atlab.cycle(4))
        rec.recording = False
    finally:
        rec.uninstall()
    for module in (atlab, atlab.density, atlab.atsolver, atlab.theorems):
        assert module.max_density is original
    counts = rec.take_counts()["density.max_density"]
    assert counts["calls"] == 2 and counts["evidence_calls"] == 1


def test_wrappers_record_nothing_while_paused():
    rec = Recorder()
    wrapped = rec.wrap("graphs.build", lambda: 1, "m")
    assert wrapped() == 1
    assert rec.spans == [] and rec.take_counts()["graphs.build"]["calls"] == 0


def test_p50_ranks_undecided_ops_above_decided_ones():
    charged = [latency.charged_ms(s, d) for s, d in
               [(0.001, True), (0.002, True), (0.003, True), (0.0001, False)]]
    assert latency.p50(charged) == pytest.approx(2.0)
    undecided_majority = [latency.charged_ms(0.5, True)] + [
        latency.charged_ms(0.001, False)] * 2
    assert latency.p50(undecided_majority) > 1000 * 60


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert latency.tail([1.0] * 10) is None
    assert latency.tail([float(i) for i in range(99)]) is None  # p89.9 is no tail
    pct, value = latency.tail([float(i) for i in range(100)])
    assert pct == 90.0 and value == 89.0
    pct, value = latency.tail([float(i) for i in range(1000)])
    assert pct == 99.0 and value == 989.0


def test_deciding_an_op_never_raises_a_percentile():
    rng = random.Random(5)
    for _ in range(200):
        ops = [(rng.random(), rng.random() < 0.5) for _ in range(rng.randint(100, 140))]
        undecided = [i for i, (_, decided) in enumerate(ops) if not decided]
        if not undecided:
            continue
        before = [latency.charged_ms(s, d) for s, d in ops]
        ops[rng.choice(undecided)] = (rng.random() * 100, True)  # decided, but slower
        after = [latency.charged_ms(s, d) for s, d in ops]
        assert latency.p50(after) <= latency.p50(before)
        assert latency.tail(after)[1] <= latency.tail(before)[1]


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    names = list(layer_metrics(Recorder().take_counts())) + ["trace.overhead_s"]
    names += list(run.RUN_UNITS)
    expected = {n: run.RUN_UNITS.get(n) or run.layer_unit(n) for n in names}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected
    assert {w["name"] for w in spec["workloads"]} == {"suite", "exact", "reach", "verify"}
    assert {b[0] for b in BOUNDARIES} == {n.rsplit(".", 1)[0] for n in names
                                         if n.count(".") == 2}


class NoSpeed:
    def maybe_sample(self):
        return 0.0


def test_a_raise_is_wrong_unless_declared_undecided():
    log = OpLog(NoSpeed())

    def crash():
        raise AssertionError("diff 0")

    def over_cap():
        raise CapacityError("over cap")

    for fn in (crash, over_cap):
        with pytest.raises(Exception):
            log.run(fn.__name__, fn)
    wrong = run.judge(WORKLOADS["exact"], [], log.ops)
    assert wrong == ["crash: raised AssertionError: diff 0"]
    assert [op.decided for op in log.ops] == [False, False]


def test_a_pass_that_raises_is_wrong():
    class Broken:
        def run_pass(self, inputs, log):
            raise RuntimeError("broken")

        def judge_pass(self, inputs, ops):
            pass

    class Setup:
        def catch_up(self, done):
            pass

    ref = speed.SpeedRef(loop=lambda: None)
    passes, wrong = run.run_passes(Broken(), None, 0.001, Setup(), ref)
    assert len(passes) == 1 and wrong == ["pass raised RuntimeError: broken"]


def test_nested_op_calls_are_part_of_the_outer_op():
    log = OpLog(NoSpeed())
    inner = lambda: 1  # noqa: E731
    assert log.run("outer", lambda: log.run("inner", inner) + 1) == 2
    assert [op.name for op in log.ops] == ["outer"]


def test_reference_seconds_cancel_a_change_of_machine_speed():
    clock = FakeClock()
    slowdown = [1.0]

    def loop():
        clock.advance(speed.REF_S * slowdown[0])

    ref = speed.SpeedRef(clock, loop)
    spans = []
    for slow in (1.0, 1.0, 2.0, 2.0, 2.0, 1.0):
        slowdown[0] = slow
        ref.sample()
        start = clock.now
        clock.advance(0.3 * slow)  # the same work, at the machine's speed
        spans.append((clock.now - start, start, clock.now))
    ref.sample()
    # each time is scaled by the median of two samples either side of it
    assert [s[0] for s in spans[2:4]] == [pytest.approx(0.6)] * 2
    assert [ref.ref_seconds(*s) for s in spans[2:4]] == [pytest.approx(0.3)] * 2
    assert ref.ref_seconds(*spans[0]) == pytest.approx(0.3)
