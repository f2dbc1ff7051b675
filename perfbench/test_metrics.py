"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import pytest

import run
from metrics import (
    OpLog,
    round_tail,
    self_times,
    speedup_err,
    tail,
    uncovered_s,
)
from repro.experiments.paper import FIG8_TDNUCA


class TestTail:
    def test_eleventh_largest_has_ten_samples_beyond(self):
        samples = list(range(1, 25))  # n = 24
        value, pct, n = tail(samples)
        assert (value, n) == (14, 24)
        assert sum(1 for s in samples if s > value) == 10
        assert pct == pytest.approx(100 * 14 / 24)

    def test_order_of_samples_does_not_matter(self):
        assert tail([5.0, 1.0, 3.0] * 7) == tail(sorted([5.0, 1.0, 3.0] * 7))

    def test_eleven_samples_give_the_minimum(self):
        value, pct, n = tail(list(range(11)))
        assert (value, n) == (0, 11)
        assert pct == pytest.approx(100 / 11)

    def test_ten_or_fewer_samples_report_the_maximum_as_p100(self):
        assert tail([3.0, 9.0, 1.0]) == (9.0, 100.0, 3)
        assert tail(list(range(10))) == (9, 100.0, 10)

    def test_no_samples_raise(self):
        with pytest.raises(ValueError):
            tail([])


class TestRoundTail:
    def test_fewer_than_two_rounds_is_the_pooled_tail(self):
        samples = [float(x) for x in range(79)]
        value, label = round_tail(samples)
        assert value == tail(samples)[0] == 68.0
        assert label == "p87.3 of n=79"

    def test_median_of_the_rounds_tails_in_time_order(self):
        # Three rounds of 40; each round's tail is its 11th-largest sample.
        rounds = [[base + x for x in range(40)] for base in (0.0, 100.0, 200.0)]
        value, label = round_tail([s for r in rounds for s in r])
        assert value == 129.0
        assert label == "median of 3 rounds' p75.0, n=120"

    def test_a_burst_in_a_minority_of_rounds_leaves_the_value(self):
        steady = [1.0 + (x % 7) / 100 for x in range(200)]
        burst = steady[:]
        burst[0:40] = [9.0] * 40  # the whole first round is slow
        burst[150:155] = [7.0] * 5
        assert round_tail(burst)[0] == round_tail(steady)[0]
        # Pooled, the same burst would move the 11th-largest sample.
        assert tail(burst)[0] != tail(steady)[0]

    def test_uneven_rounds_cover_every_sample(self):
        value, label = round_tail(list(range(85)), round_min=40)
        # Rounds of 42 and 43: tails 31 and 74, median 52.5.
        assert value == 52.5
        assert label == "median of 2 rounds' p76.2-p76.7, n=85"


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            span("executor", 0, 100),
            span("task", 10, 40, 0),
            span("kernel", 20, 30, 1),
            span("tdg", 50, 60, 0),
        ]
        got = self_times(spans)
        assert got["executor"] == pytest.approx(60e-9)
        assert got["task"] == pytest.approx(20e-9)
        assert got["kernel"] == pytest.approx(10e-9)
        assert got["tdg"] == pytest.approx(10e-9)
        # Self times partition the root span.
        assert sum(got.values()) == pytest.approx(100e-9)

    def test_same_layer_spans_accumulate(self):
        spans = [span("isa", 0, 10), span("isa", 20, 25), span("isa", 2, 4, 0)]
        assert self_times(spans)["isa"] == pytest.approx(15e-9)

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [
            span("parent", 0, 100),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),
            span("c", 90, 120, 0),
        ]
        assert self_times(spans)["parent"] == pytest.approx(30e-9)

    def test_uncovered_is_wall_time_outside_every_root(self):
        spans = [span("a", 0, 400_000_000), span("b", 200_000_000, 600_000_000),
                 span("c", 100, 200, 0)]
        assert uncovered_s(spans, 1.0) == pytest.approx(0.4)


class TestSpeedupErr:
    def makespans(self, speedups):
        out = {}
        for bench, speedup in speedups.items():
            out[(bench, "snuca")] = 1_000_000
            out[(bench, "tdnuca")] = 1_000_000 / speedup
        return out

    def test_exact_paper_speedups_give_zero(self):
        assert speedup_err(self.makespans(FIG8_TDNUCA),
                           FIG8_TDNUCA) == pytest.approx(0.0)

    def test_mean_absolute_error_over_every_benchmark(self):
        # Half the benchmarks 0.1 too fast, half 0.3 too slow: mean 0.2.
        benches = sorted(FIG8_TDNUCA)
        speedups = {
            b: FIG8_TDNUCA[b] + (0.1 if i % 2 else -0.3)
            for i, b in enumerate(benches)
        }
        assert speedup_err(self.makespans(speedups),
                           FIG8_TDNUCA) == pytest.approx(0.2)

    def test_a_missing_cell_raises_instead_of_shrinking_the_mean(self):
        makespans = self.makespans(FIG8_TDNUCA)
        del makespans[("gauss", "tdnuca")]
        with pytest.raises(KeyError):
            speedup_err(makespans, FIG8_TDNUCA)


class TestFailures:
    def test_failed_op_raises_fail_ratio(self):
        ops = OpLog()
        for label in ("a", "b", "c"):
            ops.record(label, True)
        ops.record("gauss/tdnuca", False, "Timeout: worker exceeded the deadline")
        assert (ops.attempted, ops.failed) == (4, 1)
        assert ops.fail_ratio == pytest.approx(0.25)

    def test_mismatch_is_a_failed_op_not_a_dropped_one(self):
        ops, checks = OpLog(), run.new_checks()
        good = {"makespan_cycles": 10}
        assert run.check_cell(ops, "x/snuca", good, None, good, checks)
        assert not run.check_cell(ops, "y/snuca", {"makespan_cycles": 11},
                                  None, good, checks)
        assert not run.check_cell(ops, "z/snuca", good,
                                  {"makespan_cycles": 12}, good, checks)
        assert (ops.attempted, ops.failed, ops.wrong) == (3, 2, 2)
        assert checks == {"golden": [0, 1], "reference": [1, 1]}

    def test_golden_takes_precedence_over_the_reference(self):
        ops, checks = OpLog(), run.new_checks()
        golden = {"makespan_cycles": 10}
        assert run.check_cell(ops, "x/snuca", golden, golden,
                              {"makespan_cycles": 99}, checks)
        assert checks == {"golden": [1, 0], "reference": [0, 0]}

    def test_a_timed_out_op_fails_without_marking_outputs_wrong(self):
        ops = OpLog()
        ops.record("histo/tdnuca", False, "Timeout: worker exceeded the deadline")
        assert ops.fail_ratio == 1.0
        assert ops.wrong == 0

    def test_an_unchecked_op_fails(self):
        ops, checks = OpLog(), run.new_checks()
        assert not run.check_cell(ops, "x/snuca", {}, None, None, checks)
        assert (ops.failed, ops.wrong) == (1, 0)


def test_job_latencies_pair_each_start_with_its_end():
    events = [
        ("start", "a", 0), ("start", "b", 1_000_000_000),
        ("ok", "a", 2_000_000_000), ("timeout", "b", 11_000_000_000),
    ]
    assert run._job_latencies(events) == {"a": 2.0, "b": 10.0}
    tracks = run._job_tracks(events)
    assert [len(spans) for spans in tracks.values()] == [1, 1]


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
