"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from tracing import SpanTable, Tracer, load_spans  # noqa: E402


def table(spans):
    """SpanTable from (name, start, end, parent) tuples in start order."""
    names = sorted({s[0] for s in spans})
    return SpanTable(
        names,
        [names.index(s[0]) for s in spans],
        [s[1] for s in spans],
        [s[2] for s in spans],
        [s[3] for s in spans],
        [0] * len(spans),
    )


# -- self time -------------------------------------------------------------------

def test_self_time_subtracts_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    t = table([
        ("lie.a", 0.0, 10.0, -1),
        ("fields.b", 1.0, 4.0, 0),
        ("laurent.d", 2.0, 3.0, 1),
        ("fields.c", 5.0, 9.0, 0),
    ])
    assert t.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_sum_to_root_durations():
    t = table([
        ("a.x", 0.0, 8.0, -1),
        ("b.y", 0.5, 2.5, 0),
        ("b.y", 3.0, 7.0, 0),
        ("c.z", 3.5, 6.0, 2),
        ("a.x", 10.0, 12.0, -1),
    ])
    assert sum(t.self_times()) == pytest.approx(8.0 + 2.0)


def test_inclusive_counts_recursion_once():
    # component_power calling itself: the outer span already covers the inner
    t = table([
        ("laurent.p", 0.0, 5.0, -1),
        ("laurent.p", 1.0, 4.0, 0),
        ("laurent.p", 2.0, 3.0, 1),
        ("laurent.p", 6.0, 7.0, -1),
    ])
    assert t.outermost(t.ids(lambda n: n == "laurent.p")) == [0, 3]
    assert t.inclusive(t.ids(lambda n: n == "laurent.p")) == pytest.approx(6.0)


def test_has_descendant_marks_every_ancestor():
    t = table([
        ("laurent.monomial_image", 0.0, 5.0, -1),
        ("laurent.component_power", 1.0, 4.0, 0),
        ("laurent.mul_truncated", 2.0, 3.0, 1),
        ("laurent.monomial_image", 6.0, 7.0, -1),
    ])
    assert t.has_descendant("laurent.mul_truncated") == [True, True, False, False]


def test_recorder_nests_spans_and_counts_errors_at_layer_exit():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = tracer.span_wrapper(inner, "laurent.inner", "laurent")

    def same_layer(x):
        return inner_w(x)

    def other_layer(x):
        return same_layer_w(x)

    same_layer_w = tracer.span_wrapper(same_layer, "laurent.outer", "laurent")
    other_w = tracer.span_wrapper(other_layer, "fields.call", "fields")
    tracer.active = True
    tracer.case = 7
    assert other_w(3) == 3
    with pytest.raises(ValueError):
        other_w(-1)
    t = tracer.spans()
    assert [t.name(i) for i in range(len(t))] == ["fields.call", "laurent.outer", "laurent.inner"] * 2
    assert list(t.parent) == [-1, 0, 1, -1, 3, 4]
    assert set(t.case_of) == {7}
    # the error leaves laurent once and fields once, not once per span
    assert tracer.errors == {"laurent": 1, "fields": 1}
    tracer.active = False
    assert other_w(5) == 5
    assert len(tracer.spans()) == 6


def test_dump_round_trips(tmp_path):
    tracer = Tracer()
    f = tracer.span_wrapper(lambda: None, "a.f", "a")
    tracer.active = True
    f()
    f()
    path = tmp_path / "spans.bin.gz"
    tracer.dump(path)
    back = load_spans(path)
    assert list(back.start) == list(tracer.start)
    assert [back.name(i) for i in range(len(back))] == ["a.f", "a.f"]


# -- percentiles -------------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    q = statistics.quantiles(xs, n=100, method="inclusive")
    for p in (5, 25, 50, 75, 95):
        assert stats.percentile(xs, p) == pytest.approx(q[p - 1])


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)


@pytest.mark.parametrize("n, expected", [(200, 95), (199, 90), (100, 90), (40, 75), (39, None), (6, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_geometric_mean():
    assert stats.geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geometric_mean([1.0, 0.0])


def test_by_case_groups_repetitions_by_case():
    runs = [[0, 4.0], [1, 0.2], [0, 2.0], [1, 0.1], [0, 3.0], [2, 7.0]]
    assert stats.by_case(runs, 3, lambda c: c[1]) == [[4.0, 2.0, 3.0], [0.2, 0.1], [7.0]]
    with pytest.raises(ValueError):
        stats.by_case(runs, 4, lambda c: c[1])


# -- calibration ----------------------------------------------------------------------

def test_calibration_kernel_is_deterministic():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.measure(calls=2) > 0


def test_sampler_interrupts_the_running_code_and_accounts_its_time():
    import time

    import calibrate

    with calibrate.Sampler(every_s=0.02) as sampler:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.took) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.took))
    # the samples' CPU time is kept apart from their wall time, so a case
    # interrupted by a sample that was preempted keeps a positive CPU time
    assert 0 < sampler.spent_cpu <= sampler.spent + 1e-3
    assert sampler.at == sorted(sampler.at)


def test_each_case_is_scaled_by_the_samples_around_it():
    import calibrate

    sampler = calibrate.Sampler()
    sampler.at = [0.0, 1.0, 2.0, 10.0]
    sampler.took = [0.1, 0.2, 0.3, 0.9]
    assert sampler.around(1.5, 1.6, margin=0.5) == pytest.approx(0.25)
    assert sampler.around(0.0, 2.0, margin=0.0) == pytest.approx(0.2)
    # no sample in the window: the nearest one
    assert sampler.around(8.0, 8.5, margin=0.1) == pytest.approx(0.9)
    assert sampler.around(4.0, 4.5, margin=0.1) == pytest.approx(0.3)


# -- failure share -------------------------------------------------------------------

def test_fail_share_counts_failed_over_attempted():
    assert stats.fail_share(0, 200) == 0.0
    assert stats.fail_share(3, 200) == pytest.approx(0.015)
    assert stats.fail_share(0, 0) == 1.0
    with pytest.raises(ValueError):
        stats.fail_share(5, 4)


def test_every_verify_all_seed_has_a_reference():
    from workloads import REFERENCE_SEEDS, WORKLOADS

    wl = WORKLOADS["verify-all"]
    for seed in (0, REFERENCE_SEEDS - 1, REFERENCE_SEEDS, 123456789):
        rc, text = wl.expected(seed)
        report = json.loads(text)
        assert len(report["claims"]) == 11
        assert rc == (0 if all(c["status"] == "pass" for c in report["claims"]) else 1)


# -- exp-log-roundtrip inputs ---------------------------------------------------------

def _germcalc_types():
    sys.path.insert(0, str(HERE.parent / "src"))
    from germcalc.fields import VectorField
    from germcalc.laurent import LaurentPoly
    from germcalc.scalars import Scalar

    return Scalar, LaurentPoly, VectorField


def _fields(seed, count=60):
    import random

    from workloads import random_nilpotent_field

    types = _germcalc_types()
    shape = random.Random("shapes")
    value = random.Random(seed)
    return [random_nilpotent_field(shape, value, 3, 4, types) for _ in range(count)]


def test_exp_log_inputs_repeat_per_seed_and_share_shapes():
    a, b, c = _fields(1), _fields(1), _fields(2)
    assert a == b
    assert a != c
    # the drawn terms are common to all seeds; only values differ, and two
    # terms drawn on one monomial can cancel for some values
    def support(X):
        return [sorted(p.terms) for p in X.coeffs]
    same = sum(support(x) == support(y) for x, y in zip(a, c))
    assert same >= 0.9 * len(a)
    assert all(X.is_nilpotent() for X in a)


def test_exp_log_coefficients_follow_the_pool_distribution():
    import random
    from collections import Counter

    from workloads import random_coefficient

    shape, value = random.Random(5), random.Random(6)
    counts = Counter(random_coefficient(shape, value) for _ in range(80000))
    assert counts[0] / 80000 == pytest.approx(2 / 8, abs=0.01)
    for v in (1, -1, 2, -2):
        assert counts[v] / 80000 == pytest.approx(1 / 8, abs=0.01)


# -- BENCHMARK.json ----------------------------------------------------------------

def test_benchmark_json_matches_the_result_lines():
    import re

    from layers import PER_LAYER

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in PER_LAYER]
    from run import LINE_METRICS
    assert tuple(m["name"] for m in spec["end_to_end"]) == LINE_METRICS
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_per_layer_reads_counters_calls_and_layer_spans():
    from layers import PER_LAYER, per_layer

    t = table([
        ("spans.insert", 0.0, 1.0, -1),
        ("spans.insert", 2.0, 3.0, -1),
        ("laurent.mul_truncated", 4.0, 6.0, -1),
    ])
    calls = {"spans.insert": 2, "laurent.mul_truncated": 1, "spans.insert.accepted": 1,
             "scalars.mul": 5, "scalars.mul.real_calls": 4}
    out = per_layer({}, t, calls)
    assert [name for name, _ in PER_LAYER] == list(out)
    assert out["spans.insert.calls"]["value"] == 2
    assert out["spans.insert.accepted"]["value"] == 1
    assert out["scalars.mul.real_calls"]["value"] == 4
    assert out["families.calls"]["value"] == 0
    assert out["laurent.mul_truncated.s"]["value"] == pytest.approx(2.0)
    assert out["trace.spans"]["value"] == 3
    assert out["laurent.monomial_image.hits"]["value"] == 0
