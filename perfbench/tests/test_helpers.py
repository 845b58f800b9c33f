"""Unit tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calibration  # noqa: E402
import glyphs  # noqa: E402
import stats  # noqa: E402
from tracing import Instrumentation, Span, Target, Tracer, self_times, summarise  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.child", 5.0, 6.0, 3, 0),
        Span("b.child", 8.0, 9.0, 3, 0),
        Span("other-root", 20.0, 21.5, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.5])
    summary = summarise(spans)
    assert summary["b.child"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert summary["root"]["total_s"] == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("c1", 1.0, 5.0, 0, 0),
        Span("c2", 3.0, 7.0, 0, 0),       # overlaps c1 by 2
        Span("c3", 9.0, 12.0, 0, 0),      # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_run_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer_index = tracer.begin("outer")
    tracer.run = 3
    tracer.end(tracer.begin("inner"))
    tracer.end(outer_index)
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.run) == (-1, 0, 3)
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)


def test_missing_target_warns_and_calls_outside_a_stage_count_zero(tmp_path, monkeypatch):
    module = tmp_path / "fake_kanmark_module.py"
    module.write_text("def helper(x):\n    return x + 1\n\n"
                      "def caller(x):\n    return helper(x) * 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fake_kanmark_module as fake

    warnings = []
    tracer = Tracer()
    patches = Instrumentation(tracer, [
        Target("fake.helper", "fake_kanmark_module", "helper",
               (("x", lambda a, r: a["x"]),)),
        Target("fake.removed", "fake_kanmark_module", "removed_helper"),
        Target("fake.gone", "no_such_module_here", "anything"),
    ], warn=warnings.append)
    try:
        assert fake.caller(3) == 8                  # a check between stages
        stage = tracer.begin("stage.call")
        assert fake.caller(4) == 10
        tracer.end(stage)
    finally:
        patches.remove()
    assert fake.caller(1) == 4 and len(tracer.spans) == 2
    assert summarise(tracer.spans)["fake.helper"]["calls"] == 1
    assert tracer.counters["fake.helper.x"] == 4
    assert len(warnings) == 2 and "removed_helper" in warnings[0]
    assert "fake.removed" not in summarise(tracer.spans)


# -- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_samples_beyond_the_nearest_rank():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(20, 50) == 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0


# -- host speed ----------------------------------------------------------------

def test_speed_scales_wall_time_to_the_nominal_host():
    nominal = (calibration.NUMPY_NOMINAL_S, calibration.PYTHON_NOMINAL_S)
    slow = (2 * nominal[0], 2 * nominal[1])
    assert calibration.speed(nominal) == pytest.approx(1.0)
    assert calibration.speed(slow) == pytest.approx(0.5)
    assert calibration.speed(nominal, (3 * nominal[0], 3 * nominal[1])) == pytest.approx(0.5)
    # Only the numpy kernel slowed by 4x: the factor is the geometric mean.
    assert calibration.speed((4 * nominal[0], nominal[1])) == pytest.approx(0.5)


# -- glyph generator ------------------------------------------------------------

def test_glyphs_are_deterministic_under_a_fixed_seed():
    a_inputs, a_labels = glyphs.generate(200, seed=5)
    b_inputs, b_labels = glyphs.generate(200, seed=5)
    assert np.array_equal(a_inputs, b_inputs) and np.array_equal(a_labels, b_labels)
    c_inputs, _ = glyphs.generate(200, seed=6)
    assert not np.array_equal(a_inputs, c_inputs)


def test_glyphs_shape_range_and_balance():
    inputs, labels = glyphs.generate(1000, seed=1)
    assert inputs.shape == (1000, 64) and labels.dtype == np.int64
    assert inputs.min() >= -1.0 and inputs.max() <= 1.0
    assert np.bincount(labels, minlength=10).tolist() == [100] * 10
