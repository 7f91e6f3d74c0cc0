"""Self-tests for the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from summary import metric, percentile, timing  # noqa: E402


def span(name, start, end, parent=-1, extra=None):
    return [name, float(start), float(end), parent, extra]


# Two steps, [0, 10] and [10, 20], after a set-up span at [-2, -1]:
#   step 0: directions.dual_gn_direction [1, 6] with children
#           models.vjp [2, 3] and losses.softmax [3.5, 5] (which has its own
#           child models.forward [4, 4.5]); trainer._armijo_backtrack [7, 9]
#           with one models.forward [7.5, 8.5]
#   step 1: trainer.outer_update [12, 13]
TREE = [
    span("trainer._full_metrics", -2, -1),
    span("directions.dual_gn_direction", 1, 6, extra=100),
    span("models.vjp", 2, 3, parent=1),
    span("losses.softmax", 3.5, 5, parent=1),
    span("models.forward", 4, 4.5, parent=3),
    span(spans.LINESEARCH, 7, 9, extra=1),
    span("models.forward", 7.5, 8.5, parent=5),
    span("trainer.outer_update", 12, 13),
]
STEPS = [(0.0, 10.0), (10.0, 20.0)]


def test_self_time_is_duration_minus_covered_child_time():
    step_of, self_s, root_self = spans.attribute(TREE, STEPS)
    assert step_of == [None, 0, 0, 0, 0, 0, 0, 1]
    assert self_s == pytest.approx([1.0, 2.5, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0])
    assert root_self == pytest.approx([10 - 5 - 2, 10 - 1])


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert spans.covered(0, 10, [(1, 4), (2, 3), (3, 6), (8, 12)]) == pytest.approx(7.0)
    assert spans.covered(0, 10, []) == 0.0


def test_layer_self_times_add_up_to_step_time():
    totals = spans.layer_totals(TREE, STEPS)
    layers = [k for k in totals if k.endswith(".self_s")]
    assert sum(totals[k] for k in layers) == pytest.approx(totals["step_s"]) == pytest.approx(20.0)
    assert totals["trainer.self_s"] == pytest.approx(3 + 9 + 1 + 1)
    assert totals["forward_passes"] == 2
    assert totals["linesearch_evals"] == 1
    assert "trainer._full_metrics.calls" not in totals  # set-up, outside every step


def test_layer_metrics_per_step_and_per_call():
    values = spans.layer_metrics(spans.layer_totals(TREE, STEPS))
    assert values["models.forward_calls_per_step"] == pytest.approx(1.0)
    assert values["models.vjp_ms_per_call"] == pytest.approx(1000.0)
    assert values["directions.total_ms_per_step"] == pytest.approx(2500.0)
    assert values["directions.self_ms_per_step"] == pytest.approx(1250.0)
    assert values["directions.vector_op_scalars_per_step"] == pytest.approx(50.0)
    assert values["trainer.linesearch_trials_per_step"] == 0.0  # the one eval is h(w)
    assert values["trainer.linesearch_accept_ratio"] == 0.0
    assert values["cgsolver.self_ms_per_step"] == 0.0


def test_span_lines_link_top_level_spans_to_their_step_root():
    rows = spans.span_lines(TREE, STEPS, id_base=100, step_base=7)
    roots = {r["id"]: r for r in rows if r["name"] == "trainer.step"}
    assert sorted(r["step"] for r in roots.values()) == [7, 8]
    by_name = {r["name"]: r for r in rows}
    assert by_name["trainer._full_metrics"]["parent"] is None
    assert by_name["trainer._full_metrics"]["step"] is None
    outer = by_name["trainer.outer_update"]
    assert roots[outer["parent"]]["step"] == outer["step"] == 8
    vjp = by_name["models.vjp"]
    assert rows[vjp["parent"] - 100]["name"] == "directions.dual_gn_direction"


def test_percentile_interpolates_between_ranks():
    sample = list(range(1, 11))
    assert percentile(sample, 50) == pytest.approx(5.5)
    assert percentile(sample, 90) == pytest.approx(9.1)
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_timing_reports_the_sample_count():
    out = timing("step_ms", [4.0, 1.0, 2.0, 3.0])
    assert out == {
        "step_ms_p50": {"value": 2.5, "unit": "ms", "n": 4},
        "step_ms_p90": {"value": pytest.approx(3.7), "unit": "ms", "n": 4},
    }
    assert metric(1, "MB") == {"value": 1.0, "unit": "MB"}


def test_tracing_off_leaves_every_attribute_the_package_object():
    from dualgn import directions, losses, models, trainer

    before = spans.current_objects()
    assert before[("dualgn.trainer", "loss_value")] is losses.loss_value
    assert before[("dualgn.directions", "cg_solve")] is directions.cg_solve
    assert before[("MLPModel", "jvp")] is vars(models.MLPModel)["jvp"]
    assert all(not hasattr(obj, "__wrapped__") for obj in before.values())

    tracer = spans.Tracer()
    tracer.install()
    try:
        during = spans.current_objects()
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
        model = models.make_model("mlp:3", 2, 2)
        trainer._full_metrics(model, model.init_params(0), [[0.0, 1.0]], [[1.0, 0.0]], "logistic")
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.drain()]
    assert names[:3] == ["trainer._full_metrics", "models.forward", "models.forward_trace"]
    after = spans.current_objects()
    assert all(after[k] is before[k] for k in before)
