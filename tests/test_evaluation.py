"""Tests of the ranking metrics and the parallel evaluation harness."""

import math

import pytest

from repro.core import registry
from repro.evaluation import (
    MeasureConfig,
    TableScore,
    evaluate_specs,
    normalized_rank_at_max_recall,
    pr_auc,
    precision_recall_points,
    rank_at_max_recall,
    ranking_summary,
    separation,
)
from repro.evaluation.harness import EvaluationResult
from repro.synthetic import benchmark_specs

FAST_CONFIG = MeasureConfig()


# ----------------------------------------------------------------------
# PR-AUC on known rankings
# ----------------------------------------------------------------------
def test_pr_auc_perfect_ranking_is_one():
    assert pr_auc([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(1.0)


def test_pr_auc_inverted_ranking_known_value():
    # Positives ranked last: points (0, 0), (0, 0), (0.5, 1/3), (1.0, 0.5),
    # anchored at (0, 0): area = 0.5 * (0 + 1/3)/2 + 0.5 * (1/3 + 1/2)/2 = 7/24.
    assert pr_auc([0, 0, 1, 1], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(7 / 24)


def test_pr_auc_interleaved_ranking_known_value():
    # Hand-computed trapezoid: anchor (0,1), (0.5,1), (0.5,0.5), (1,2/3), (1,0.5).
    assert pr_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(
        0.5 * 1.0 + 0.5 * (0.5 + 2 / 3) / 2
    )


def test_pr_auc_all_tied_degenerates_to_prevalence():
    assert pr_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)
    assert pr_auc([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.25)


def test_pr_auc_is_tie_order_invariant():
    labels = [1, 0, 1, 0, 1]
    scores = [0.9, 0.9, 0.9, 0.2, 0.1]
    shuffled_labels = [0, 1, 1, 0, 1]  # same multiset within the tied block
    assert pr_auc(labels, scores) == pytest.approx(pr_auc(shuffled_labels, scores))


def test_pr_curve_points_start_at_recall_zero():
    points = precision_recall_points([1, 0], [0.9, 0.1])
    assert points == [(0.0, 1.0), (1.0, 1.0), (1.0, 0.5)]


def test_pr_auc_requires_positives():
    with pytest.raises(ValueError):
        pr_auc([0, 0], [0.5, 0.4])


# ----------------------------------------------------------------------
# Rank at max recall and separation
# ----------------------------------------------------------------------
def test_rank_at_max_recall_known_values():
    assert rank_at_max_recall([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]) == 2
    assert rank_at_max_recall([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == 3
    assert rank_at_max_recall([0, 0, 1, 1], [0.9, 0.8, 0.7, 0.6]) == 4


def test_rank_at_max_recall_counts_ties_pessimistically():
    assert rank_at_max_recall([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]) == 4


def test_normalized_rank_at_max_recall():
    assert normalized_rank_at_max_recall([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == 0.75


def test_separation_sign_reflects_separability():
    assert separation([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.1)
    assert separation([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(-0.1)


# ----------------------------------------------------------------------
# NaN-safe ranking summaries on degenerate label sets
# ----------------------------------------------------------------------
def test_ranking_summary_on_mixed_labels_matches_strict_metrics():
    labels, scores = [1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]
    summary = ranking_summary(labels, scores)
    assert summary["pr_auc"] == pytest.approx(pr_auc(labels, scores))
    assert summary["rank_at_max_recall"] == rank_at_max_recall(labels, scores)
    assert summary["separation"] == pytest.approx(separation(labels, scores))


def test_ranking_summary_all_negative_is_nan_not_a_crash():
    summary = ranking_summary([0, 0, 0], [0.9, 0.5, 0.1])
    for metric in (
        "pr_auc",
        "rank_at_max_recall",
        "normalized_rank_at_max_recall",
        "separation",
    ):
        assert math.isnan(summary[metric]), metric


def test_ranking_summary_all_positive_keeps_defined_metrics():
    summary = ranking_summary([1, 1, 1], [0.9, 0.5, 0.1])
    assert summary["pr_auc"] == pytest.approx(1.0)
    assert summary["rank_at_max_recall"] == 3.0
    assert math.isnan(summary["separation"])  # no negative to separate from


def _degenerate_result(positive):
    rows = [
        TableScore(
            table=f"t{index}",
            benchmark="DEGEN",
            step=0,
            index=index,
            positive=positive,
            parameter_value=0.0,
            num_rows=10,
            statistics_seconds=0.0,
            scores={"g3": 0.5 + 0.1 * index},
            runtimes={"g3": 0.001},
        )
        for index in range(3)
    ]
    return EvaluationResult(
        benchmark="DEGEN", parameter_name="none", measure_names=["g3"], rows=rows
    )


@pytest.mark.parametrize("positive", [True, False])
def test_summary_of_degenerate_benchmark_does_not_raise(positive):
    summary = _degenerate_result(positive).summary()
    entry = summary["g3"]
    assert math.isnan(entry["separation"])
    if positive:
        assert entry["pr_auc"] == pytest.approx(1.0)
    else:
        assert math.isnan(entry["pr_auc"])
    assert entry["total_seconds"] == pytest.approx(0.003)


# ----------------------------------------------------------------------
# Extra-measure registry accessor (worker-initializer contract)
# ----------------------------------------------------------------------
def test_extra_measure_factories_returns_a_snapshot():
    def factory():  # pragma: no cover - never built
        raise AssertionError

    registry.register_measure("extra_test_measure", factory)
    try:
        snapshot = registry.extra_measure_factories()
        assert snapshot["extra_test_measure"] is factory
        snapshot.pop("extra_test_measure")  # mutating the copy...
        assert "extra_test_measure" in registry.extra_measure_factories()  # ...is isolated
    finally:
        registry.unregister_measure("extra_test_measure")
    assert "extra_test_measure" not in registry.extra_measure_factories()


# ----------------------------------------------------------------------
# Harness end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_specs():
    return benchmark_specs("err", steps=2, tables_per_step=2, max_rows=300)


def test_evaluate_specs_scores_all_fourteen_measures(tiny_specs):
    result = evaluate_specs(tiny_specs, FAST_CONFIG, jobs=1)
    assert len(result.measure_names) == 14
    assert len(result.rows) == len(tiny_specs)
    assert sum(result.labels()) == len(tiny_specs) // 2
    summary = result.summary()
    for metrics in summary.values():
        assert 0.0 <= metrics["pr_auc"] <= 1.0
        assert metrics["rank_at_max_recall"] >= len(tiny_specs) // 2


def test_parallel_scores_identical_to_sequential(tiny_specs):
    sequential = evaluate_specs(tiny_specs, FAST_CONFIG, jobs=1)
    parallel = evaluate_specs(tiny_specs, FAST_CONFIG, jobs=2)
    for row_a, row_b in zip(sequential.rows, parallel.rows):
        assert row_a.table == row_b.table
        assert row_a.scores == row_b.scores  # bit-identical floats


def test_step_curves_cover_all_steps(tiny_specs):
    result = evaluate_specs(tiny_specs, FAST_CONFIG, jobs=1)
    curves = result.step_curves()
    assert set(curves) == set(result.measure_names)
    for points in curves.values():
        assert [point["step"] for point in points] == [0.0, 1.0]
        for point in points:
            assert 0.0 <= point["mean_positive_score"] <= 1.0


def test_zero_error_positives_score_one_on_exactness_measures(tiny_specs):
    result = evaluate_specs(tiny_specs, FAST_CONFIG, jobs=1)
    for row in result.rows:
        if row.positive and row.parameter_value == 0.0:
            assert row.scores["g3"] == 1.0
            assert row.scores["mu_plus"] == 1.0
