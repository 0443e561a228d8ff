"""Tests of the spec-based synthetic benchmark construction and repro.rwd."""

import pytest

from repro.errors import ErrorType, build_rwde_benchmark
from repro.rwd import build_rwd_benchmark, enumerate_inspection_candidates, overview_table
from repro.synthetic import BENCHMARK_KINDS, benchmark_specs
from repro.synthetic.generator import SYNTHETIC_FD


# ----------------------------------------------------------------------
# Spec-based construction
# ----------------------------------------------------------------------
def test_specs_are_deterministic_per_seed():
    first = benchmark_specs("err", steps=3, tables_per_step=2, max_rows=300)
    second = benchmark_specs("err", steps=3, tables_per_step=2, max_rows=300)
    assert first == second
    different = benchmark_specs("err", steps=3, tables_per_step=2, seed=99, max_rows=300)
    assert first != different


def test_spec_grid_shape_and_labels():
    specs = benchmark_specs("err", steps=3, tables_per_step=2, max_rows=300)
    assert len(specs) == 3 * 2 * 2  # steps x tables x {B+, B-}
    assert sum(spec.positive for spec in specs) == 6
    assert {spec.step for spec in specs} == {0, 1, 2}
    assert specs[0].name == "ERR+[step=0,i=0]"


def test_materialization_is_independent_of_order():
    specs = benchmark_specs("uniq", steps=2, tables_per_step=1, max_rows=300)
    forward = [spec.materialize() for spec in specs]
    backward = [spec.materialize() for spec in reversed(specs)]
    for relation_a, relation_b in zip(forward, reversed(backward)):
        assert relation_a == relation_b


def test_zero_error_positive_tables_satisfy_the_planted_fd():
    specs = benchmark_specs("err", steps=2, tables_per_step=2, max_rows=300)
    for spec in specs:
        if spec.positive and spec.parameter_value == 0.0:
            assert spec.materialize().satisfies(SYNTHETIC_FD)


def test_uniq_benchmark_controls_lhs_uniqueness():
    # The sweep controls the configured |dom(X)| / |R| ratio; the realised
    # distinct count is smaller (Beta-skewed sampling leaves domain values
    # unused) but must grow monotonically with the swept parameter.
    specs = benchmark_specs("uniq", steps=2, tables_per_step=1, min_rows=500, max_rows=1000)
    for spec in specs:
        assert spec.parameters.domain_x_size == max(
            2, round(spec.parameter_value * spec.parameters.num_rows)
        )
    low, high = (s for s in specs if s.positive)
    assert low.parameter_value < high.parameter_value
    uniqueness = [
        s.materialize().distinct_count("X") / s.parameters.num_rows
        for s in (low, high)
    ]
    assert uniqueness[0] < uniqueness[1]


def test_unknown_kind_raises():
    with pytest.raises(KeyError):
        benchmark_specs("nope")
    assert set(BENCHMARK_KINDS) == {"err", "uniq", "skew"}


# ----------------------------------------------------------------------
# RWD stand-ins and RWDe corruption
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rwd():
    return build_rwd_benchmark(num_rows=300, seed=0)


def test_rwd_benchmark_shape(rwd):
    assert len(rwd) == 5
    rows = overview_table(rwd)
    assert [row["key"] for row in rows] == ["R1", "R2", "R3", "R4", "R5"]
    for row in rows:
        assert row["perfect_fds"] + row["approximate_fds"] == row["design_fds"]
    # Every relation contributes ground truth for discovery.
    assert rwd.total_approximate_fds() >= 5


def test_rwd_build_is_deterministic(rwd):
    again = build_rwd_benchmark(num_rows=300, seed=0)
    for relation_a, relation_b in zip(rwd, again):
        assert relation_a.relation == relation_b.relation
        assert relation_a.design_schema.fds == relation_b.design_schema.fds


def test_rwde_corruption_grows_the_ground_truth(rwd):
    rwde = build_rwde_benchmark(list(rwd), ErrorType.COPY, 0.02, seed=0)
    assert len(rwde) >= 3
    for corrupted in rwde:
        assert corrupted.corrupted_fds  # something was corrupted
        base_afds = set(corrupted.base.approximate_fds)
        for fd in corrupted.corrupted_fds:
            assert fd not in base_afds  # only perfect FDs are corrupted
            assert fd in corrupted.ground_truth  # and they join the ground truth
        assert not corrupted.corrupted.relation.satisfies(corrupted.corrupted_fds[0])


def test_inspection_candidates_rank_design_fds_high(rwd):
    relation = rwd["R1"]
    candidates = enumerate_inspection_candidates(relation)
    assert len(candidates) == relation.num_attributes * (relation.num_attributes - 1)
    by_fd = {str(candidate.fd): candidate for candidate in candidates}
    for fd in relation.design_schema:
        candidate = by_fd[str(fd)]
        assert candidate.in_design_schema
        assert candidate.g3_score > 0.95  # design FDs are (near-)satisfied
    unsatisfied = [c for c in candidates if not c.satisfied]
    assert enumerate_inspection_candidates(relation, include_satisfied=False) == unsatisfied
