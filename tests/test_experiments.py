"""End-to-end tests of the experiment drivers and the CLI."""

import csv
import json

import pytest

from repro.core.registry import MEASURE_ORDER
from repro.experiments import (
    DiscoveryConfig,
    PropertiesConfig,
    RwdeConfig,
    SensitivityConfig,
    run_discovery,
    run_properties,
    run_rwde,
    run_sensitivity,
)
from repro.experiments.__main__ import main

TINY = dict(steps=2, tables_per_step=1, max_rows=300)


def test_run_sensitivity_writes_all_artifacts(tmp_path):
    payload = run_sensitivity(SensitivityConfig(benchmark="err", **TINY), output_dir=str(tmp_path))
    assert payload["benchmark"] == "ERR"
    assert set(payload["summary"]) == set(MEASURE_ORDER)

    directory = tmp_path / "err"
    summary = json.loads((directory / "summary.json").read_text())
    assert summary["summary"].keys() == payload["summary"].keys()
    for metrics in summary["summary"].values():
        assert set(metrics) >= {"pr_auc", "rank_at_max_recall", "separation", "total_seconds"}

    with (directory / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert {row["measure"] for row in rows} == set(MEASURE_ORDER)
    for row in rows:
        assert 0.0 <= float(row["pr_auc"]) <= 1.0

    with (directory / "scores.csv").open() as handle:
        score_rows = list(csv.DictReader(handle))
    assert len(score_rows) == 2 * 1 * 2
    assert set(MEASURE_ORDER) <= set(score_rows[0])

    with (directory / "curves.csv").open() as handle:
        curve_rows = list(csv.DictReader(handle))
    assert len(curve_rows) == 14 * 2  # measures x steps


def test_run_sensitivity_without_output_dir_writes_nothing(tmp_path):
    payload = run_sensitivity(SensitivityConfig(benchmark="skew", **TINY), output_dir=None)
    assert payload["parameter_name"] == "rhs_skew"
    assert list(tmp_path.iterdir()) == []


def test_run_rwde_grid(tmp_path):
    config = RwdeConfig(
        error_types=("copy",),
        error_levels=(0.02,),
        num_rows=200,
    )
    payload = run_rwde(config, output_dir=str(tmp_path))
    assert len(payload["cells"]) == 1
    cell = payload["cells"][0]
    assert cell["positives"] > 0
    assert set(cell["measures"]) == set(MEASURE_ORDER)
    summary = json.loads((tmp_path / "rwde" / "summary.json").read_text())
    assert summary["cells"][0]["candidates"] == cell["candidates"]
    with (tmp_path / "rwde" / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 14


def test_run_discovery_lattice_mode(tmp_path):
    config = DiscoveryConfig(datasets=("R1",), num_rows=150, max_lhs_size=2)
    payload = run_discovery(config, output_dir=str(tmp_path))
    assert len(payload["relations"]) == 1
    entry = payload["relations"][0]
    assert entry["key"] == "R1"
    assert entry["statistics_computed"] < entry["brute_force_statistics"]
    assert entry["pruned_exact"] + entry["pruned_key"] > 0
    assert set(entry["measures"]) == set(MEASURE_ORDER)
    summary = json.loads((tmp_path / "discovery" / "summary.json").read_text())
    assert summary["config"]["max_lhs_size"] == 2
    with (tmp_path / "discovery" / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 14
    assert {row["measure"] for row in rows} == set(MEASURE_ORDER)


def test_discovery_reports_the_passes_brute_force_runs():
    # R1 has a key column: the lattice never expands it, but brute force
    # scores its supersets too, so the cost is not the lattice's
    # candidate count.
    from repro.core.registry import subset
    from repro.discovery import brute_force_afds
    from repro.rwd.datasets import build_dataset

    config = DiscoveryConfig(datasets=("R1",), num_rows=400, max_lhs_size=2)
    entry = run_discovery(config, output_dir=None)["relations"][0]
    relation = build_dataset("R1", num_rows=400, seed=0).relation
    brute = brute_force_afds(relation, measures=subset(("g3",)), max_lhs_size=2)
    assert entry["brute_force_statistics"] == brute.counters["statistics_computed"]
    assert entry["candidates"] < brute.counters["statistics_computed"]


def test_cli_discovery_benchmark(tmp_path):
    exit_code = main(
        [
            "--benchmark",
            "discovery",
            "--discovery-num-rows",
            "150",
            "--max-lhs-size",
            "2",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert exit_code == 0
    summary = json.loads((tmp_path / "discovery" / "summary.json").read_text())
    assert len(summary["relations"]) == 5


def test_run_properties_static_consistency(tmp_path):
    payload = run_properties(
        PropertiesConfig(steps=2, tables_per_step=1, max_rows=300),
        output_dir=str(tmp_path),
    )
    assert payload["static_catalogue_consistent"] is True
    assert {row["measure"] for row in payload["rows"]} == set(MEASURE_ORDER)
    for row in payload["rows"]:
        assert row["static_class_ok"] and row["static_baselines_ok"]
        # Laptop grids are noisy, but inverse error proportionality is the
        # paper's most robust claim: correlations must at least be negative.
        assert row["observed_error_correlation"] < 0.0
    table = json.loads((tmp_path / "properties" / "table3.json").read_text())
    assert len(table["rows"]) == 14


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_acceptance_configuration(tmp_path, jobs):
    exit_code = main(
        [
            "--benchmark",
            "err",
            "--steps",
            "2",
            "--tables-per-step",
            "1",
            "--jobs",
            str(jobs),
            "--max-rows",
            "300",
            "--output-dir",
            str(tmp_path / f"jobs{jobs}"),
        ]
    )
    assert exit_code == 0
    summary = json.loads((tmp_path / f"jobs{jobs}" / "err" / "summary.json").read_text())
    assert set(summary["summary"]) == set(MEASURE_ORDER)


def test_cli_jobs_do_not_change_scores(tmp_path):
    for jobs in (1, 2):
        main(
            [
                "--benchmark",
                "uniq",
                "--steps",
                "2",
                "--tables-per-step",
                "1",
                "--jobs",
                str(jobs),
                "--max-rows",
                "300",
                "--output-dir",
                str(tmp_path / f"jobs{jobs}"),
            ]
        )
    read = lambda jobs: json.loads(  # noqa: E731
        (tmp_path / f"jobs{jobs}" / "uniq" / "summary.json").read_text()
    )
    a, b = read(1), read(2)
    assert a["curves"] == b["curves"]
    assert {m: v["pr_auc"] for m, v in a["summary"].items()} == {
        m: v["pr_auc"] for m, v in b["summary"].items()
    }


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("flag", ["--steps", "--tables-per-step"])
def test_cli_rejects_non_positive_sweep_sizes(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--benchmark", "err", flag, value, "--output-dir", "-"])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert error.startswith("usage:"), error
    assert f"argument {flag}: must be a positive integer, got {value!r}" in error


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sfi-alpha", "0"], "argument --sfi-alpha: must be a positive number, got '0'"),
        (["--max-rows", "0"], "argument --max-rows: must be a positive integer, got '0'"),
        (["--min-rows", "500", "--max-rows", "200"], "--min-rows 500 exceeds --max-rows 200"),
        *(
            ([flag, "0"], f"argument {flag}: must be a positive integer, got '0'")
            for flag in ("--max-lhs-size", "--runtime-repeats")
        ),
        # --smoke is gone: spell out --runtime-sizes 500,2000 --runtime-repeats 2.
        (["--smoke"], "unrecognized arguments: --smoke"),
        *(
            ([flag, "0"], f"argument {flag}: must be a positive integer, got '0'")
            for flag in ("--rwde-num-rows", "--discovery-num-rows")
        ),
        (["--sfi-alpha", "inf"], "argument --sfi-alpha: must be a positive number, got 'inf'"),
        (["--jobs", "-3"], "argument --jobs: must be a positive integer, got '-3'"),
        (["--sfi-alpha", "nan"], "argument --sfi-alpha: must be a positive number, got 'nan'"),
        *(
            ([flag, ","], f"argument {flag}: must be a non-empty comma-separated list, got ','")
            for flag in ("--runtime-sizes", "--rwde-error-levels", "--rwde-error-types")
        ),
        (
            ["--runtime-sizes", "0"],
            "argument --runtime-sizes: must be a positive integer, got '0' (in '0')",
        ),
        (
            ["--runtime-sizes", "10,x"],
            "argument --runtime-sizes: must be a positive integer, got 'x' (in '10,x')",
        ),
        (
            ["--rwde-error-levels", "0.01,x"],
            "argument --rwde-error-levels: must be a number in (0, 1], got 'x' (in '0.01,x')",
        ),
        (
            ["--rwde-error-levels", "2"],
            "argument --rwde-error-levels: must be a number in (0, 1], got '2' (in '2')",
        ),
        (
            ["--rwde-error-types", "copy,nope"],
            "argument --rwde-error-types: 'nope' is not a valid ErrorType (in 'copy,nope')",
        ),
    ],
)
def test_cli_rejects_bad_flag_values_with_a_usage_error(flags, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--benchmark", "err", *flags, "--output-dir", "-"])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_dash_output_dir_skips_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exit_code = main(
        [
            "--benchmark",
            "err",
            "--steps",
            "2",
            "--tables-per-step",
            "1",
            "--max-rows",
            "300",
            "--output-dir",
            "-",
        ]
    )
    assert exit_code == 0
    assert not (tmp_path / "results").exists()
