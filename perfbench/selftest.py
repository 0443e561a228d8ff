"""Self-tests of the benchmark, at tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, prints every metric named in
  ``BENCHMARK.json`` with its unit, answers correctly, and fails nothing;
* a perturbed reference score trips the correctness check of every
  workload, and the tolerance passes float-level reformulation drift;
* another seed changes the generated inputs but not the metric set;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT, import_repro

SCALE = "0.1"
SECONDS = "2"


def run_cli(workload: str, seed: int, trace: int, root: Path = ROOT):
    completed = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
            "--trace", str(trace), "--scale", SCALE,
        ],
        cwd=str(root),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_metric_sets(spec: dict) -> None:
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json(run_cli(workload, 1, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            wanted = {entry["name"]: entry["unit"] for entry in spec[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == wanted, (workload, section, set(got) ^ set(wanted))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics, correct")


def check_perturbed_reference() -> None:
    import reference
    import run

    assert reference.mismatches({"g3": 0.5 + 1e-11}, {"g3": 0.5}) == []
    assert reference.mismatches({"g3": 0.5 + 1e-7}, {"g3": 0.5}) == ["g3"]
    original = reference.RelationColumns.scores

    def perturbed(self, lhs, rhs, measures=None):
        scores = original(self, lhs, rhs, measures)
        scores["g3"] += 1e-6
        return scores

    reference.RelationColumns.scores = perturbed
    try:
        for workload in run.WORKLOADS:
            _, correct, attempted, failed, _ = run.run(workload, 1, 1.0, False, float(SCALE))
            assert not correct and 0 < failed <= attempted, (workload, correct, failed)
            print(f"ok   {workload}: a reference perturbed by 1e-6 fails {failed} operations")
    finally:
        reference.RelationColumns.scores = original


def check_seeds(spec: dict) -> None:
    import profile_workload
    import scan_workload
    import serve_workload

    assert profile_workload.build_inputs(1, 40) != profile_workload.build_inputs(2, 40)
    assert serve_workload.build_inputs(1, 60) != serve_workload.build_inputs(2, 60)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as directory:
        one = [entry[3] for entry in scan_workload.write_inputs(1, 60, directory)]
        two = [entry[3] for entry in scan_workload.write_inputs(2, 60, directory)]
    assert one != two
    for workload in (entry["name"] for entry in spec["workloads"]):
        names = [set(last_json(run_cli(workload, seed, 0))["metrics"]) for seed in (3, 4)]
        assert names[0] == names[1], workload
    print("ok   another seed changes the inputs, not the metric set")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as directory:
        bare = Path(directory)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        completed = run_cli("profile", 1, 0, root=bare)
    assert completed.returncode != 0 and not completed.stdout.strip(), completed
    print("ok   without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    import_repro()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_sets(spec)
    check_perturbed_reference()
    check_seeds(spec)
    check_bare_directory()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
