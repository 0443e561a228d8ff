"""Tests for ``repro.analysis`` — the static invariant checkers.

Fixture-based positive/negative snippets per checker (bad code must
produce exactly the expected finding code at the expected line, clean
code must stay silent), suppression-comment and allowlist round trips,
the wire-schema freeze regression (any unversioned field/route edit
trips RPR104), CLI exit-code behaviour, and the acceptance property:
the repo itself analyses clean.
"""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    CHECKERS,
    AnalysisConfigError,
    AnalysisRun,
    extract_wire_schema,
    load_allowlist,
    suppressed_codes,
    update_lock,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.schema_lock import SchemaExtractionError

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def make_repo(tmp_path, files):
    """A throwaway repo root with the given ``rel -> source`` files."""
    root = tmp_path / "repo"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "pyproject.toml").write_text("[project]\nname='x'\n")
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return root


def findings_for(root, **kwargs):
    return AnalysisRun(root, **kwargs).run()


def codes_and_lines(report):
    return [(f.code, f.path, f.line) for f in report.findings]


def finding_codes(report):
    return [f.code for f in report.findings]


# ----------------------------------------------------------------------
# Framework: suppressions, allowlist, registry
# ----------------------------------------------------------------------
def test_registry_ships_five_checkers():
    assert len(CHECKERS) >= 5
    assert set(CHECKERS) >= {"RPR101", "RPR102", "RPR103", "RPR104", "RPR105"}
    for code, checker in CHECKERS.items():
        assert checker.code == code
        assert checker.name and checker.description


def test_suppression_comment_parsing():
    assert suppressed_codes("x = 1  # repro: allow[RPR101]") == {"RPR101"}
    assert suppressed_codes("x = 1  # repro: allow[RPR101, RPR102]") == {
        "RPR101",
        "RPR102",
    }
    assert suppressed_codes("x = 1  # just a comment") == frozenset()
    assert suppressed_codes("") == frozenset()


def test_inline_suppression_moves_finding_out_of_report(tmp_path):
    root = make_repo(
        tmp_path,
        {"src/repro/util.py": "import numpy as np  # repro: allow[RPR101]\n"},
    )
    report = findings_for(root)
    assert report.clean
    assert [f.code for f in report.suppressed] == ["RPR101"]


def test_suppression_of_wrong_code_does_not_apply(tmp_path):
    root = make_repo(
        tmp_path,
        {"src/repro/util.py": "import numpy as np  # repro: allow[RPR102]\n"},
    )
    report = findings_for(root)
    assert finding_codes(report) == ["RPR101"]


def test_allowlist_entry_explains_finding(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    (root / "analysis-allowlist.json").write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "code": "RPR101",
                        "path": "src/repro/util.py",
                        "justification": "fixture module is numpy-only by design",
                    }
                ]
            }
        )
    )
    report = findings_for(root)
    assert report.clean
    assert [f.code for f in report.allowlisted] == ["RPR101"]


def test_allowlist_without_justification_is_config_error(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    (root / "analysis-allowlist.json").write_text(
        json.dumps(
            {"entries": [{"code": "RPR101", "path": "src/repro/util.py", "justification": "  "}]}
        )
    )
    with pytest.raises(AnalysisConfigError, match="justification"):
        findings_for(root)


def test_malformed_allowlist_is_config_error(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    (root / "analysis-allowlist.json").write_text("{not json")
    with pytest.raises(AnalysisConfigError):
        findings_for(root)
    (root / "analysis-allowlist.json").write_text(json.dumps({"entries": [{"code": "RPR101"}]}))
    with pytest.raises(AnalysisConfigError, match="missing"):
        findings_for(root)


def test_stale_allowlist_entry_is_a_finding(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    (root / "analysis-allowlist.json").write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "code": "RPR101",
                        "path": "src/repro/gone.py",
                        "justification": "this module was deleted",
                    }
                ]
            }
        )
    )
    report = findings_for(root)
    assert finding_codes(report) == ["RPR100"]
    assert "stale allowlist entry" in report.findings[0].message


def test_missing_allowlist_means_no_entries(tmp_path):
    assert load_allowlist(tmp_path / "nope.json") == []


def test_unparsable_file_is_rpr100(tmp_path):
    root = make_repo(tmp_path, {"src/repro/broken.py": "def f(:\n"})
    report = findings_for(root)
    assert finding_codes(report) == ["RPR100"]


def test_unknown_checker_selection_is_config_error(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    with pytest.raises(AnalysisConfigError, match="RPR999"):
        AnalysisRun(root, checkers=["RPR999"])


# ----------------------------------------------------------------------
# RPR101 — unguarded numpy
# ----------------------------------------------------------------------
def test_rpr101_bare_module_import_flagged(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    assert codes_and_lines(findings_for(root, checkers=["RPR101"])) == [
        ("RPR101", "src/repro/util.py", 1)
    ]


def test_rpr101_from_import_flagged(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "from numpy import float64\n"})
    assert finding_codes(findings_for(root, checkers=["RPR101"])) == ["RPR101"]


def test_rpr101_guarded_import_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/util.py": """\
            try:
                import numpy as np
            except ImportError:
                np = None
            """
        },
    )
    assert findings_for(root, checkers=["RPR101"]).clean


def test_rpr101_lazy_function_import_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/util.py": """\
            def build():
                import numpy as np
                return np.zeros(3)
            """
        },
    )
    assert findings_for(root, checkers=["RPR101"]).clean


def test_rpr101_import_in_except_handler_is_not_guarded(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/util.py": """\
            try:
                x = 1
            except ValueError:
                import numpy as np
            """
        },
    )
    assert finding_codes(findings_for(root, checkers=["RPR101"])) == ["RPR101"]


# ----------------------------------------------------------------------
# RPR102 — nondeterminism in bit-identity modules
# ----------------------------------------------------------------------
def test_rpr102_random_import_in_core_flagged(tmp_path):
    root = make_repo(tmp_path, {"src/repro/core/x.py": "import random\n"})
    assert finding_codes(findings_for(root, checkers=["RPR102"])) == ["RPR102"]


def test_rpr102_same_code_outside_contract_packages_clean(tmp_path):
    root = make_repo(tmp_path, {"src/repro/experiments/x.py": "import random\n"})
    assert findings_for(root, checkers=["RPR102"]).clean


def test_rpr102_set_iteration_flagged_sorted_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/relation/x.py": """\
            def f(values):
                for v in set(values):
                    yield v

            def g(values):
                return sorted(set(values))

            def h(values, probe):
                return probe in set(values)
            """
        },
    )
    assert codes_and_lines(findings_for(root, checkers=["RPR102"])) == [
        ("RPR102", "src/repro/relation/x.py", 2)
    ]


def test_rpr102_list_of_set_and_comprehension_flagged(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/stream/x.py": """\
            def f(values):
                return list(set(values))

            def g(values):
                return [v for v in {1, 2, 3}]
            """
        },
    )
    report = findings_for(root, checkers=["RPR102"])
    assert finding_codes(report) == ["RPR102", "RPR102"]


def test_rpr102_wall_clock_flagged_monotonic_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/discovery/x.py": """\
            import time

            def f():
                return time.time()

            def g():
                return time.perf_counter()
            """
        },
    )
    assert codes_and_lines(findings_for(root, checkers=["RPR102"])) == [
        ("RPR102", "src/repro/discovery/x.py", 4)
    ]


def test_rpr102_os_listdir_flagged(tmp_path):
    root = make_repo(
        tmp_path,
        {"src/repro/core/x.py": "import os\n\ndef f(p):\n    return os.listdir(p)\n"},
    )
    assert finding_codes(findings_for(root, checkers=["RPR102"])) == ["RPR102"]


def test_rpr102_unseeded_rng_flagged_seeded_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/core/x.py": """\
            def f(np, seed):
                good = np.random.default_rng(seed)
                bad = np.random.default_rng()
                return good, bad
            """
        },
    )
    assert codes_and_lines(findings_for(root, checkers=["RPR102"])) == [
        ("RPR102", "src/repro/core/x.py", 3)
    ]


def test_rpr102_global_state_rng_flagged(tmp_path):
    root = make_repo(
        tmp_path,
        {"src/repro/core/x.py": "def f(np):\n    return np.random.shuffle([1])\n"},
    )
    assert finding_codes(findings_for(root, checkers=["RPR102"])) == ["RPR102"]


# ----------------------------------------------------------------------
# RPR103 — lock discipline
# ----------------------------------------------------------------------
_LOCKED_CLASS = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0
        self._items = {}

    def locked_mutation(self):
        with self._lock:
            self._value += 1
            self._helper()

    def _helper(self):
        self._items["k"] = self._value
"""


def test_rpr103_mutation_under_lock_and_lock_held_helper_clean(tmp_path):
    root = make_repo(tmp_path, {"src/repro/service/x.py": _LOCKED_CLASS})
    assert findings_for(root, checkers=["RPR103"]).clean


def test_rpr103_unlocked_mutation_flagged(tmp_path):
    root = make_repo(
        tmp_path,
        {"src/repro/service/x.py": _LOCKED_CLASS + "\n    def bad(self):\n        self._value = 5\n"},
    )
    report = findings_for(root, checkers=["RPR103"])
    assert len(report.findings) == 1
    assert "Box.bad" in report.findings[0].message


def test_rpr103_helper_called_from_unlocked_context_flagged(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": _LOCKED_CLASS
            + "\n    def sneaky(self):\n        self._helper()\n"
        },
    )
    report = findings_for(root, checkers=["RPR103"])
    # _helper now has an unprotected call site, so its mutation is flagged.
    assert len(report.findings) == 1
    assert "Box._helper" in report.findings[0].message


def test_rpr103_subscript_and_delete_mutations_covered(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": """\
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def bad_subscript(self):
                    self._items["k"] = 1

                def bad_delete(self):
                    del self._items
            """
        },
    )
    report = findings_for(root, checkers=["RPR103"])
    assert finding_codes(report) == ["RPR103", "RPR103"]


def test_rpr103_lockless_class_not_checked(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": """\
            class Plain:
                def __init__(self):
                    self._value = 0

                def bump(self):
                    self._value += 1
            """
        },
    )
    assert findings_for(root, checkers=["RPR103"]).clean


def test_rpr103_loop_confined_class_must_stay_threading_free(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": """\
            import threading


            class ShardDispatcher:
                def __init__(self):
                    self.guard = threading.Lock()
            """
        },
    )
    report = findings_for(root, checkers=["RPR103"])
    assert finding_codes(report) == ["RPR103"]
    assert "loop-confined" in report.findings[0].message


def test_rpr103_nested_closure_inside_lock_is_protected(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": """\
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def run(self, engine):
                    with self._lock:
                        def provider(key):
                            self._cache[key] = True
                            return self._cache[key]
                        return engine(provider)
            """
        },
    )
    assert findings_for(root, checkers=["RPR103"]).clean


# ----------------------------------------------------------------------
# RPR104 — wire-schema freeze
# ----------------------------------------------------------------------
def make_service_repo(tmp_path):
    """A fixture root carrying verbatim copies of the real service files."""
    root = make_repo(tmp_path, {})
    for rel in ("src/repro/service/model.py", "src/repro/service/server.py"):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)
    return root


def rpr104_findings(root):
    report = AnalysisRun(root, checkers=["RPR104"]).run()
    return report.findings


def test_rpr104_missing_lock_is_a_finding(tmp_path):
    root = make_service_repo(tmp_path)
    findings = rpr104_findings(root)
    assert [f.code for f in findings] == ["RPR104"]
    assert "no schemas.lock.json" in findings[0].message


def test_rpr104_update_lock_round_trip_is_clean(tmp_path):
    root = make_service_repo(tmp_path)
    message = update_lock(root, root / "schemas.lock.json")
    assert "froze wire schema version" in message
    assert rpr104_findings(root) == []
    # Idempotent: a second run reports the match, changes nothing.
    assert "already matches" in update_lock(root, root / "schemas.lock.json")


def _edit(root, rel, old, new, count=1):
    path = root / rel
    text = path.read_text()
    assert text.count(old) >= count, f"fixture drift: {old!r} not in {rel}"
    path.write_text(text.replace(old, new, count))


@pytest.mark.parametrize(
    "old, new, expect",
    [
        # Adding a field to a record without a bump.
        ("    epoch: int = 0\n\n    @property\n    def fd(self)",
         "    epoch: int = 0\n    shard: int = 0\n\n    @property\n    def fd(self)",
         "was added"),
        # Removing a field.
        ("    cache_hit: bool = False\n", "", "was removed"),
        # Retyping a field.
        ("    num_rows: int\n", "    num_rows: float\n", "retyped"),
    ],
)
def test_rpr104_unversioned_model_drift_trips(tmp_path, old, new, expect):
    root = make_service_repo(tmp_path)
    update_lock(root, root / "schemas.lock.json")
    _edit(root, "src/repro/service/model.py", old, new)
    findings = rpr104_findings(root)
    assert findings, "drift went undetected"
    assert all(f.code == "RPR104" for f in findings)
    assert any(expect in f.message for f in findings)
    assert all("SCHEMA_VERSION bump" in f.message for f in findings)


def test_rpr104_route_edit_trips(tmp_path):
    root = make_service_repo(tmp_path)
    update_lock(root, root / "schemas.lock.json")
    _edit(
        root,
        "src/repro/service/server.py",
        'Route("GET", "/v1/healthz", "healthz"),',
        'Route("GET", "/v1/healthz", "healthz"),\n    Route("GET", "/v1/ping", "healthz"),',
    )
    findings = rpr104_findings(root)
    assert [f.code for f in findings] == ["RPR104"]
    assert "GET /v1/ping" in findings[0].message
    assert findings[0].path == "src/repro/service/server.py"


def test_rpr104_error_code_edit_trips(tmp_path):
    root = make_service_repo(tmp_path)
    update_lock(root, root / "schemas.lock.json")
    _edit(
        root,
        "src/repro/service/model.py",
        '"internal_error": "unexpected server-side failure",',
        '"internal_error": "unexpected server-side failure",\n    "teapot": "short and stout",',
    )
    findings = rpr104_findings(root)
    assert [f.code for f in findings] == ["RPR104"]
    assert "ERROR_CODES" in findings[0].message


def test_rpr104_version_bump_asks_for_refreeze_then_clean(tmp_path):
    from repro.service.model import SCHEMA_VERSION

    root = make_service_repo(tmp_path)
    lock = root / "schemas.lock.json"
    update_lock(root, lock)
    _edit(
        root,
        "src/repro/service/model.py",
        f"SCHEMA_VERSION = {SCHEMA_VERSION}\n",
        f"SCHEMA_VERSION = {SCHEMA_VERSION + 1}\n",
    )
    _edit(root, "src/repro/service/model.py", "    cache_hit: bool = False\n", "")
    findings = rpr104_findings(root)
    assert [f.code for f in findings] == ["RPR104"]
    assert "refresh it" in findings[0].message
    # The bump authorises the re-freeze; afterwards the tree is clean.
    update_lock(root, lock)
    assert rpr104_findings(root) == []


def test_rpr104_update_lock_refuses_unversioned_drift(tmp_path):
    root = make_service_repo(tmp_path)
    lock = root / "schemas.lock.json"
    update_lock(root, lock)
    _edit(root, "src/repro/service/model.py", "    cache_hit: bool = False\n", "")
    with pytest.raises(SchemaExtractionError, match="bump"):
        update_lock(root, lock)
    # --force overrides (documented escape hatch for pre-freeze drift).
    update_lock(root, lock, force=True)
    assert rpr104_findings(root) == []


def test_extract_wire_schema_matches_runtime_model():
    """The AST extraction agrees with the importable truth."""
    from dataclasses import fields

    from repro.service import model as model_module
    from repro.service.server import ROUTES

    schema, _ = extract_wire_schema(REPO_ROOT)
    assert schema["schema_version"] == model_module.SCHEMA_VERSION
    assert schema["error_codes"] == sorted(model_module.ERROR_CODES)
    for name, extracted in schema["records"].items():
        runtime = {f.name for f in fields(getattr(model_module, name))}
        assert set(extracted) == runtime, name
    assert len(schema["routes"]) == len(ROUTES)
    for row, route in zip(schema["routes"], ROUTES):
        assert row["method"] == route.method
        assert row["pattern"] == route.pattern
        assert row["op"] == route.op


# ----------------------------------------------------------------------
# RPR105 — obs conventions
# ----------------------------------------------------------------------
def test_rpr105_naming_regime(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/service/x.py": """\
            def f(registry):
                registry.inc("requests")
                registry.observe("latency", 0.2)
                registry.set_gauge("depth_total", 3)
                registry.inc("requests_total")
                registry.observe("request_seconds", 0.2)
                registry.observe("payload_bytes", 512)
                registry.set_gauge("queue_depth", 3)
            """
        },
    )
    report = findings_for(root, checkers=["RPR105"])
    assert finding_codes(report) == ["RPR105", "RPR105", "RPR105"]
    assert [f.line for f in report.findings] == [2, 3, 4]


def test_rpr105_label_sets_fixed_across_files(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/a.py": 'def f(r):\n    r.inc("hits_total", route="x")\n',
            "src/repro/b.py": 'def g(r):\n    r.inc("hits_total", code="y")\n',
        },
    )
    report = findings_for(root, checkers=["RPR105"])
    assert len(report.findings) == 1
    assert report.findings[0].path == "src/repro/b.py"
    assert "label set" in report.findings[0].message


def test_rpr105_consistent_labels_clean(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/a.py": 'def f(r):\n    r.inc("hits_total", route="x")\n',
            "src/repro/b.py": 'def g(r):\n    r.inc("hits_total", route="y")\n',
        },
    )
    assert findings_for(root, checkers=["RPR105"]).clean


def test_rpr105_obs_must_be_stdlib_only(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/obs/extra.py": """\
            import json
            import numpy as np
            from repro.obs.metrics import get_registry
            from . import logging
            """
        },
    )
    report = findings_for(root, checkers=["RPR105"])
    assert codes_and_lines(report) == [("RPR105", "src/repro/obs/extra.py", 2)]


def test_rpr105_non_obs_modules_may_import_anything(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/relation/x.py": """\
            try:
                import numpy as np
            except ImportError:
                np = None
            """
        },
    )
    assert findings_for(root, checkers=["RPR105"]).clean


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    assert analysis_main(["--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_exit_one_on_findings_and_reports_them(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    assert analysis_main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/util.py:1:0: RPR101" in out


def test_cli_exit_two_on_config_error(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    (root / "analysis-allowlist.json").write_text("{broken")
    assert analysis_main(["--root", str(root)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_select_restricts_checkers(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    assert analysis_main(["--root", str(root), "--select", "RPR102"]) == 0
    assert "1 checker(s)" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/util.py": "import numpy as np\n"})
    assert analysis_main(["--root", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["findings"][0]["code"] == "RPR101"


def test_cli_list_checkers(capsys):
    assert analysis_main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR101", "RPR102", "RPR103", "RPR104", "RPR105"):
        assert code in out


def test_cli_update_lock_and_refusal(tmp_path, capsys):
    root = make_service_repo(tmp_path)
    assert analysis_main(["--root", str(root), "--update-lock"]) == 0
    assert "froze wire schema" in capsys.readouterr().out
    _edit(root, "src/repro/service/model.py", "    cache_hit: bool = False\n", "")
    assert analysis_main(["--root", str(root), "--update-lock"]) == 2
    assert "bump" in capsys.readouterr().err
    assert analysis_main(["--root", str(root), "--update-lock", "--force"]) == 0


def test_cli_explicit_paths(tmp_path):
    root = make_repo(
        tmp_path,
        {
            "src/repro/good.py": "x = 1\n",
            "src/repro/bad.py": "import numpy as np\n",
        },
    )
    assert (
        analysis_main(
            ["--root", str(root), "--select", "RPR101", "src/repro/good.py"]
        )
        == 0
    )
    assert (
        analysis_main(["--root", str(root), "--select", "RPR101", "src/repro/bad.py"])
        == 1
    )


def test_cli_bad_path_is_config_error(tmp_path):
    root = make_repo(tmp_path, {"src/repro/util.py": "x = 1\n"})
    assert analysis_main(["--root", str(root), "no/such/file.py"]) == 2


def test_dispatcher_lists_analysis(capsys):
    from repro.__main__ import COMMANDS, main as repro_main

    assert "analysis" in COMMANDS
    assert repro_main(["--help"]) == 0
    assert "analysis" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Acceptance: the repo itself analyses clean
# ----------------------------------------------------------------------
def test_repository_is_clean():
    report = AnalysisRun(REPO_ROOT).run()
    assert report.checkers >= 5
    assert report.files > 50
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"the repo must analyse clean:\n{rendered}"


def test_repository_allowlist_entries_all_used_and_justified():
    entries = load_allowlist(REPO_ROOT / "analysis-allowlist.json")
    assert entries, "the committed allowlist should carry the known exceptions"
    for entry in entries:
        assert len(entry.justification) > 20, entry
    # No stale entries: test_repository_is_clean would have flagged RPR100.


def test_committed_lock_matches_sources():
    from repro.analysis import load_lock

    schema, _ = extract_wire_schema(REPO_ROOT)
    assert load_lock(REPO_ROOT / "schemas.lock.json") == schema
