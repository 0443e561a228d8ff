"""RPR104 — the wire-schema freeze (``schemas.lock.json``).

The ``/v1`` wire format is defined by two tables the service promises to
keep stable: the record dataclasses of :mod:`repro.service.model`
(field names + types per ``kind``, the ``ERROR_CODES`` vocabulary,
``SCHEMA_VERSION``) and the ``ROUTES`` routing table of
:mod:`repro.service.server`.  This module extracts both **statically**
(stdlib ``ast`` — nothing is imported or executed) and diffs them
against the committed golden ``schemas.lock.json``:

* drift with the **same** ``SCHEMA_VERSION`` is a finding per changed
  field/route — the freeze caught an unversioned wire change;
* drift with a **bumped** version is one finding asking for a re-freeze
  (``python -m repro.analysis --update-lock`` regenerates the golden;
  it refuses to re-freeze *without* a bump unless ``--force``).

Line anchors point at the drifted class / table so the finding is
clickable, but only the content (not the anchors) is locked.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.framework import (
    AnalysisRun,
    Checker,
    Finding,
    register_checker,
)

__all__ = [
    "LOCK_FILENAME",
    "SchemaExtractionError",
    "WireSchemaChecker",
    "extract_wire_schema",
    "load_lock",
    "update_lock",
    "write_lock",
]

LOCK_FILENAME = "schemas.lock.json"
MODEL_PATH = Path("src") / "repro" / "service" / "model.py"
SERVER_PATH = Path("src") / "repro" / "service" / "server.py"


class SchemaExtractionError(Exception):
    """The service sources changed shape beyond what the extractor knows."""


def _is_dataclass_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _extract_model(tree: ast.Module) -> Tuple[Dict[str, object], Dict[str, int]]:
    schema_version: Optional[int] = None
    records: Dict[str, Dict[str, str]] = {}
    error_codes: List[str] = []
    anchors: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "SCHEMA_VERSION":
                if not (
                    isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    raise SchemaExtractionError(
                        "SCHEMA_VERSION must be an int literal"
                    )
                schema_version = node.value.value
                anchors["SCHEMA_VERSION"] = node.lineno
            elif isinstance(target, ast.Name) and target.id == "ERROR_CODES":
                value = node.value
                if not isinstance(value, ast.Dict):
                    raise SchemaExtractionError("ERROR_CODES must be a dict literal")
                for key in value.keys:
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        raise SchemaExtractionError(
                            "ERROR_CODES keys must be string literals"
                        )
                    error_codes.append(key.value)
                anchors["ERROR_CODES"] = node.lineno
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Name)
                and target.id == "ERROR_CODES"
                and isinstance(node.value, ast.Dict)
            ):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        error_codes.append(key.value)
                anchors["ERROR_CODES"] = node.lineno
        elif isinstance(node, ast.ClassDef):
            if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            fields: Dict[str, str] = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    annotation = ast.unparse(item.annotation)
                    if annotation.startswith("ClassVar"):
                        continue
                    fields[item.target.id] = annotation
            records[node.name] = fields
            anchors[node.name] = node.lineno
    if schema_version is None:
        raise SchemaExtractionError("no SCHEMA_VERSION int literal in the model module")
    if not records:
        raise SchemaExtractionError("no dataclass records in the model module")
    return (
        {
            "schema_version": schema_version,
            "records": records,
            "error_codes": sorted(error_codes),
        },
        anchors,
    )


def _route_value(node: ast.AST, what: str) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    raise SchemaExtractionError(f"ROUTES {what} must be a literal, got {ast.dump(node)}")


def _extract_routes(tree: ast.Module) -> Tuple[List[Dict[str, object]], int]:
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "ROUTES"):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            raise SchemaExtractionError("ROUTES must be a tuple/list literal")
        routes: List[Dict[str, object]] = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Call)
                and isinstance(element.func, ast.Name)
                and element.func.id == "Route"
            ):
                raise SchemaExtractionError("every ROUTES row must be a Route(...) call")
            positional = ("method", "pattern", "op")
            row: Dict[str, object] = {}
            for name, arg in zip(positional, element.args):
                row[name] = _route_value(arg, name)
            for keyword in element.keywords:
                if keyword.arg in positional:
                    row[keyword.arg] = _route_value(keyword.value, keyword.arg)
            missing = [name for name in positional if name not in row]
            if missing:
                raise SchemaExtractionError(f"ROUTES row is missing {missing}")
            routes.append(row)
        return routes, node.lineno
    raise SchemaExtractionError("no ROUTES table in the server module")


def extract_wire_schema(root: Path) -> Tuple[Dict[str, object], Dict[str, int]]:
    """``(schema, anchors)`` for the repo at ``root`` — pure AST, no imports.

    ``schema`` is the lockable content; ``anchors`` maps record names /
    ``"ROUTES"`` / ``"SCHEMA_VERSION"`` / ``"ERROR_CODES"`` to the line
    they are defined on (for finding placement only).
    """
    model_path = root / MODEL_PATH
    server_path = root / SERVER_PATH
    model_tree = ast.parse(model_path.read_text(), filename=str(model_path))
    server_tree = ast.parse(server_path.read_text(), filename=str(server_path))
    schema, anchors = _extract_model(model_tree)
    routes, routes_line = _extract_routes(server_tree)
    schema["routes"] = routes
    anchors["ROUTES"] = routes_line
    return schema, anchors


def load_lock(path: Path) -> Optional[Dict[str, object]]:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_lock(path: Path, schema: Dict[str, object]) -> None:
    path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")


def update_lock(root: Path, lock_path: Path, force: bool = False) -> str:
    """Regenerate the golden; refuse unversioned drift unless ``force``.

    Returns a one-line human summary of what happened.
    """
    schema, _ = extract_wire_schema(root)
    locked = load_lock(lock_path)
    if locked is not None and not force:
        if (
            locked.get("schema_version") == schema["schema_version"]
            and locked != schema
        ):
            raise SchemaExtractionError(
                "the wire schema drifted but SCHEMA_VERSION did not change — "
                "bump repro.service.model.SCHEMA_VERSION first (or pass "
                "--force if the drift predates the freeze)"
            )
    if locked == schema:
        return f"{lock_path.name} already matches the sources (version {schema['schema_version']})"
    write_lock(lock_path, schema)
    return f"froze wire schema version {schema['schema_version']} into {lock_path.name}"


def _diff_records(
    locked: Dict[str, Dict[str, str]], current: Dict[str, Dict[str, str]]
) -> Iterable[Tuple[str, str]]:
    """Yield ``(record_name, message)`` pairs for every field-level drift."""
    for name in sorted(set(locked) | set(current)):
        if name not in current:
            yield name, f"record {name!r} was removed from the wire model"
            continue
        if name not in locked:
            yield name, f"record {name!r} was added to the wire model"
            continue
        before, after = locked[name], current[name]
        for field_name in sorted(set(before) | set(after)):
            if field_name not in after:
                yield name, f"{name}.{field_name} was removed"
            elif field_name not in before:
                yield name, f"{name}.{field_name} ({after[field_name]}) was added"
            elif before[field_name] != after[field_name]:
                yield (
                    name,
                    f"{name}.{field_name} was retyped "
                    f"{before[field_name]} -> {after[field_name]}",
                )


def _route_key(row: Dict[str, object]) -> Tuple[str, str]:
    return str(row.get("method")), str(row.get("pattern"))


def _diff_routes(
    locked: List[Dict[str, object]], current: List[Dict[str, object]]
) -> Iterable[str]:
    before = {_route_key(row): row for row in locked}
    after = {_route_key(row): row for row in current}
    for key in sorted(set(before) | set(after)):
        method, pattern = key
        if key not in after:
            yield f"route `{method} {pattern}` was removed"
        elif key not in before:
            yield f"route `{method} {pattern}` was added"
        elif before[key] != after[key]:
            yield (
                f"route `{method} {pattern}` changed: "
                f"{before[key]} -> {after[key]}"
            )


@register_checker
class WireSchemaChecker(Checker):
    code = "RPR104"
    name = "wire-schema-freeze"
    description = (
        "the /v1 record fields, error codes and ROUTES table must match the "
        "committed schemas.lock.json; any drift requires a SCHEMA_VERSION "
        "bump plus --update-lock"
    )

    def finalize(self, run: AnalysisRun) -> Iterable[Finding]:
        model_path = run.root / MODEL_PATH
        server_path = run.root / SERVER_PATH
        if not model_path.exists() or not server_path.exists():
            return  # not a service-bearing tree (fixture roots)
        model_rel = MODEL_PATH.as_posix()
        server_rel = SERVER_PATH.as_posix()
        try:
            schema, anchors = extract_wire_schema(run.root)
        except (SchemaExtractionError, SyntaxError, OSError) as error:
            yield Finding(
                model_rel, 1, 0, self.code, f"cannot extract the wire schema: {error}"
            )
            return
        locked = load_lock(run.lock_path)
        if locked is None:
            yield Finding(
                model_rel,
                anchors.get("SCHEMA_VERSION", 1),
                0,
                self.code,
                f"no {run.lock_path.name} golden committed — freeze the wire "
                f"schema with `python -m repro.analysis --update-lock`",
            )
            return
        if locked == schema:
            return
        if locked.get("schema_version") != schema["schema_version"]:
            yield Finding(
                model_rel,
                anchors.get("SCHEMA_VERSION", 1),
                0,
                self.code,
                f"SCHEMA_VERSION moved "
                f"{locked.get('schema_version')} -> {schema['schema_version']} "
                f"but {run.lock_path.name} still holds the old freeze — "
                f"refresh it with `python -m repro.analysis --update-lock`",
            )
            return
        emitted = False
        for record, message in _diff_records(
            locked.get("records", {}), schema["records"]
        ):
            emitted = True
            yield Finding(
                model_rel,
                anchors.get(record, 1),
                0,
                self.code,
                f"{message} without a SCHEMA_VERSION bump — the /v1 wire "
                f"format is frozen; bump the version and re-freeze",
            )
        before_codes = locked.get("error_codes", [])
        if before_codes != schema["error_codes"]:
            emitted = True
            added = sorted(set(schema["error_codes"]) - set(before_codes))
            removed = sorted(set(before_codes) - set(schema["error_codes"]))
            yield Finding(
                model_rel,
                anchors.get("ERROR_CODES", 1),
                0,
                self.code,
                f"ERROR_CODES drifted without a SCHEMA_VERSION bump "
                f"(added {added}, removed {removed}) — clients dispatch on "
                f"these; bump the version and re-freeze",
            )
        for message in _diff_routes(locked.get("routes", []), schema["routes"]):
            emitted = True
            yield Finding(
                server_rel,
                anchors.get("ROUTES", 1),
                0,
                self.code,
                f"{message} without a SCHEMA_VERSION bump — the routing "
                f"table is part of the frozen wire API",
            )
        if not emitted:  # pragma: no cover - defensive: unknown key drift
            yield Finding(
                model_rel,
                1,
                0,
                self.code,
                f"{run.lock_path.name} does not match the extracted schema — "
                f"re-freeze with `python -m repro.analysis --update-lock`",
            )
