"""The `repro.analysis` framework: findings, checkers, suppressions.

The repo's correctness rests on a handful of load-bearing invariants —
the optional-numpy guarantee, the bit-identity contract, the per-session
lock discipline, the frozen ``/v1`` wire schemas, the ``repro.obs``
conventions.  Each is stated once here as a machine-checkable rule and
proven on every commit, *statically*, before any test runs (the CI jobs
that exercise them dynamically become backstops, not the only line of
defence).

Vocabulary
----------
* A **checker** owns one stable code (``RPR1xx``) and inspects parsed
  modules (:class:`ParsedModule`) and/or the whole run
  (:meth:`Checker.finalize`) for violations, emitting
  :class:`Finding` objects.
* A finding is **suppressed inline** by a ``# repro: allow[RPR1xx]``
  comment on the offending line, or **allowlisted** by an entry in the
  committed allowlist file — every entry carries a mandatory
  one-line justification (a blanket or unjustified entry is a
  configuration error, not a suppression).
* ``RPR100`` is the framework's own code: unparsable files, stale
  allowlist entries — meta-findings that keep the tool honest.

The CLI (``python -m repro.analysis``) exits non-zero on any
unexplained finding; see :mod:`repro.analysis.checkers` for the rules
and :mod:`repro.analysis.schema_lock` for the wire-schema freeze.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

__all__ = [
    "AnalysisConfigError",
    "AnalysisReport",
    "AnalysisRun",
    "AllowlistEntry",
    "Checker",
    "CHECKERS",
    "Finding",
    "FRAMEWORK_CODE",
    "ParsedModule",
    "load_allowlist",
    "register_checker",
    "suppressed_codes",
]

#: The framework's own finding code (parse failures, stale allowlist).
FRAMEWORK_CODE = "RPR100"

_CODE_RE = re.compile(r"^RPR\d{3}$")

#: ``# repro: allow[RPR101]`` (or a comma-separated list of codes).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


class AnalysisConfigError(Exception):
    """The analyzer itself is misconfigured (malformed allowlist, bad
    paths) — distinct from findings so the CLI can exit 2, not 1."""


@dataclass(frozen=True, order=True)
class Finding:
    """One violation of one invariant, anchored to a file and line."""

    path: str  #: repo-relative posix path
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class ParsedModule:
    """One source file parsed once and shared by every checker.

    ``rel`` is the repo-relative posix path (finding anchor);
    ``pkg_rel`` is the path relative to ``src/repro`` (checker scoping,
    e.g. ``core/chunked.py``), or ``rel`` when outside the package.
    Every AST node carries a ``parent`` link so checkers can reason
    about lexical context (guarding ``try``, enclosing ``with``).
    """

    def __init__(self, path: Path, rel: str, pkg_rel: str, source: str):
        self.path = path
        self.rel = rel
        self.pkg_rel = pkg_rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node  # type: ignore[attr-defined]

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Checker:
    """Base class: one stable code, one invariant, one rationale."""

    #: Stable finding code (``RPR1xx``); never renumber a shipped code.
    code: str = ""
    #: Short kebab-case rule name (the catalogue key).
    name: str = ""
    #: One-line rationale shown by ``--list-checkers``.
    description: str = ""

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Per-file findings (the common case)."""
        return ()

    def finalize(self, run: "AnalysisRun") -> Iterable[Finding]:
        """Whole-run findings, after every module was visited (cross-file
        aggregation, lockfile diffs)."""
        return ()


#: code -> checker class, populated by :func:`register_checker`.
CHECKERS: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    if not _CODE_RE.match(cls.code or ""):
        raise ValueError(f"checker {cls.__name__} needs a RPR1xx code, got {cls.code!r}")
    if cls.code == FRAMEWORK_CODE:
        raise ValueError(f"{FRAMEWORK_CODE} is reserved for the framework")
    if cls.code in CHECKERS:
        raise ValueError(f"duplicate checker code {cls.code}")
    CHECKERS[cls.code] = cls
    return cls


def suppressed_codes(line_text: str) -> frozenset:
    """Codes suppressed by a ``# repro: allow[...]`` comment on a line."""
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip()
    )


# ----------------------------------------------------------------------
# Allowlist
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllowlistEntry:
    """One committed exception: ``code`` at ``path``, with its reason.

    Entries are path-level (not line-level) on purpose: line numbers
    churn, the *decision* that a file may violate a rule does not.
    """

    code: str
    path: str
    justification: str


def load_allowlist(path: Path) -> List[AllowlistEntry]:
    """Load and validate the allowlist; absent file means no entries.

    Raises :class:`AnalysisConfigError` on malformed entries or a
    missing/empty justification — an unexplained exception is exactly
    what this tool exists to prevent.
    """
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise AnalysisConfigError(f"cannot read allowlist {path}: {error}") from error
    entries = payload.get("entries") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise AnalysisConfigError(
            f"allowlist {path} must be a list of entries (or {{'entries': [...]}})"
        )
    out: List[AllowlistEntry] = []
    for index, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise AnalysisConfigError(f"allowlist entry #{index} is not an object: {raw!r}")
        missing = [key for key in ("code", "path", "justification") if key not in raw]
        if missing:
            raise AnalysisConfigError(f"allowlist entry #{index} is missing {missing}")
        code = str(raw["code"])
        if not _CODE_RE.match(code):
            raise AnalysisConfigError(f"allowlist entry #{index} has a bad code {code!r}")
        justification = str(raw["justification"]).strip()
        if not justification:
            raise AnalysisConfigError(
                f"allowlist entry #{index} ({code} at {raw['path']}) needs a "
                f"non-empty justification — blanket suppressions are not accepted"
            )
        out.append(AllowlistEntry(code, str(raw["path"]), justification))
    return out


# ----------------------------------------------------------------------
# The run driver
# ----------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Everything one run produced, already triaged."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    allowlisted: List[Finding] = field(default_factory=list)
    files: int = 0
    checkers: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "files": self.files,
            "checkers": self.checkers,
            "findings": [vars(f) for f in self.findings],
            "suppressed": len(self.suppressed),
            "allowlisted": len(self.allowlisted),
        }

    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed inline, "
            f"{len(self.allowlisted)} allowlisted) "
            f"across {self.files} file(s), {self.checkers} checker(s)"
        )


class AnalysisRun:
    """One analysis pass over a repo root.

    Parameters
    ----------
    root:
        Repository root (the directory holding ``pyproject.toml``,
        ``src/repro``, the allowlist and the schema lock).
    paths:
        Optional file/directory filters (absolute or root-relative);
        default is every ``*.py`` under ``src/repro``, in sorted order
        (the scan itself obeys the determinism rules it enforces).
    checkers:
        Optional subset of codes to run (default: all registered).
    """

    def __init__(
        self,
        root: Path,
        paths: Optional[Sequence[Path]] = None,
        checkers: Optional[Sequence[str]] = None,
        allowlist_path: Optional[Path] = None,
        lock_path: Optional[Path] = None,
    ):
        self.root = Path(root).resolve()
        self.src = self.root / "src" / "repro"
        self.allowlist_path = (
            allowlist_path
            if allowlist_path is not None
            else self.root / "analysis-allowlist.json"
        )
        self.lock_path = (
            lock_path if lock_path is not None else self.root / "schemas.lock.json"
        )
        self._explicit_paths = None if paths is None else [Path(p) for p in paths]
        if checkers is None:
            codes = sorted(CHECKERS)
        else:
            unknown = [code for code in checkers if code not in CHECKERS]
            if unknown:
                raise AnalysisConfigError(
                    f"unknown checker codes {unknown}; known: {sorted(CHECKERS)}"
                )
            codes = sorted(checkers)
        self.checker_codes = codes
        self.modules: List[ParsedModule] = []
        self._parse_failures: List[Finding] = []

    # ------------------------------------------------------------------
    def _target_files(self) -> List[Path]:
        if self._explicit_paths is None:
            return sorted(self.src.rglob("*.py"))
        files: List[Path] = []
        for given in self._explicit_paths:
            path = given if given.is_absolute() else self.root / given
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py" and path.exists():
                files.append(path)
            else:
                raise AnalysisConfigError(f"no such python file or directory: {given}")
        return sorted(set(files))

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def _pkg_rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.src).as_posix()
        except ValueError:
            return self._rel(path)

    def _load_modules(self) -> None:
        self.modules = []
        self._parse_failures = []
        for path in self._target_files():
            rel = self._rel(path)
            try:
                source = path.read_text()
                module = ParsedModule(path, rel, self._pkg_rel(path), source)
            except (OSError, SyntaxError, ValueError) as error:
                line = getattr(error, "lineno", 1) or 1
                self._parse_failures.append(
                    Finding(rel, line, 0, FRAMEWORK_CODE, f"cannot analyse file: {error}")
                )
                continue
            self.modules.append(module)

    # ------------------------------------------------------------------
    def run(self) -> AnalysisReport:
        allowlist = load_allowlist(self.allowlist_path)
        self._load_modules()
        raw: List[Finding] = list(self._parse_failures)
        for code in self.checker_codes:
            checker = CHECKERS[code]()
            for module in self.modules:
                raw.extend(checker.check_module(module))
            raw.extend(checker.finalize(self))
        by_rel = {module.rel: module for module in self.modules}

        report = AnalysisReport(
            files=len(self.modules), checkers=len(self.checker_codes)
        )
        used_entries = set()
        for finding in sorted(raw):
            module = by_rel.get(finding.path)
            if module is not None and finding.code in suppressed_codes(
                module.line_text(finding.line)
            ):
                report.suppressed.append(finding)
                continue
            entry = self._match_allowlist(allowlist, finding)
            if entry is not None:
                used_entries.add(entry)
                report.allowlisted.append(finding)
                continue
            report.findings.append(finding)
        for entry in allowlist:
            if entry not in used_entries:
                report.findings.append(
                    Finding(
                        self._rel(self.allowlist_path),
                        1,
                        0,
                        FRAMEWORK_CODE,
                        f"stale allowlist entry: {entry.code} at {entry.path!r} "
                        f"matches no finding — delete it",
                    )
                )
        report.findings.sort()
        return report

    @staticmethod
    def _match_allowlist(
        allowlist: Sequence[AllowlistEntry], finding: Finding
    ) -> Optional[AllowlistEntry]:
        for entry in allowlist:
            if entry.code == finding.code and entry.path == finding.path:
                return entry
        return None


# ----------------------------------------------------------------------
# AST helpers shared by checkers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def ancestors(node: ast.AST) -> Iterable[ast.AST]:
    """Lexical ancestors, innermost first (needs ``parent`` links)."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def catches_import_error(node: ast.AST) -> bool:
    """True when the import is inside the body of a ``try`` whose
    handlers catch ImportError/ModuleNotFoundError (or everything)."""
    previous = node
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.Try):
            in_body = any(
                previous is stmt or _contains(stmt, previous)
                for stmt in ancestor.body
            )
            if in_body and any(_handles_import_error(h) for h in ancestor.handlers):
                return True
        previous = ancestor
    return False


def _contains(tree: ast.AST, target: ast.AST) -> bool:
    return any(node is target for node in ast.walk(tree))


def _handles_import_error(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    names = []
    if isinstance(kind, ast.Tuple):
        names = [dotted_name(item) for item in kind.elts]
    else:
        names = [dotted_name(kind)]
    return any(
        name.rsplit(".", 1)[-1] in ("ImportError", "ModuleNotFoundError", "Exception")
        for name in names
    )
