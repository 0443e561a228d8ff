"""The shipped invariant checkers (``RPR101`` … ``RPR105``).

Each rule encodes a contract this repo already enforces dynamically
somewhere — a CI job, a regression test, a docstring promise — restated
here so a violation is caught at parse time on every commit:

* **RPR101 unguarded-numpy** — numpy is an optional dependency; every
  ``import numpy`` must sit in a ``try/except ImportError`` or inside a
  function (lazy), so the no-numpy CI job is a backstop, not the only
  line of defence.
* **RPR102 nondeterminism-in-core** — modules under the bit-identity
  contract (``core/``, ``relation/``, ``stream/``, ``discovery/``) may
  not iterate bare sets into output order, use the stdlib ``random``
  module, wall-clock time, unordered directory listings, or unseeded
  RNG construction.
* **RPR103 lock-discipline** — in a class owning ``self._lock``, every
  ``self._*`` mutation must happen in ``__init__``, inside a
  ``with self._lock:`` block, or in a private method provably called
  only from lock-held contexts (intra-class fixpoint).  Declared
  loop-confined classes must stay free of ``threading`` primitives.
* **RPR105 obs-conventions** — metric writes use the
  ``*_total`` / ``*_seconds`` / ``*_bytes`` naming regime with one fixed
  label set per metric across the whole repo, and nothing under
  ``repro/obs/`` imports outside the standard library.

(**RPR104 wire-schema-freeze** lives in
:mod:`repro.analysis.schema_lock` — it diffs the service model and
routing table against the committed golden ``schemas.lock.json``.)
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.framework import (
    AnalysisRun,
    Checker,
    Finding,
    ParsedModule,
    ancestors,
    catches_import_error,
    dotted_name,
    enclosing_function,
    register_checker,
)

__all__ = [
    "LockDisciplineChecker",
    "NondeterminismChecker",
    "ObsConventionsChecker",
    "UnguardedNumpyChecker",
]


# ----------------------------------------------------------------------
# RPR101 — unguarded numpy imports
# ----------------------------------------------------------------------
@register_checker
class UnguardedNumpyChecker(Checker):
    code = "RPR101"
    name = "unguarded-numpy"
    description = (
        "numpy is optional: every `import numpy` must be guarded by "
        "try/except ImportError or deferred into a function"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else []
            else:
                continue
            if not any(name and name.split(".")[0] == "numpy" for name in names):
                continue
            if enclosing_function(node) is not None:
                continue  # lazy import: only pays when the caller runs
            if catches_import_error(node):
                continue  # the designated guarded-import section shape
            yield Finding(
                module.rel,
                node.lineno,
                node.col_offset,
                self.code,
                "module-level `import numpy` without a try/except "
                "ImportError guard — numpy is an optional dependency; "
                "guard the import or defer it into the function that "
                "needs it",
            )


# ----------------------------------------------------------------------
# RPR102 — nondeterminism in bit-identity modules
# ----------------------------------------------------------------------
#: Packages whose outputs must be bit-identical across kernels, chunkings
#: and process counts (the repo-wide `==` contract).
CONTRACT_PACKAGES: Tuple[str, ...] = ("core/", "relation/", "stream/", "discovery/")

#: Wall-clock / filesystem-order / entropy calls that may not feed values
#: produced under the bit-identity contract.  Monotonic timers
#: (`perf_counter`, `monotonic`) stay legal: elapsed-seconds fields are
#: declared volatile by the service model, not part of the contract.
_BANNED_CALL_SUFFIXES: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.listdir",
    "os.scandir",
    "os.walk",
    "glob.glob",
    "glob.iglob",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: Legacy global-state RNG entry points (numpy's module-level generator):
#: their sequence depends on every other caller in the process.
_GLOBAL_RNG_SUFFIXES: Tuple[str, ...] = (
    "random.rand",
    "random.randn",
    "random.randint",
    "random.random",
    "random.choice",
    "random.shuffle",
    "random.permutation",
    "random.seed",
)

#: Constructors whose argument order becomes output order.
_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register_checker
class NondeterminismChecker(Checker):
    code = "RPR102"
    name = "nondeterminism-in-core"
    description = (
        "bit-identity modules (core/, relation/, stream/, discovery/) must "
        "not iterate bare sets into output order or read entropy/wall-clock/"
        "directory-order sources"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        if not module.pkg_rel.startswith(CONTRACT_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self._finding(
                            module,
                            node,
                            "import of the stdlib `random` module — seed-less "
                            "entropy has no place under the bit-identity "
                            "contract; thread an explicit seeded generator in",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self._finding(
                        module,
                        node,
                        "import from the stdlib `random` module — seed-less "
                        "entropy has no place under the bit-identity contract",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    yield self._finding(
                        module,
                        node.iter,
                        "iteration over a bare set — set order is "
                        "hash-randomised; sort it (or keep a dict/list, "
                        "which iterates in insertion order)",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        yield self._finding(
                            module,
                            generator.iter,
                            "comprehension over a bare set — set order is "
                            "hash-randomised; sort it first",
                        )

    def _check_call(self, module: ParsedModule, node: ast.Call) -> Iterable[Finding]:
        name = dotted_name(node.func)
        if name:
            if any(
                name == banned or name.endswith("." + banned)
                for banned in _BANNED_CALL_SUFFIXES
            ):
                yield self._finding(
                    module,
                    node,
                    f"call to `{name}` — wall-clock, filesystem order and "
                    f"entropy sources are banned under the bit-identity "
                    f"contract (monotonic timers are fine)",
                )
            if name.endswith("random.default_rng") and not (node.args or node.keywords):
                yield self._finding(
                    module,
                    node,
                    "`default_rng()` without a seed — construct generators "
                    "from an explicit seed so replays are bit-identical",
                )
            if ".random." in f".{name}." and name.endswith(_GLOBAL_RNG_SUFFIXES):
                yield self._finding(
                    module,
                    node,
                    f"call to the global-state RNG `{name}` — its sequence "
                    f"depends on every other caller; use a seeded "
                    f"`default_rng(seed)` instance",
                )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SINKS
            and node.args
            and _is_set_expression(node.args[0])
        ):
            yield self._finding(
                module,
                node,
                f"`{node.func.id}(set(...))` materialises hash-randomised "
                f"set order — use `sorted(...)` or a dict, which keeps "
                f"insertion order",
            )

    def _finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            module.rel,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.code,
            message,
        )


# ----------------------------------------------------------------------
# RPR103 — lock discipline
# ----------------------------------------------------------------------
#: Classes whose concurrency contract is thread-confinement (they run on
#: one event loop by construction): introducing threading primitives in
#: them would silently fork the design into half-locked territory.
LOOP_CONFINED_CLASSES = frozenset({"ShardDispatcher"})


def _lock_in_with_items(node: ast.With) -> bool:
    return any(
        dotted_name(item.context_expr) == "self._lock" for item in node.items
    )


def _mutated_self_attr(node: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """``(attr, anchor)`` when ``node`` assigns/augments/deletes a
    ``self._x`` attribute or a subscript rooted at one."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target] if getattr(node, "value", None) is not None else []
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and base.attr.startswith("_")
        ):
            return base.attr, target
    return None


def _under_lock(node: ast.AST, class_node: ast.ClassDef) -> bool:
    """Lexically inside a ``with self._lock:`` block within the class.

    The walk crosses nested function boundaries on purpose: a closure
    defined inside the locked region (e.g. a statistics provider handed
    to the discovery engine) runs re-entrantly under the same RLock.
    """
    for ancestor in ancestors(node):
        if ancestor is class_node:
            return False
        if isinstance(ancestor, ast.With) and _lock_in_with_items(ancestor):
            return True
    return False


def _enclosing_method(node: ast.AST, class_node: ast.ClassDef) -> Optional[str]:
    """Name of the class-level method lexically containing ``node``."""
    name: Optional[str] = None
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parent = getattr(ancestor, "parent", None)
            if parent is class_node:
                name = ancestor.name
    return name


@register_checker
class LockDisciplineChecker(Checker):
    code = "RPR103"
    name = "lock-discipline"
    description = (
        "classes owning self._lock mutate self._* state only in __init__, "
        "under `with self._lock:`, or in private methods reachable only "
        "from lock-held contexts; loop-confined classes stay threading-free"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in LOOP_CONFINED_CLASSES:
                yield from self._check_loop_confined(module, node)
            if self._owns_lock(node):
                yield from self._check_lock_owner(module, node)

    @staticmethod
    def _owns_lock(class_node: ast.ClassDef) -> bool:
        for node in ast.walk(class_node):
            if isinstance(node, ast.Assign) and any(
                dotted_name(target) == "self._lock" for target in node.targets
            ):
                return True
        return False

    def _check_loop_confined(
        self, module: ParsedModule, class_node: ast.ClassDef
    ) -> Iterable[Finding]:
        for node in ast.walk(class_node):
            if isinstance(node, ast.Name) and node.id == "threading":
                yield Finding(
                    module.rel,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"`{class_node.name}` is loop-confined by contract "
                    f"(single-threaded on the server's event loop): "
                    f"introducing `threading` primitives here half-adopts "
                    f"locking — keep all access on the loop instead",
                )

    def _check_lock_owner(
        self, module: ParsedModule, class_node: ast.ClassDef
    ) -> Iterable[Finding]:
        methods: Dict[str, ast.AST] = {
            item.name: item
            for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # Internal call sites per method: method -> [(caller, protected)].
        call_sites: Dict[str, List[Tuple[str, bool]]] = {name: [] for name in methods}
        for node in ast.walk(class_node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in call_sites
            ):
                caller = _enclosing_method(node, class_node)
                if caller is not None:
                    call_sites[node.func.attr].append(
                        (caller, _under_lock(node, class_node))
                    )

        # Fixpoint: a private method is "lock-held" when every internal
        # call site is protected (lexically under the lock, in __init__,
        # or in another lock-held method).  Public methods must take the
        # lock themselves — callers outside the class cannot be seen.
        lock_held: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, sites in call_sites.items():
                if name in lock_held or not name.startswith("_") or name == "__init__":
                    continue
                if not sites:
                    continue
                if all(
                    protected or caller == "__init__" or caller in lock_held
                    for caller, protected in sites
                ):
                    lock_held.add(name)
                    changed = True

        for node in ast.walk(class_node):
            mutated = _mutated_self_attr(node)
            if mutated is None:
                continue
            attr, anchor = mutated
            method = _enclosing_method(node, class_node)
            if method is None or method == "__init__":
                continue
            if method in lock_held or _under_lock(node, class_node):
                continue
            yield Finding(
                module.rel,
                anchor.lineno,
                anchor.col_offset,
                self.code,
                f"`{class_node.name}.{method}` mutates `self.{attr}` outside "
                f"`with self._lock:` — this class serialises its `self._*` "
                f"state on its lock; wrap the mutation or route it through a "
                f"lock-held helper",
            )


# ----------------------------------------------------------------------
# RPR105 — observability conventions
# ----------------------------------------------------------------------
_COUNTER_RE = re.compile(r"^[a-z][a-z0-9_]*_total$")
_HISTOGRAM_RE = re.compile(r"^[a-z][a-z0-9_]*_(seconds|bytes)$")
_GAUGE_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Registry write/declare methods -> metric type.
_METRIC_METHODS: Dict[str, str] = {
    "inc": "counter",
    "declare_counter": "counter",
    "observe": "histogram",
    "declare_histogram": "histogram",
    "set_gauge": "gauge",
    "declare_gauge": "gauge",
}

#: Non-label keyword arguments of the registry API.
_NON_LABEL_KWARGS = frozenset({"value", "help", "label_names", "buckets"})

if hasattr(sys, "stdlib_module_names"):
    _STDLIB_MODULES = frozenset(sys.stdlib_module_names)
else:  # pragma: no cover - python 3.9 fallback
    _STDLIB_MODULES = frozenset(
        """__future__ abc argparse array ast asyncio base64 bisect builtins bz2
        calendar collections concurrent configparser contextlib contextvars copy
        copyreg csv ctypes dataclasses datetime decimal difflib dis enum errno
        fnmatch fractions functools gc getpass gettext glob gzip hashlib heapq
        hmac html http importlib inspect io itertools json keyword linecache
        locale logging lzma math multiprocessing numbers operator os pathlib
        pickle platform pprint queue random re reprlib secrets selectors shutil
        signal socket socketserver sqlite3 ssl stat statistics string struct
        subprocess sys tarfile tempfile textwrap threading time token tokenize
        traceback types typing unicodedata unittest urllib uuid warnings weakref
        xml zipfile zlib""".split()
    )


@register_checker
class ObsConventionsChecker(Checker):
    code = "RPR105"
    name = "obs-conventions"
    description = (
        "metric names follow the *_total/*_seconds/*_bytes regime with one "
        "fixed label set per metric; repro/obs/ imports stdlib only"
    )

    def __init__(self):
        #: metric name -> [(labels, path, line, col)] across the repo.
        self._sites: Dict[str, List[Tuple[Tuple[str, ...], str, int, int]]] = {}

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        if module.pkg_rel.startswith("obs/"):
            yield from self._check_obs_imports(module)
        yield from self._check_metric_calls(module)

    def _check_obs_imports(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level and node.level > 0:
                    continue  # relative: stays inside repro.obs
                names = [node.module] if node.module else []
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in _STDLIB_MODULES or name.startswith("repro.obs"):
                    continue
                yield Finding(
                    module.rel,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"`repro.obs` is stdlib-only by contract (it must import "
                    f"cleanly in every deployment, numpy-free CI included); "
                    f"`{name}` breaks that",
                )

    def _check_metric_calls(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
            ):
                continue
            if not (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            kind = _METRIC_METHODS[node.func.attr]
            message = self._naming_violation(kind, name)
            if message is not None:
                yield Finding(
                    module.rel, node.lineno, node.col_offset, self.code, message
                )
            if any(kw.arg is None for kw in node.keywords):
                continue  # **labels splat: label set not statically known
            labels = tuple(
                sorted(
                    kw.arg
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in _NON_LABEL_KWARGS
                )
            )
            self._sites.setdefault(name, []).append(
                (labels, module.rel, node.lineno, node.col_offset)
            )

    @staticmethod
    def _naming_violation(kind: str, name: str) -> Optional[str]:
        if kind == "counter" and not _COUNTER_RE.match(name):
            return (
                f"counter {name!r} must match `*_total` (lower_snake_case "
                f"with the cumulative suffix)"
            )
        if kind == "histogram" and not _HISTOGRAM_RE.match(name):
            return (
                f"histogram {name!r} must match `*_seconds` or `*_bytes` "
                f"(the unit is the suffix)"
            )
        if kind == "gauge":
            if not _GAUGE_RE.match(name):
                return f"gauge {name!r} must be lower_snake_case"
            if name.endswith(("_total", "_seconds", "_bytes")):
                return (
                    f"gauge {name!r} carries a cumulative/unit suffix — "
                    f"gauges are levels; reserve `_total`/`_seconds`/`_bytes` "
                    f"for counters and histograms"
                )
        return None

    def finalize(self, run: AnalysisRun) -> Iterable[Finding]:
        for name in sorted(self._sites):
            sites = sorted(self._sites[name], key=lambda s: (s[1], s[2], s[3]))
            canonical = sites[0][0]
            for labels, path, line, col in sites[1:]:
                if labels != canonical:
                    yield Finding(
                        path,
                        line,
                        col,
                        self.code,
                        f"metric {name!r} is written here with label set "
                        f"{list(labels)} but {list(canonical)} at "
                        f"{sites[0][1]}:{sites[0][2]} — a metric's label set "
                        f"is fixed at first use (merges reject conflicts)",
                    )
        self._sites = {}
