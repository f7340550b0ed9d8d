"""Stable content hashes for sweep configs and for the code itself.

Two ingredients feed every cache key:

* :func:`fingerprint` -- a canonical-JSON SHA-256 of an arbitrary
  (frozen-dataclass-shaped) task description.  Dataclasses are encoded
  with their qualified type name plus field dict, tuples as lists, so
  the hash is stable across processes and Python hash randomization.
* :func:`task_code_version` -- a SHA-256 over the *per-module* source
  hashes of exactly the ``repro`` modules a worker's module (statically,
  transitively) imports.  Editing a figure script or the CLI therefore
  no longer invalidates kernel-bound cells: only the modules in the
  worker's dependency closure enter its cache keys.

The import closure is computed from the AST -- every ``import`` /
``from .. import`` statement anywhere in a module's source, including
function-local lazy imports, resolved against the package's module
table.  Package ``__init__`` files enter the closure only when an
import statement targets the package itself (``from ..invariants import
InvariantChecker``).  They are lazy re-export tables: each names, in a
literal ``_EXPORTS`` dict, the modules it re-exports from and imports
them on first use (:func:`repro._lazy_exports`), so a package's imports
are the modules its table names, read from the table exactly as from
the ``from .x import name`` lines they stand for.  Without that,
``from ..invariants import InvariantChecker`` would reach no checker
module, and an edit to the checker would serve stale checked cells.
This is deliberately conservative in one direction only -- a module the
closure includes but the task never executes costs a spurious
invalidation, never a stale hit.  The one rule authors must uphold is
that dynamic imports built from strings (``importlib.import_module(f"
...")``) are invisible to the AST walk; the package has none besides
the export tables' own, which are read as above.

:func:`code_version` (a single hash over every module) is kept for
whole-package consumers and as the fallback for workers defined outside
the ``repro`` package (tests, notebooks), where no manifest exists.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "fingerprint",
    "canonical_payload",
    "code_version",
    "package_modules",
    "module_hash",
    "module_imports",
    "dependency_closure",
    "code_manifest",
    "task_code_version",
    "worker_code_version",
    "worker_manifest",
    "invalidate_code_caches",
]

#: Test seam: ``{module_name: source_bytes}`` overrides consulted before
#: the on-disk source, so tests can simulate edits without touching the
#: tree.  Call :func:`invalidate_code_caches` after mutating it.
_SOURCE_OVERRIDES: dict[str, bytes] = {}


def canonical_payload(obj: Any) -> Any:
    """Recursively convert ``obj`` into canonical JSON-able structure.

    Supported: dataclass instances (frozen configs), dicts with string
    keys, tuples/lists, and JSON scalars.  Numpy scalars are accepted
    via their ``item()`` method.  Anything else raises ``TypeError`` so
    un-hashable state never silently degrades cache correctness.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                field.name: canonical_payload(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(item) for item in obj]
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"non-string dict keys are not fingerprintable: {obj!r}")
        return {k: canonical_payload(obj[k]) for k in sorted(obj)}
    item = getattr(obj, "item", None)  # numpy scalar
    if callable(item):
        return canonical_payload(item())
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}: {obj!r}")


def fingerprint(obj: Any) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(
        canonical_payload(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-module hashing and the static import closure
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def package_modules() -> dict[str, Path]:
    """``{dotted_module_name: source_path}`` for the installed package.

    Packages map their ``__init__.py`` under the package's own dotted
    name (``repro.sim`` -> ``repro/sim/__init__.py``).
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    modules: dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root).parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(["repro", *parts])] = path
    return modules


def _module_source(name: str) -> bytes:
    override = _SOURCE_OVERRIDES.get(name)
    if override is not None:
        return override
    return package_modules()[name].read_bytes()


@lru_cache(maxsize=None)
def module_hash(name: str) -> str:
    """Hex SHA-256 of one module's source text."""
    return hashlib.sha256(_module_source(name)).hexdigest()


#: Statement fields that hold nested statement lists.  Imports are
#: statements, so these reach every import a module holds.
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _statements(body: list) -> Iterator[ast.AST]:
    """Every statement of ``body``, nested blocks included, in order
    (``except`` handlers and ``case`` clauses appear as their own
    nodes)."""
    for node in body:
        yield node
        for block in _BLOCKS:
            nested = getattr(node, block, None)
            if nested:
                yield from _statements(nested)


def _export_table(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """A package ``__init__``'s ``_EXPORTS`` table (empty if none)."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_EXPORTS"
        ):
            return ast.literal_eval(node.value)
    return {}


@lru_cache(maxsize=None)
def module_imports(name: str) -> tuple[str, ...]:
    """Direct ``repro``-internal imports of one module (sorted).

    Walks every statement, so function-local lazy imports (the workers'
    idiom) and ``TYPE_CHECKING`` imports are included.  A package also
    imports each module its ``_EXPORTS`` table names, resolved as the
    ``from .module import names`` line the entry stands for.
    """
    modules = package_modules()
    tree = ast.parse(_module_source(name))
    is_package = modules[name].name == "__init__.py"
    # The package a relative import is resolved against: the module's
    # own name when it *is* a package, else its parent.
    package = name if is_package else name.rsplit(".", 1)[0]
    found: set[str] = set()

    def import_from(level: int, module: str, names) -> None:
        if level == 0:
            base_parts = module.split(".")
        else:
            parent_parts = package.split(".")
            if level - 1 >= len(parent_parts):
                return  # relative import escaping the package
            base_parts = parent_parts[: len(parent_parts) - (level - 1)]
            if module:
                base_parts = base_parts + module.split(".")
        base = ".".join(p for p in base_parts if p)
        if base in modules:
            found.add(base)
        for alias in names:
            candidate = f"{base}.{alias}" if base else alias
            if candidate in modules:
                found.add(candidate)

    for node in _statements(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            import_from(
                node.level, node.module or "", [alias.name for alias in node.names]
            )
    if is_package:
        for module, names in _export_table(tree).items():
            relative = module.lstrip(".")
            import_from(len(module) - len(relative), relative, names)
    found.discard(name)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def dependency_closure(name: str) -> tuple[str, ...]:
    """Transitive import closure of a module, itself included (sorted)."""
    if name not in package_modules():
        raise KeyError(f"not a repro module: {name}")
    seen = {name}
    frontier = [name]
    while frontier:
        for imported in module_imports(frontier.pop()):
            if imported not in seen:
                seen.add(imported)
                frontier.append(imported)
    return tuple(sorted(seen))


def code_manifest(name: str) -> dict[str, str]:
    """``{module: source_hash}`` over a module's dependency closure."""
    return {module: module_hash(module) for module in dependency_closure(name)}


@lru_cache(maxsize=None)
def task_code_version(name: str) -> str:
    """Hex digest of the per-module manifest of one module's closure."""
    return fingerprint(code_manifest(name))


def worker_code_version(worker: Callable) -> str:
    """Code-version component of a worker's cache keys.

    Workers defined inside the ``repro`` package get the delta-aware
    per-closure hash; anything else (test-local functions) falls back to
    the conservative whole-package :func:`code_version`.
    """
    module = getattr(worker, "__module__", None)
    if module in package_modules():
        return task_code_version(module)
    return code_version()


def worker_manifest(worker: Callable) -> dict[str, str]:
    """Per-module manifest behind :func:`worker_code_version` (empty for
    workers outside the package, whose version is the global hash)."""
    module = getattr(worker, "__module__", None)
    if module in package_modules():
        return code_manifest(module)
    return {}


def invalidate_code_caches() -> None:
    """Drop every memoized hash/closure (after ``_SOURCE_OVERRIDES``
    edits in tests; production code never mutates sources in-process)."""
    package_modules.cache_clear()
    module_hash.cache_clear()
    module_imports.cache_clear()
    dependency_closure.cache_clear()
    task_code_version.cache_clear()
    code_version.cache_clear()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hex SHA-256 over every ``.py`` source file of the repro package."""
    digest = hashlib.sha256()
    for name, path in package_modules().items():
        digest.update(str(path).encode("utf-8"))
        digest.update(b"\0")
        digest.update(_module_source(name))
        digest.update(b"\0")
    return digest.hexdigest()
