"""Every name a metaclust module exports in ``__all__`` exists, star-imports
and, but for a short allow-list, is used by library code, and so is every
public method, property or annotated field of an exported class; every name a
module imports is used in it or exported; every exception it raises maps to an
exit code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import metaclust

MODULES = ["metaclust"] + [f"metaclust.{info.name}" for info in pkgutil.iter_modules(metaclust.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


# Exported for the paper's ERM theory and kept as acceptance oracles, with no library caller.
# ``rand_index`` is the paper's Rand index and criterion 01's oracle.
UNREFERENCED_ALLOWED = {"erm_select", "generalization_bound", "fit_threshold_bruteforce", "rand_index"}


def _library_files():
    """The package's module files but ``__init__.py``, which only re-exports."""
    return sorted(p for p in Path(metaclust.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _library_references():
    """Every identifier that library code reads or imports; definitions, ``__all__`` strings and
    the package's own re-exports in ``__init__.py`` do not count."""
    seen = set()
    for path in _library_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


def test_every_export_has_a_library_caller():
    referenced = _library_references()
    unreferenced = {
        f"{name}.{export}"
        for name in MODULES
        for export in getattr(importlib.import_module(name), "__all__", [])
        if export not in referenced
    }
    assert {n.rsplit(".", 1)[1] for n in unreferenced} == UNREFERENCED_ALLOWED, sorted(unreferenced)


# Public methods, properties and annotated fields of exported classes that library code never
# reads as ``x.name``.  None may be: a member only tests read is library surface without a
# library use.
UNREAD_MEMBERS_ALLOWED = set()


def _member_name(node):
    """The name a class-body method, property or annotated field defines; None for any other node."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_every_public_member_of_an_exported_class_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _library_files()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    members = set()
    for name, tree in trees.items():
        exported = set(getattr(importlib.import_module(f"metaclust.{name[:-3]}"), "__all__", []))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                names = (_member_name(node) for node in cls.body)
                members.update(f"{cls.name}.{name}" for name in names if name and not name.startswith("_"))
    assert {m for m in members if m.rsplit(".", 1)[1] not in read} == UNREAD_MEMBERS_ALLOWED


@pytest.mark.parametrize("path", sorted(Path(metaclust.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


# The exception classes that ``cli.main`` maps to exit 1 (configuration) or exit 2 (IO or data).
EXIT_MAPPED = {"ValueError", "DataError", "ConfigError", "OSError"}


@pytest.mark.parametrize("path", sorted(Path(metaclust.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_raises_only_exit_mapped_errors(path):
    unmapped = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:  # a bare ``raise`` re-raises
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id in EXIT_MAPPED):
            unmapped.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert unmapped == []
