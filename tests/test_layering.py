"""Module layering: the analyses sit below the compiler, and the region
certifiers share their engines through public names only.

Every module under ``src/repro`` is parsed with :mod:`ast`, its relative
imports resolved against its package.  Nothing under ``repro.analysis``
may import ``repro.core`` (the compiler consumes the analyses, not the
reverse), and no module may import an underscore-prefixed name from
``static_war``, ``idempotence``, ``redundancy``, ``progress`` or the
machine-level region engine ``repro.backend.mir_war``: what one
certifier reuses of another is that module's public API.

No module imports a name it never uses, unless it exports the name in
``__all__`` or the name is in :data:`TRACER_IMPORTS`; the same holds for
every Python file under ``tests/`` (helpers and the golden generator
included), which has no exceptions.
"""

import ast
import os

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src")

#: the modules whose private names no other module may import
SEALED = {
    f"repro.analysis.{name}"
    for name in ("static_war", "idempotence", "redundancy", "progress")
} | {"repro.backend.mir_war"}

#: names imported only so that perfbench's tracer can wrap them under
#: the module attribute its ``ENTRY_POINTS`` name
TRACER_IMPORTS = {
    ("repro.core.lint", "verify_module_war"),
    ("repro.core.lint", "lower_module"),
    ("repro.core.lint", "verify_mmodule_war"),
    ("repro.core.pipeline", "verify_module_war"),
    ("repro.core.pipeline", "verify_mmodule_war"),
}


def modules():
    """``(dotted name, is a package, path)`` of every module of ``repro``."""
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(dirpath, file)
            parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts.pop()
            yield ".".join(parts), is_package, path


def imports(name, is_package, source):
    """``(module, names)`` of each import statement of module ``name``,
    relative imports resolved (``names`` is empty for ``import m``)."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[:len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module, tuple(alias.name for alias in node.names)


def violations():
    found, seen = [], set()
    for name, is_package, path in modules():
        seen.add(name)
        with open(path) as handle:
            source = handle.read()
        for module, names in imports(name, is_package, source):
            targets = [module] + [f"{module}.{n}" for n in names]
            if name.startswith("repro.analysis") and any(
                    t == "repro.core" or t.startswith("repro.core.")
                    for t in targets):
                found.append(f"{name} imports {module}")
            if module in SEALED:
                found += [f"{name} imports {module}.{n}"
                          for n in names if n.startswith("_")]
    assert SEALED <= seen, "the walk missed the certifier modules"
    return found


def test_relative_imports_resolve_against_the_package():
    source = ("from ..core.region_bound import _cost\n"
              "from .progress import _seq, PathSummary\n"
              "from . import static_war\n")
    assert list(imports("repro.analysis.redundancy", False, source)) == [
        ("repro.core.region_bound", ("_cost",)),
        ("repro.analysis.progress", ("_seq", "PathSummary")),
        ("repro.analysis", ("static_war",)),
    ]
    assert list(imports("repro.analysis", True, "from .loops import x\n")) \
        == [("repro.analysis.loops", ("x",))]


def test_no_layer_or_private_name_violations():
    assert violations() == []


def unused_imports(source):
    """Names the module's imports bind that it neither reads nor lists in
    ``__all__``.  A name read only in a quoted annotation counts as
    read."""
    tree = ast.parse(source)
    bound, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {e.value for e in node.value.elts}
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {n.id for n in ast.walk(ast.parse(note.value))
                         if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_unused_import_scan():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Dict, List, Optional\n"
              "from .x import A, B as C, D\n"
              "__all__ = ['D']\n"
              "def f(a: 'Optional[int]') -> List: return os.path.join(C)\n")
    assert unused_imports(source) == ["A", "Dict"]


def test_no_unused_imports():
    files = [(name, path) for name, _is_package, path in modules()]
    for dirpath, _dirs, names in os.walk(TESTS):
        files += [(os.path.relpath(os.path.join(dirpath, file), TESTS),
                   os.path.join(dirpath, file))
                  for file in sorted(names) if file.endswith(".py")]
    found = set()
    for name, path in files:
        with open(path) as handle:
            found |= {(name, unused) for unused in unused_imports(handle.read())}
    assert sorted(found - TRACER_IMPORTS) == []
    # an allowlisted name the module now uses leaves the allowlist
    assert TRACER_IMPORTS <= found
