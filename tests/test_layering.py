"""Module layering: the analyses sit below the compiler, and the region
certifiers share their engines through public names only.

Every module under ``src/repro`` is parsed with :mod:`ast`, its relative
imports resolved against its package.  Nothing under ``repro.analysis``
may import ``repro.core`` (the compiler consumes the analyses, not the
reverse), and no module may import an underscore-prefixed name from
``static_war``, ``idempotence``, ``redundancy`` or ``progress``: what one
certifier reuses of another is that module's public API.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: the modules whose private names no other module may import
SEALED = {
    f"repro.analysis.{name}"
    for name in ("static_war", "idempotence", "redundancy", "progress")
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
