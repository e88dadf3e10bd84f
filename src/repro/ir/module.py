"""Modules: the whole-program IR unit (globals + functions).

WARio's front end links every translation unit into one module before any
transformation runs (the gllvm whole-program step in the paper, §4.6); our
:meth:`Module.link` plays that role.
"""

from __future__ import annotations

from typing import Dict, List

from .function import Function
from .types import FunctionType, Type
from .values import GlobalVariable


class Module:
    """A whole program: named globals and named functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}

    # -- construction --------------------------------------------------------
    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer=None,
        is_constant: bool = False,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global @{name}")
        gv = GlobalVariable(name, value_type, initializer, is_constant)
        self.globals[name] = gv
        return gv

    def add_function(self, name: str, function_type: FunctionType, param_names=None) -> Function:
        if name in self.functions:
            raise ValueError(f"duplicate function @{name}")
        fn = Function(name, function_type, param_names)
        fn.parent = self
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def get_global(self, name: str) -> GlobalVariable:
        return self.globals[name]

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    # -- linking ---------------------------------------------------------------
    def link(self, other: "Module") -> "Module":
        """Merge ``other`` into this module (whole-program IR creation).

        Globals and functions must not collide, except that a declaration
        may be satisfied by a definition from the other side.
        """
        for name, gv in other.globals.items():
            if name in self.globals:
                raise ValueError(f"duplicate global @{name} while linking")
            self.globals[name] = gv
        for name, fn in other.functions.items():
            existing = self.functions.get(name)
            if existing is None:
                self.functions[name] = fn
                fn.parent = self
            elif existing.is_declaration and not fn.is_declaration:
                self.functions[name] = fn
                fn.parent = self
            elif not existing.is_declaration and fn.is_declaration:
                pass
            else:
                raise ValueError(f"duplicate function @{name} while linking")
        return self

    def __repr__(self):
        return (
            f"<Module {self.name}: {len(self.globals)} globals, "
            f"{len(self.functions)} functions>"
        )
