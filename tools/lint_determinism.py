#!/usr/bin/env python3
"""AST lint: hash-order hazards in the result-producing generator code.

Benchmark generation and evaluation must be bit-identical across
interpreter processes and ``PYTHONHASHSEED`` values — that is the
determinism gate CI diffs.  This lint rejects the three bug classes that
have historically broken it:

* **builtin ``hash()``** — the string hash is salted per process; seeds
  must flow from :func:`repro.benchgen.generator.stable_seed` instead.
  A ``hash()`` call inside a method named ``__hash__`` is allowed: that
  method feeds dict and set lookups, never a seed or an output order;
* **iteration over set-typed expressions** — set iteration order varies
  with the hash seed; iterate a sorted copy (or an insertion-ordered
  dict) instead.  Detected with light local inference: set literals and
  comprehensions, ``set(...)``/``frozenset(...)`` calls, names assigned
  from them, and set-algebra ``BinOp``s over them or over dict views;
* **ambient ``random`` module state** — ``random.<fn>()`` draws from the
  process-global generator; thread an explicit ``random.Random`` seeded
  via ``stable_seed`` instead (``random.Random(...)`` itself is allowed).

Usage::

    python tools/lint_determinism.py [paths...]

Defaults to every package of ``src/repro`` but ``symbolic``, whose
findings (the ``hash()`` calls of the symbolic expressions' interning)
were reviewed as harmless: those hashes key intern tables, never an
output order.  Exits 1 when any finding is reported; CI runs it in the
lint job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Set

DEFAULT_PATHS = ["src/repro/aliases", "src/repro/analysis",
                 "src/repro/benchgen", "src/repro/clients", "src/repro/core",
                 "src/repro/engine", "src/repro/evaluation",
                 "src/repro/frontend", "src/repro/interp", "src/repro/ir",
                 "src/repro/rangeanalysis", "src/repro/service",
                 "src/repro/transforms"]

_SET_BUILTINS = {"set", "frozenset"}
_SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
_DICT_VIEW_ATTRS = {"keys", "items"}


class Finding:
    def __init__(self, path: Path, node: ast.AST, message: str):
        self.path = path
        self.line = getattr(node, "lineno", 0)
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class _ScopeChecker(ast.NodeVisitor):
    """One function (or module) scope: set-name inference + hazard checks."""

    def __init__(self, path: Path, findings: List[Finding],
                 allow_hash: bool = False):
        self.path = path
        self.findings = findings
        self.set_names: Set[str] = set()
        #: True in a ``__hash__`` method, whose ``hash()`` calls are allowed.
        self.allow_hash = allow_hash

    # -- light local type inference -------------------------------------------
    def _is_dict_view(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_VIEW_ATTRS)

    def _is_set_typed(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _SET_BUILTINS:
            return True
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            left_setlike = self._is_set_typed(node.left) \
                or self._is_dict_view(node.left)
            right_setlike = self._is_set_typed(node.right) \
                or self._is_dict_view(node.right)
            # Set algebra yields a set as soon as either side is set-like
            # (a dict view only participates when combined with one).
            if left_setlike and (self._is_set_typed(node.left)
                                 or right_setlike):
                return True
            if right_setlike and (self._is_set_typed(node.right)
                                  or left_setlike):
                return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_typed(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        self.generic_visit(node)

    # -- hazards ---------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash" \
                and not self.allow_hash:
            self.findings.append(Finding(
                self.path, node,
                "builtin hash() is PYTHONHASHSEED-salted; "
                "seed via stable_seed() instead"))
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "random" \
                and node.func.attr != "Random":
            self.findings.append(Finding(
                self.path, node,
                f"random.{node.func.attr}() draws from ambient module "
                f"state; thread an explicit random.Random instead"))
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.AST) -> None:
        # Unwrap order-preserving wrappers; sorted() breaks the hazard.
        while isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id in {"enumerate", "list", "tuple",
                                         "reversed"} and iterable.args:
            iterable = iterable.args[0]
        if self._is_set_typed(iterable):
            self.findings.append(Finding(
                self.path, iterable,
                "iterating a set-typed expression; order varies with "
                "PYTHONHASHSEED — iterate sorted(...) instead"))

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node: ast.AST) -> None:
        for comp in node.generators:
            self._check_iterable(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is fine (the result is unordered
        # anyway) only if it is then consumed safely — still check the
        # sources for consistency with other comprehensions.
        self._visit_comprehension_node(node)

    # -- scope boundaries ------------------------------------------------------
    def _visit_new_scope(self, node: ast.AST) -> None:
        checker = _ScopeChecker(self.path, self.findings,
                                allow_hash=node.name == "__hash__")
        for child in ast.iter_child_nodes(node):
            checker.visit(child)

    visit_FunctionDef = _visit_new_scope
    visit_AsyncFunctionDef = _visit_new_scope


def lint_file(path: Path) -> List[Finding]:
    findings: List[Finding] = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    _ScopeChecker(path, findings).visit(tree)
    return findings


def lint_paths(paths: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    for raw in paths:
        root = Path(raw)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(lint_file(file))
    return findings


def main(argv: List[str]) -> int:
    paths = argv or DEFAULT_PATHS
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    print(f"{len(findings)} determinism finding(s) in {', '.join(paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
