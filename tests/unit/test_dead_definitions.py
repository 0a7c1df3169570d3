"""Every function, method and class defined in ``src/`` is used somewhere,
checked with the standard library alone.

A definition counts as used when its name appears as an identifier or an
attribute anywhere in the scanned trees, or inside a string that parses as
an expression (``getattr`` names, quoted annotations).  Its own ``def`` or
``class`` line, an ``__all__`` entry and an import that re-exports it do not
count.  Dunder methods are called by the language and are exempt.  The check
is by name, so a definition shares the use of any other definition or
attribute with the same name; it finds the definitions nothing can reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFINED_IN = "src"
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _all_strings(tree):
    """The string constants of ``__all__`` assignments (not uses)."""
    skipped = set()
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            skipped.update(id(constant) for constant in ast.walk(node.value))
    return skipped


def _names_used(tree):
    skipped = _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skipped and len(node.value) < 200:
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id
                elif isinstance(name, ast.Attribute):
                    yield name.attr


def dead_definitions():
    defined = []
    used = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used.update(_names_used(tree))
            if top == DEFINED_IN:
                defined.extend((node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
                               for node in ast.walk(tree) if isinstance(node, DEFINITIONS))
    return sorted(f"{where}: {name}" for name, where in defined
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


def test_no_dead_definitions():
    found = dead_definitions()
    assert not found, "defined but never used:\n" + "\n".join(found)
