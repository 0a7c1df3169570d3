"""No module imports a name it never uses (pyflakes' F401, which CI's ruff
lint job enforces), checked with the standard library alone.

A name counts as used when it appears as an identifier, or inside a string
that parses as an expression: that covers quoted annotations and
``__all__`` re-exports.  ``# noqa: F401`` (or a bare ``# noqa``) on the
import line exempts it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")
NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[\w\s,]*\bF401\b")


def _names_in_strings(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and len(node.value) < 200:
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))


def unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name == "*" or NOQA.search(lines[alias.lineno - 1]) \
                        or NOQA.search(lines[node.lineno - 1]):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_names_in_strings(tree))
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [problem for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             for problem in unused_imports(path)]
    assert not found, "imported but unused:\n" + "\n".join(found)
