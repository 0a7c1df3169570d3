"""The determinism lint must catch each hazard class and pass the repo."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTER = REPO_ROOT / "tools" / "lint_determinism.py"


def run_linter(*paths):
    return subprocess.run(
        [sys.executable, str(LINTER), *map(str, paths)],
        capture_output=True, text=True, cwd=REPO_ROOT)


def lint_source(tmp_path, source):
    target = tmp_path / "sample.py"
    target.write_text(source, encoding="utf-8")
    return run_linter(target)


class TestHazardClasses:
    def test_builtin_hash_flagged(self, tmp_path):
        result = lint_source(tmp_path, "seed = hash('name') % 100\n")
        assert result.returncode == 1
        assert "hash()" in result.stdout

    def test_hash_inside_dunder_hash_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "class Token:\n"
            "    def __hash__(self):\n"
            "        return hash((self.kind, self.text))\n")
        assert result.returncode == 0, result.stdout

    def test_hash_inside_other_method_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "class Token:\n"
            "    def seed(self):\n"
            "        return hash((self.kind, self.text))\n")
        assert result.returncode == 1
        assert "hash()" in result.stdout

    def test_ambient_random_flagged(self, tmp_path):
        result = lint_source(
            tmp_path, "import random\nvalue = random.randrange(5)\n")
        assert result.returncode == 1
        assert "random.randrange" in result.stdout

    def test_explicit_random_instance_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import random\nrng = random.Random(7)\nvalue = rng.randrange(5)\n")
        assert result.returncode == 0

    def test_set_iteration_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def f(items):\n"
            "    names = set(items)\n"
            "    for name in names:\n"
            "        print(name)\n")
        assert result.returncode == 1
        assert "set-typed" in result.stdout

    def test_set_intersection_with_dict_view_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def f(values, events):\n"
            "    wanted = set(values)\n"
            "    for value in wanted & events.keys():\n"
            "        print(value)\n")
        assert result.returncode == 1

    def test_sorted_set_iteration_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def f(items):\n"
            "    names = set(items)\n"
            "    for name in sorted(names):\n"
            "        print(name)\n"
            "    total = sum(1 for name in sorted(names))\n")
        assert result.returncode == 0

    def test_set_comprehension_iteration_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def f(items):\n"
            "    out = [x for x in {i.name for i in items}]\n")
        assert result.returncode == 1

    def test_membership_test_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def f(items, key):\n"
            "    names = set(items)\n"
            "    return key in names\n")
        assert result.returncode == 0


class TestRepositoryIsClean:
    def test_benchgen_and_evaluation_pass(self):
        result = run_linter()
        assert result.returncode == 0, result.stdout
        assert "0 determinism finding(s)" in result.stdout
