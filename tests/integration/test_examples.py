"""Every shipped example runs to completion against the current API."""

import os
import subprocess
import sys

import pytest

from repro.service.client import subprocess_env

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")

#: script -> one line its output must contain.
KEY_LINES = {
    "alias_report.py": "rbaa breakdown: 5 by the global test, 4 by the local test",
    "loop_disambiguation.py":
        "rbaa verdict: no-alias=True (criterion: local-disjoint-ranges)",
    "message_serialization.py":
        "rbaa : no-alias=True (criterion: local-disjoint-ranges)",
    "query_server.py": "socket answer == in-process answer: True",
    "quickstart.py": "LR(body[i]   ) = ",
}


def test_every_example_has_a_key_line():
    shipped = sorted(name for name in os.listdir(EXAMPLES) if name.endswith(".py"))
    assert shipped == sorted(KEY_LINES)


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    assert KEY_LINES[script] in result.stdout
