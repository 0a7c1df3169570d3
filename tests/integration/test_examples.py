"""The shipped examples still run against the current client API."""

import os
import subprocess
import sys

from repro.service.client import subprocess_env

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")


def test_query_server_example_runs_and_transports_agree():
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, "query_server.py")],
        capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    assert "socket answer == in-process answer: True" in result.stdout
