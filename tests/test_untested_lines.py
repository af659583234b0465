"""tools/untested_lines.py: the statements of a package that a pytest run
never executes, run on a fixture package in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"

# the test below calls sign(2) and Box(); sign's negative branch, the
# unused function and the else of its module-level if never run
MODULE = '''"""Module docstring."""

import math

if math.pi > 3:
    LIMIT = 3
else:
    LIMIT = 4


def _cached(fn):
    return fn


@_cached
def sign(x):
    """Docstring, not a statement that runs."""
    if x < 0:
        return -1
    try:
        return (
            1 if x else 0)
    finally:
        pass


def unused(
        x):
    return x


class Box:
    size: int = 1
'''

TEST = '''from fixpkg.mod import Box, sign


def test_sign():
    assert sign(2) == 1
    assert Box().size == 1
'''


def run_tool(tmp_path, *args, src=None):
    """The tool's run on the fixture, tracing src (default: the fixture package)."""
    pkg = tmp_path / "fixpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    (tmp_path / "test_fix.py").write_text(TEST)
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    return subprocess.run(
        [sys.executable, str(TOOL), "--src", str(src or pkg), str(tmp_path / "test_fix.py"),
         "-q", "-p", "no:cacheprovider", "-W", "error", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_reports_each_statement_that_never_ran(tmp_path):
    done = run_tool(tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    report = [line for line in done.stdout.splitlines() if line.startswith("mod.py:")]
    assert report == ["mod.py:8 LIMIT = 4", "mod.py:19 return -1", "mod.py:29 return x"]


def test_exit_code_is_pytests(tmp_path):
    assert run_tool(tmp_path, "-k", "no_such_test").returncode == 5  # no test ran


def test_a_package_the_tests_never_import_exits_2(tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "copy.py").write_text(MODULE)
    done = run_tool(tmp_path, src=other)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        f"no statement of {other} ran: the tests imported the package from elsewhere")
