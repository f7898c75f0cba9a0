"""List the functions of ``src/repro`` that the tier-1 suite never calls.

Stdlib only: runs ``pytest tests/`` in this process under
``sys.setprofile`` / ``threading.setprofile``, records the code object of
every Python-level call, and matches the records against every ``def`` in
``src/repro``.  Prints each never-called function with its line count,
then the totals.  Line totals count a never-called function nested in
another never-called function once, with its parent.

Functions that run only in subprocesses the tests start (``python -m
repro ...``) are reported as never called.

Run from the repository root::

    PYTHONPATH=src python tools/deadcode.py [pytest args, default: tests]

Exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from typing import List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


class Def:
    """One ``def`` in the package, with the lines its code object may
    report as ``co_firstlineno`` (first decorator through ``def``)."""

    def __init__(self, path: str, node: ast.AST, parent: Optional["Def"]):
        self.path = path
        self.name = node.name
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.def_line = node.lineno
        self.last = node.end_lineno
        self.parent = parent


def package_defs() -> List[Def]:
    """Every function and method defined in ``src/repro``."""
    defs: List[Def] = []
    for directory, _dirs, files in os.walk(PACKAGE):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                _collect(tree, path, None, defs)
    return defs


def _collect(node: ast.AST, path: str, parent: Optional[Def], defs: List[Def]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            entry = Def(path, child, parent)
            defs.append(entry)
            _collect(child, path, entry, defs)
        else:
            _collect(child, path, parent, defs)


def record_calls(argv: List[str]) -> Tuple[int, Set[Tuple[str, int, str]]]:
    """Run pytest with ``argv``; return its exit code and the
    ``(file, first line, name)`` of every code object entered."""
    codes: Set[object] = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        import pytest

        status = int(pytest.main(argv))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {
        (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in codes
    }
    return status, called


def main(extra: List[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    status, called = record_calls(["-q", "-p", "no:cacheprovider", *(extra or ["tests"])])
    defs = package_defs()
    dead = [
        entry
        for entry in defs
        if not any(
            (entry.path, line, entry.name) in called
            for line in range(entry.first, entry.def_line + 1)
        )
    ]
    dead_set = set(dead)
    lines = 0
    for entry in dead:
        size = entry.last - entry.first + 1
        where = f"{os.path.relpath(entry.path, ROOT)}:{entry.first}"
        print(f"{where}: {entry.name} ({size} lines)")
        if entry.parent not in dead_set:
            lines += size
    print(
        f"deadcode: {len(dead)} of {len(defs)} functions in src/repro never"
        f" called by tier-1, {lines} lines"
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
