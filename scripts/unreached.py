#!/usr/bin/env python3
"""Print the functions of src/fieldosc that a demo run never calls.

Imports the package and runs `fieldosc run scenarios/*.cfg --out-dir
<tmp> --threads 2` in this process, every runner and every artifact,
under a profiler set for the main thread and for the worker threads the
pool starts.  Then prints one line per function of src/fieldosc that
was never called,

    function MODULE:LINE QUALNAME N

with N its line count (decorators included), and a last line

    total F functions L lines

A nested function is listed only when its enclosing function ran: else
its lines are the enclosing function's.  Lambdas are not listed.  The
run's own output goes to stderr; the exit status is the run's.

Usage: python scripts/unreached.py
"""

import ast
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fieldosc"


def functions(path: Path) -> list:
    """(qualname, first line, last line, enclosing function's first line
    or None) of every def in the file; a decorated function's first line
    is its first decorator's, as its code object's co_firstlineno is."""
    found = []

    def visit(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((name, first, child.end_lineno, enclosing))
                visit(child, name + ".", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def called_during(argv: list) -> tuple[int, set]:
    """Exit status of `fieldosc.cli.main(argv)` and the (file, first
    line) of every Python function called while the package was imported
    and `main` ran, in any thread."""
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        # imported under the profiler: calls made at import time count
        from fieldosc.cli import main

        with contextlib.redirect_stdout(sys.stderr):
            status = main(argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return status, {(os.path.realpath(f), line) for f, line in seen}


def main() -> int:
    if len(sys.argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    configs = [str(p) for p in sorted((ROOT / "scenarios").glob("*.cfg"))]
    with tempfile.TemporaryDirectory() as out:
        status, seen = called_during(["run", *configs, "--out-dir", out, "--threads", "2"])
    count = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        for name, first, last, enclosing in functions(path):
            reached = (real, first) in seen
            if reached or (enclosing is not None and (real, enclosing) not in seen):
                continue
            count += 1
            lines += last - first + 1
            print(f"function {path.name}:{first} {name} {last - first + 1}")
    print(f"total {count} functions {lines} lines")
    return status


if __name__ == "__main__":
    sys.exit(main())
