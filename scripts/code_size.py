#!/usr/bin/env python3
"""Print the size of a package directory as two numbers:

    lines N    -- the line count of DIR/*.py, as `wc -l` sums it
    options N  -- defaulted parameters (lambdas included) plus defaulted
                  class fields, counted on the syntax tree

Usage: python scripts/code_size.py src/fieldosc
"""

import ast
import sys
from pathlib import Path


def count_options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                for stmt in node.body
            )
    return count


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = sorted(Path(argv[1]).glob("*.py"))
    texts = [f.read_bytes() for f in files]
    lines = sum(t.count(b"\n") for t in texts)
    options = sum(count_options(ast.parse(t)) for t in texts)
    print(f"lines {lines}")
    print(f"options {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
