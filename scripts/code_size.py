#!/usr/bin/env python3
"""Print the size of a package directory as four numbers:

    lines N    -- the line count of DIR/*.py, as `wc -l` sums it
    options N  -- defaulted parameters (lambdas included) plus defaulted
                  class fields, counted on the syntax tree
    flags N    -- command-line options: `add_argument` calls named "--..."
    keys N     -- scenario-file keys: the entries of `_COMMON_SCHEMA`
                  and of each mode's dict in `_SCHEMAS`

Flags and keys are the knobs a user can set.  Then one line per module,
`module NAME N` with N its line count, so two prints show where the
lines went.

Usage: python scripts/code_size.py src/fieldosc
"""

import ast
import sys
from pathlib import Path

SCHEMA_NAMES = ("_COMMON_SCHEMA", "_SCHEMAS")


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


def count_flags(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("--")
        for node in ast.walk(tree)
    )


def count_keys(tree: ast.AST) -> int:
    # a dict of dicts (mode -> schema) counts the inner entries
    count = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id in SCHEMA_NAMES for t in node.targets)
        ):
            count += sum(
                len(v.keys) if isinstance(v, ast.Dict) else 1 for v in node.value.values
            )
    return count


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = sorted(Path(argv[1]).glob("*.py"))
    texts = [f.read_bytes() for f in files]
    counts = [t.count(b"\n") for t in texts]
    lines = sum(counts)
    trees = [ast.parse(t) for t in texts]
    print(f"lines {lines}")
    print(f"options {sum(map(count_options, trees))}")
    print(f"flags {sum(map(count_flags, trees))}")
    print(f"keys {sum(map(count_keys, trees))}")
    for f, n in zip(files, counts):
        print(f"module {f.name} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
