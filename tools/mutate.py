#!/usr/bin/env python3
"""One-token mutation testing of kanmark's source.

A mutant changes one token of ``src/kanmark/*.py`` outside docstrings: a
comparison, arithmetic or boolean operator, or a number, boolean or string
literal. The change is made in the file's syntax tree, which ``ast.unparse``
writes (same code, new layout, no comments) into a temporary copy of the
repository, never into the checkout; ``pytest -x -q`` then runs there on the
given test paths. A failing test run, or one that exceeds ``TIMEOUT``
seconds, kills the mutant. An unmutated run of the same tests must pass first.

A mutant is named ``PATH::SCOPE::OLD::NEW::K``: the K-th (from 0, in source
order) change of OLD to NEW in the function or class SCOPE (``<module>``
outside any), where OLD is ``str`` for a string literal. Names survive edits
to other scopes.

    python tools/mutate.py --list
    python tools/mutate.py --sample 60 --seed 1 tests
    python tools/mutate.py --mutant 'src/kanmark/cli.py::_fits::>=::>::0' tests/test_cli.py

Standard library only. Exits 1 if any mutant survives, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = "src/kanmark/*.py"
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".perfbench-work", ".benchmarks", "runs", "build",
                                     "*.egg-info")
TIMEOUT = 600.0  # seconds per test run
TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.And: "and", ast.Or: "or"}
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
         ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}


def _literal(value) -> tuple[str, str, object] | None:
    """(old name, new name, new value) of a literal's mutation, or None."""
    if isinstance(value, bool):
        return repr(value), repr(not value), not value
    if isinstance(value, (int, float)):
        new = value + 1 if isinstance(value, int) else 2 * value if value else 1.0
        return repr(value), repr(new), new
    if isinstance(value, str):
        return "str", '""' if value else '"x"', "" if value else "x"
    return None


def _split(node: ast.BoolOp, i: int, op) -> None:
    """Makes the i-th operator of ``node`` ``op``, as Python parses the edited
    source: ``and`` binds tighter than ``or``."""
    if isinstance(op, ast.And):
        node.values[i:i + 2] = [ast.BoolOp(op, node.values[i:i + 2])]
    else:
        node.op, node.values = op, [ast.BoolOp(ast.And(), node.values[:i + 1]),
                                    ast.BoolOp(ast.And(), node.values[i + 1:])]


class _Finder(ast.NodeVisitor):
    """Collects (scope, old, new, position, edit) of every candidate change;
    ``edit()`` makes it in the tree."""

    def __init__(self):
        self.found, self.scope = [], []

    def _add(self, old: str, new: str, position: tuple[int, int], edit) -> None:
        self.found.append((".".join(self.scope) or "<module>", old, new, position, edit))

    def _swap(self, op, after, set_op, suffix: str = "") -> None:
        """The operator ``op``, which follows node ``after`` in the source;
        ``set_op(new op)`` puts the new operator in its place."""
        new = SWAPS.get(type(op))
        if new:
            self._add(TOKENS[type(op)] + suffix, TOKENS[new] + suffix,
                      (after.end_lineno, after.end_col_offset),
                      lambda: set_op(new()))

    def _body(self, node) -> None:
        """Visits the children of ``node`` but its docstring."""
        first = node.body[0] if node.body else None
        doc = (first if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
               and isinstance(first.value.value, str) else None)
        for child in ast.iter_child_nodes(node):
            if child is not doc:
                self.visit(child)

    def visit_Module(self, node):
        self._body(node)

    def _scoped(self, node):
        self.scope.append(node.name)
        self._body(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_JoinedStr(self, node):
        pass  # f-string pieces are not tokens of their own

    def visit_Constant(self, node):
        change = _literal(node.value)
        if change:
            old, new, value = change
            self._add(old, new, (node.lineno, node.col_offset),
                      functools.partial(setattr, node, "value", value))

    def visit_Compare(self, node):
        for i, (op, left) in enumerate(zip(node.ops, [node.left, *node.comparators])):
            self._swap(op, left, functools.partial(node.ops.__setitem__, i))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        self._swap(node.op, node.left, functools.partial(setattr, node, "op"))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._swap(node.op, node.target, functools.partial(setattr, node, "op"), "=")
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        for i, left in enumerate(node.values[:-1]):
            self._swap(node.op, left, functools.partial(_split, node, i))
        self.generic_visit(node)


def _parse(path: str) -> tuple[ast.Module, dict]:
    """The syntax tree of the source at ``path`` and, in source order, the
    name of each of its mutants mapped to the edit that makes it in that tree."""
    tree = ast.parse((ROOT / path).read_bytes())
    finder = _Finder()
    finder.visit(tree)
    edits, seen = {}, {}
    for scope, old, new, _, edit in sorted(finder.found, key=lambda f: f[3]):
        k = seen[scope, old, new] = seen.get((scope, old, new), -1) + 1
        edits[f"{path}::{scope}::{old}::{new}::{k}"] = edit
    return tree, edits


def mutants() -> list[str]:
    """The name of every mutant, in file and source order."""
    return [name for file in sorted(ROOT.glob(SOURCES))
            for name in _parse(file.relative_to(ROOT).as_posix())[1]]


def mutated(name: str) -> str:
    """The source of the file that the mutant ``name`` changes, changed."""
    tree, edits = _parse(name.split("::")[0])
    edits[name]()
    return ast.unparse(tree)


def run_tests(copy: Path, tests) -> str:
    """'passed', 'failed' or 'timeout' of ``pytest -x -q`` in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1, 2):  # 2: a mutant that breaks collection
        print(f"pytest exited {proc.returncode} on {' '.join(tests)}", file=sys.stderr)
        sys.exit(2)
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="test paths, relative to the repository root")
    pick = parser.add_mutually_exclusive_group(required=True)
    pick.add_argument("--list", action="store_true", help="print every mutant's name")
    pick.add_argument("--sample", type=int, help="run N mutants drawn at random")
    pick.add_argument("--mutant", action="append", help="run the named mutant (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="seed of --sample")
    args = parser.parse_args(argv)
    every = mutants()
    if args.list:
        print("\n".join(every))
        return 0
    if args.mutant:
        unknown = [name for name in args.mutant if name not in every]
        if unknown:
            parser.error(f"no such mutant: {', '.join(unknown)}")
        chosen = args.mutant
    else:
        chosen = random.Random(args.seed).sample(every, min(args.sample, len(every)))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if run_tests(copy, args.tests) != "passed":
            print(f"unmutated tests do not pass: {' '.join(args.tests)}", file=sys.stderr)
            return 2
        survivors = 0
        for name in chosen:
            target = copy / name.split("::")[0]
            original = target.read_bytes()
            target.write_text(mutated(name), encoding="utf-8")
            try:
                outcome = run_tests(copy, args.tests)
            finally:
                target.write_bytes(original)
            survivors += outcome == "passed"
            print(f"{'SURVIVED' if outcome == 'passed' else outcome:8}  {name}", flush=True)
    killed = len(chosen) - survivors
    print(f"{killed} of {len(chosen)} mutants killed "
          f"({100.0 * killed / max(len(chosen), 1):.1f}%)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
