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

A mutant that ``EQUIVALENT`` names changes no result that a test could
see; when it survives, a run prints it as ``equivalent`` and leaves it out of
the kill rate. ``NAMED`` lists mutants that a test must kill, one line each:
the test target that kills it, its name and a one-line reason; ``--named``
runs each against its own target, which CI does. ``JOBS`` mutants run at
once.

    python tools/mutate.py --list
    python tools/mutate.py --sample 60 --seed 1 tests
    python tools/mutate.py --mutant 'src/kanmark/cli.py::_fits::>=::>::0' tests/test_cli.py
    python tools/mutate.py --named

Standard library only. Exits 1 if a mutant that EQUIVALENT does not name
survives, 2 on a usage error, among them a name in EQUIVALENT or NAMED that
``--list`` lacks.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = "src/kanmark/*.py"
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".perfbench-work", ".benchmarks", "runs", "build",
                                     "*.egg-info")
TIMEOUT = 600.0  # seconds per test run
# Mutants run at once, each in its own copy: pytest start-up, not the tests,
# takes most of each run.
JOBS = 2
NAMED = ROOT / "tools" / "named_mutants.txt"
TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.And: "and", ast.Or: "or"}
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
         ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}

# Mutants that change no result a test could see, each with the reason:
# true equivalents, tolerances and size limits no input of a test reaches,
# and public defaults that every caller in src/ overrides.
_DEFAULT = "a public default that every caller in src/ overrides"
EQUIVALENT = {
    "src/kanmark/attacks.py::<module>::0.001::0.002::0": "SMALL_LR: " + _DEFAULT,
    "src/kanmark/attacks.py::finetune::8::9::0": _DEFAULT,
    "src/kanmark/attacks.py::finetune::0::1::0": _DEFAULT,
    "src/kanmark/attacks.py::prune_sweep::1e-09::2e-09::0":
        "tolerance for the rounding of 1 / step, about 1e-16 for any step in [0.001, 1]",
    "src/kanmark/cli.py::check_config::>::>=::0":
        "tolerance edge: only fractions summing to exactly 1 +- 1e-9 change sides",
    "src/kanmark/data.py::gen_feynman::0::1::0": _DEFAULT,
    "src/kanmark/data.py::gen_feynman::1::2::1":
        "the loop raises at redraw MAX_REDRAWS, so a longer range is never reached",
    "src/kanmark/data.py::gen_feynman::>=::>::0":
        "uniform(-1, 1) draws -1.0 with probability 2**-53 per input",
    "src/kanmark/data.py::gen_feynman::1.0::2.0::2":
        "uniform(-1, 1) draws -1.0 with probability 2**-53 per input",
    "src/kanmark/data.py::split_dataset::0::1::0": _DEFAULT,
    "src/kanmark/data.py::split_indices::0::1::0": _DEFAULT,
    "src/kanmark/data.py::split_indices::>::>=::0":
        "tolerance edge: only fractions summing to exactly 1 +- 1e-9 change sides",
    "src/kanmark/kan.py::KanLayer.apply::1::2::0": "numpy infers any negative reshape size",
    "src/kanmark/kan.py::KanModel.create::0::1::0": _DEFAULT,
    "src/kanmark/kan.py::edge_importances::1::2::2": "a larger scratch buffer",
    "src/kanmark/mlp.py::MlpModel.create::0::1::0": _DEFAULT,
    "src/kanmark/mlp.py::MlpModel.backward::>::>=::1":
        "at layer 0 it also forms the input's gradient, which nothing reads",
    "src/kanmark/numeric.py::<module>::64::65::0": "ROW_CHUNK: chunking is byte-identical",
    "src/kanmark/numeric.py::OptimizerState::0.001::0.002::0": _DEFAULT,
    "src/kanmark/numeric.py::OptimizerState::False::True::0":
        "the repr of an optimizer state: nothing prints one",
    "src/kanmark/numeric.py::OptimizerState::False::True::1":
        "the repr of an optimizer state: nothing prints one",
    "src/kanmark/numeric.py::OptimizerState::False::True::2":
        "scratch as an __init__ argument: nothing passes it",
    "src/kanmark/numeric.py::OptimizerState::False::True::3":
        "the repr of an optimizer state: nothing prints one",
    "src/kanmark/numeric.py::OptimizerState::False::True::4":
        "scratch in equality: nothing compares optimizer states",
    "src/kanmark/numeric.py::adam::0.001::0.002::0": _DEFAULT,
    "src/kanmark/numeric.py::check_floats::8::9::0":
        "size limit: only counts between 2**63 / 9 and 2**63 / 8 floats tell",
    "src/kanmark/numeric.py::check_floats::>::>=::0":
        "count * 8 is even and the intp maximum odd, so they are never equal",
    "src/kanmark/numeric.py::class_labels::0::1::1":
        "min(labels, initial=1) < 0 exactly when some label is < 0",
    "src/kanmark/numeric.py::keep_masks::1e-09::2e-09::0":
        "tolerance for the rounding of ratio * size, far below 1e-9 at any size",
    "src/kanmark/numeric.py::sigmoid::>=::>::0": "both branches give 0.5 at 0",
    "src/kanmark/training.py::<module>::1000000.0::2000000.0::0":
        "DIVERGENCE_FACTOR: the divergence tests read the constant",
    "src/kanmark/training.py::<module>::256::257::0":
        "PREPARED_BYTES_MAX: preparing once or per batch is byte-identical",
    "src/kanmark/training.py::<module>::2::3::0":
        "PREPARED_BYTES_MAX: preparing once or per batch is byte-identical",
    "src/kanmark/training.py::<module>::20::21::0":
        "PREPARED_BYTES_MAX: preparing once or per batch is byte-identical",
    "src/kanmark/training.py::fit::0::1::0": _DEFAULT,
    "src/kanmark/watermark.py::gen_signal::*::/::1": "it divides by a +-1 sign",
    "src/kanmark/watermark.py::embed::0.001::0.002::0": _DEFAULT,
    "src/kanmark/watermark.py::embed::0::1::0": _DEFAULT,
    "src/kanmark/watermark.py::build_detector_dataset::10::11::0": _DEFAULT,
    "src/kanmark/watermark.py::build_detector_dataset::0::1::0": _DEFAULT,
    "src/kanmark/watermark.py::build_detector_dataset::0::1::7":
        "outs[0] and outs[1] have the same row count",
    "src/kanmark/watermark.py::build_detector_dataset::2::3::0":
        "size limit: only a dataset near 2**60 floats tells",
    "src/kanmark/watermark.py::build_detector_dataset::2::3::1":
        "size limit: only a dataset near 2**60 floats tells",
    "src/kanmark/watermark.py::build_detector_dataset::*::/::2":
        "size limit: only a dataset near 2**60 floats tells",
    "src/kanmark/watermark.py::build_detector_dataset::2::3::5":
        "the next line overwrites the extra slot",
    "src/kanmark/watermark.py::build_detector_dataset::1::2::6":
        "numpy infers any negative reshape size",
}


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


def named() -> list[tuple[str, str]]:
    """(test target, mutant name) of each line of NAMED, a file of lines
    ``TARGET NAME REASON`` (blank lines and ``#`` comments skipped); raises
    ValueError on a line without a reason."""
    found = []
    for number, line in enumerate(NAMED.read_text(encoding="utf-8").splitlines(), 1):
        if line.strip() and not line.startswith("#"):
            fields = line.split(maxsplit=2)
            if len(fields) < 3:
                raise ValueError(f"{NAMED.name} line {number}: want TARGET NAME REASON")
            found.append((fields[0], fields[1]))
    return found


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
    # Of the installed pytest plugins, only hypothesis's, which the suite uses:
    # each other one would add its start-up to every mutant's run.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
                               *tests], cwd=copy, env=env,
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
    pick.add_argument("--named", action="store_true",
                      help=f"run each mutant of {NAMED.name} against its own test target")
    parser.add_argument("--seed", type=int, default=0, help="seed of --sample")
    args = parser.parse_args(argv)
    every = mutants()
    try:
        listed = named()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    for table, names in (("EQUIVALENT", EQUIVALENT), (NAMED.name, [n for _, n in listed])):
        stale = sorted(set(names) - set(every))
        if stale:
            parser.error(f"{table} names no such mutant: {', '.join(stale)}")
    if args.list:
        print("\n".join(every))
        return 0
    if args.named:  # (mutant, its tests) each
        chosen = [(name, [target]) for target, name in listed]
    elif args.mutant:
        unknown = [name for name in args.mutant if name not in every]
        if unknown:
            parser.error(f"no such mutant: {', '.join(unknown)}")
        chosen = [(name, args.tests) for name in args.mutant]
    else:
        chosen = [(name, args.tests) for name in
                  random.Random(args.seed).sample(every, min(args.sample, len(every)))]
    unmutated = sorted({test for _, tests in chosen for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.SimpleQueue()  # the free copies: a mutant edits the one it takes
        for job in range(JOBS):
            copy = Path(tmp) / f"repo{job}"
            shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
            copies.put(copy)
        if run_tests(copy, unmutated) != "passed":
            print(f"unmutated tests do not pass: {' '.join(unmutated)}", file=sys.stderr)
            return 2

        def outcome_of(mutant: tuple[str, list[str]]) -> str:
            name, tests = mutant
            copy = copies.get()
            target = copy / name.split("::")[0]
            original = target.read_bytes()
            target.write_text(mutated(name), encoding="utf-8")
            try:
                return run_tests(copy, tests)
            finally:
                target.write_bytes(original)
                copies.put(copy)
        survivors, equivalent = 0, 0
        with ThreadPoolExecutor(JOBS) as pool:
            for (name, _), outcome in zip(chosen, pool.map(outcome_of, chosen)):
                if outcome == "passed":
                    outcome = "equivalent" if name in EQUIVALENT else "SURVIVED"
                survivors += outcome == "SURVIVED"
                equivalent += outcome == "equivalent"
                print(f"{outcome:10}  {name}", flush=True)
    judged = len(chosen) - equivalent
    print(f"{judged - survivors} of {judged} mutants killed "
          f"({100.0 * (judged - survivors) / max(judged, 1):.1f}%), {equivalent} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
