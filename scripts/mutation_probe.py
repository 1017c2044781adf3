#!/usr/bin/env python3
"""Mutation probe: does a test file notice when one operator in a function changes?

Usage:
    python scripts/mutation_probe.py MODULE FUNC [FUNC ...] --tests TEST_FILE [TEST_FILE ...]
        [--allow SITE ...]

MODULE is a source path such as src/cislim/homology.py, and each FUNC a
top-level function or a `Class.method` in it.  Every site in those functions
gets exactly one mutant, one operator swapped:

    ^ -> |   | -> ^   & -> |   + -> -   - -> +   << -> >>   >> -> <<
    == <-> !=   < -> <=   <= -> <   > -> >=   >= -> >   in <-> not in
    is <-> is not   and <-> or   an int constant n -> n + 1

A site is named FUNC:LINE:COL:OLD->NEW, with LINE counted from the `def`
(quote it in a shell, for the `>`).  The probe copies src/, tests/ and
pyproject.toml to a new temporary directory (under $TMPDIR when set,
removed at the end), checks that the test files pass on the unmutated
copy, then writes each mutant into the copy and runs `pytest -x` on the
test files there.  A mutant is killed when the run fails or outlasts
five times the clean run (at least 60 s), since a swap can loop forever.
It prints every mutant's fate and exits 1 when a mutant survives whose
site is not passed as --allow, 2 when the probe cannot run, else 0.
Only the standard library is used; the repository itself is never written.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.BitXor: ast.BitOr,
    ast.BitOr: ast.BitXor,
    ast.BitAnd: ast.BitOr,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.And: ast.Or,
    ast.Or: ast.And,
}


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    scope: list[ast.stmt] = tree.body
    *owners, last = name.split(".")
    for owner in owners:
        cls = [n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner]
        if not cls:
            raise SystemExit(f"mutation_probe: no class {owner} for {name}")
        scope = cls[0].body
    funcs = [n for n in scope if isinstance(n, ast.FunctionDef) and n.name == last]
    if not funcs:
        raise SystemExit(f"mutation_probe: no function {name}")
    return funcs[0]


def sites(func: ast.FunctionDef, name: str):
    """(site name, apply) for every mutable operator in func, in walk order;
    apply() swaps that one operator in place."""
    out = []

    def site(node, old, new):
        label = f"{name}:{node.lineno - func.lineno}:{node.col_offset}:{old}->{new}"
        taken = sum(1 for known, _ in out if known.split("#")[0] == label)
        return f"{label}#{taken + 1}" if taken else label  # nested a | b | c start alike

    def swap(holder, attr, index=None):
        def apply():
            ops = getattr(holder, attr)
            if index is None:
                setattr(holder, attr, SWAPS[type(ops)]())
            else:
                ops[index] = SWAPS[type(ops[index])]()
        return apply

    def bump(node):
        def apply():
            node.value += 1
        return apply

    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            old = type(node.op)
            out.append((site(node, old.__name__, SWAPS[old].__name__), swap(node, "op")))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    old = type(op).__name__ + (str(i) if len(node.ops) > 1 else "")
                    out.append((site(node, old, SWAPS[type(op)].__name__), swap(node, "ops", i)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((site(node, node.value, node.value + 1), bump(node)))
    return out


def mutants(source: str, names: list[str]):
    """(site name, mutated source) for every site of every named function."""
    count = [len(sites(find_function(ast.parse(source), n), n)) for n in names]
    for name, n in zip(names, count):
        for k in range(n):
            tree = ast.parse(source)
            label, apply = sites(find_function(tree, name), name)[k]
            apply()
            yield label, ast.unparse(tree)


def run_tests(work: Path, test_files: list[str], timeout: float) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for one pytest -x run in the copy, and its seconds."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no examples carried over
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_files]
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        res = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if res.returncode == 0 else "fail"), time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="source file, e.g. src/cislim/limit.py")
    ap.add_argument("functions", nargs="+", help="function or Class.method names")
    ap.add_argument("--tests", required=True, nargs="+",
                    help="the test files to run on each mutant")
    ap.add_argument("--allow", action="append", default=[], metavar="SITE",
                    help="a site whose mutant may survive (argued equivalent)")
    args = ap.parse_args(argv)

    module = Path(args.module).resolve()
    rel = module.relative_to(ROOT)
    source = module.read_text()
    all_mutants = list(mutants(source, args.functions))

    work = Path(tempfile.mkdtemp(prefix="mutation-probe-")).resolve()
    if ROOT in work.parents:
        shutil.rmtree(work)
        raise SystemExit("mutation_probe: the scratch copy must lie outside the repository")
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    target = work / rel
    test_files = [str(Path(t).resolve().relative_to(ROOT)) for t in args.tests]

    try:
        target.write_text(ast.unparse(ast.parse(source)))  # the clean run uses the same printer
        name = ".".join(rel.relative_to("src").with_suffix("").parts)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", f"import {name}; print({name}.__file__)"],
            cwd=work, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if Path(where).resolve() != target:
            print(f"mutation_probe: {name} imports from {where or '?'}, not the copy", flush=True)
            return 2
        status, seconds = run_tests(work, test_files, timeout=3600)
        if status != "pass":
            print(f"mutation_probe: {' '.join(test_files)} does not pass on the unmutated copy",
                  flush=True)
            return 2
        timeout = max(60.0, 5 * seconds)
        print(f"clean run: {seconds:.1f} s; {len(all_mutants)} mutants, "
              f"{timeout:.0f} s each at most", flush=True)
        survivors = []
        for label, text in all_mutants:
            target.write_text(text)
            status, seconds = run_tests(work, test_files, timeout)
            fate = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}[status]
            print(f"{fate:17} {label}  {seconds:.1f} s", flush=True)
            if status == "pass":
                survivors.append(label)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = [s for s in survivors if s not in args.allow]
    print(f"{len(all_mutants) - len(survivors)} of {len(all_mutants)} mutants killed; "
          f"{len(survivors)} survived, {len(unexpected)} of them not allowed")
    for s in unexpected:
        print(f"  survivor: {s}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
