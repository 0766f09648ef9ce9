"""Reachability guard: every function defined under ``src/matlift`` is
called by some CLI command, or is on a short allow-list with its reason.

The commands run in this process under ``sys.setprofile``: the 14 golden
commands, ``krt ingleton 4 3`` (which reaches ``ingleton_inequality``), an
invalid ``check``, ``lift general --force``, every ``--out`` path, a
``.grp`` file and the builtin groups the goldens do not load.  A function
no command reaches either states a claim of the paper or belongs in
``tests/zoo.py`` as reference code.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import matlift
from matlift.cli import main

from test_cli import ALL_GOLDEN_CASES, TESTDATA
from zoo import S3_GRP

SRC = Path(matlift.__file__).resolve().parent

ALLOWED = {
    # claims of the paper that no command states
    "krt.antichain_check": "the K(r,t) of the r <= 2t-3 regime form a minor antichain",
    "gain.zaslavsky_lift": "Zaslavsky's lift matroid, which the gain-graph lifts generalise",
    "gain.graphic_matroid": "the base of zaslavsky_lift",
    "gain.balanced_class_indices": "the linear class of zaslavsky_lift",
    # base methods that every oracle the CLI builds overrides
    "core.RankMatroid.rank": "abstract; each subclass defines its oracle",
    "core.RankMatroid.parallel_classes": "the singleton default for oracles without their own",
    # public constructors, predicates and validators
    "core.uniform_matroid": "public constructor",
    "core.is_sparse_paving": "public predicate; the CLI's K(r,t) are SparsePaving already",
    "core.validate_circuits": "public validator; check validates through Matroid(...)",
    "core.validate_hyperplanes": "public validator; gain lift3 validates through Matroid(...)",
    "lifts.is_linear_class": "public predicate; lift elementary reads it from elementary_lift",
    "lifts.is_modular_pair": "public predicate",
    "lifts.is_perfect": "public predicate",
}

LIFT_FAILING_STAR_PRIME = "base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n"


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line) of every function under src/matlift, the line of
    its first decorator when it has one, with its dotted name."""
    out = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                out[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return out


def _commands(tmp: Path) -> list[list[str]]:
    (tmp / "bad.ckt").write_text("matroid 3 circuits\n1 2\n1 3\n")
    (tmp / "bad.lift").write_text(LIFT_FAILING_STAR_PRIME)
    (tmp / "s3.grp").write_text(S3_GRP)
    d = TESTDATA
    cmds = [[a.format(d=d) for a in argv] for _, argv, _ in ALL_GOLDEN_CASES]
    return cmds + [
        ["krt", "ingleton", "4", "3"],
        ["check", str(tmp / "bad.ckt")],
        ["lift", "general", str(tmp / "bad.lift"), "--force"],
        ["lift", "general", f"{d}/u13.lift", "--out", str(tmp / "general.ckt")],
        ["lift", "elementary", f"{d}/u24.ckt", "--class", "1", "--out", str(tmp / "elementary.ckt")],
        ["krt", "build", "4", "3", "--out", str(tmp / "k43.ckt")],
        ["gain", "lift3", "builtin:z2^2", "--out", str(tmp / "z2_2.ckt")],
        ["gain", "partitions", str(tmp / "s3.grp")],
        ["gain", "partitions", "builtin:q8"],
    ]


def test_every_src_function_is_reached_or_allowed(tmp_path):
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in _commands(tmp_path):
            sys.setprofile(profile)
            try:
                codes.append(main(["--json", str(tmp_path / "report.json"), *argv]))
            finally:
                sys.setprofile(None)
    assert set(codes) <= {0, 1}, codes  # every command ran to a verdict
    reached = {(os.path.realpath(f), line) for f, line in called}
    names = _defined()
    missed = sorted(
        name for key, name in names.items()
        if key not in reached and name not in ALLOWED and not name.rsplit(".", 1)[-1].startswith("__")
    )
    assert missed == [], "reached by no command and not allowed: " + ", ".join(missed)
    stale = sorted(set(ALLOWED) - {name for key, name in names.items() if key not in reached})
    assert stale == [], "allowed but undefined or reached: " + ", ".join(stale)
