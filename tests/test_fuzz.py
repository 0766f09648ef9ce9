"""Fuzzing of the text parsers and of ``cli.main`` on fuzzed input files.

Every parser either returns or raises a ``ValueError`` subclass, and the CLI
ends every fuzzed job in a documented exit code (0-3) without a traceback.
Inputs mix free token soup with near-valid files, so the fuzzing reaches past
the headers into the axiom checks and the lift conditions; ``rep witness``
gets well-formed matrices over good and bad field orders with fuzzed X
lists, and a job that exits 1 must name dependent columns.  The ``gain``
commands get Cayley tables of small groups, renamed, reordered and
sometimes with one entry changed, and a ``lift3`` that exits 0 reports
rank 4.  Each CLI job also
writes its ``--json`` report to a fuzzed path, some in a missing directory or
naming a directory: a report lands wherever its directory exists, and
otherwise the job exits 2.  Examples are derandomized and bounded to keep the
suite fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from matlift.cli import main
from matlift.core import Matroid, uniform_matroid
from matlift.groups import builtin_group
from matlift.io import ParseError, emit_matroid_text, parse_group_text, parse_lift_text, parse_matrix_text, parse_matroid_text

from zoo import S3_GRP, parse_matroid_text_per_element

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])
CLI_FUZZ = settings(FUZZ, max_examples=40)

_words = st.sampled_from(["matroid", "circuits", "group", "gf", "base", "overlay", "#", "a", "b", "e"])
_token = st.one_of(_words, st.integers(-3, 70).map(str), st.text("0123456789 -#abx\t", max_size=5))
_line = st.lists(_token, max_size=6).map(" ".join)
soup = st.lists(_line, max_size=10).map("\n".join)


@st.composite
def ckt_text(draw, max_n: int = 7) -> str:
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(st.integers(0, n + 1), max_size=n + 1), max_size=8))
    return "\n".join([f"matroid {n} circuits"] + [" ".join(map(str, r)) for r in rows]) + "\n"


@st.composite
def grp_text(draw) -> str:
    k = draw(st.integers(0, 4))
    names = [f"g{i}" for i in range(k)]
    pick = st.sampled_from(names + ["z"]) if k else st.just("z")
    rows = draw(st.lists(st.lists(pick, min_size=k, max_size=k + 1), min_size=k, max_size=k + 1))
    return "\n".join([f"group {k}", " ".join(names)] + [" ".join(r) for r in rows]) + "\n"


@st.composite
def gfm_text(draw) -> str:
    p = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 257]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    entries = st.lists(st.integers(-2, 9), min_size=cols, max_size=cols + 1)
    data = draw(st.lists(entries, min_size=rows, max_size=rows + 1))
    return "\n".join([f"gf {p} {rows} {cols}"] + [" ".join(map(str, r)) for r in data]) + "\n"


@st.composite
def lift_text(draw) -> str:
    base = draw(ckt_text(max_n=5))
    overlay = draw(ckt_text(max_n=6))
    return f"base\n{base}overlay\n{overlay}"


# valid bodies: U(1,3) and U(2,4) have 3 and 6 circuits, U(2,3) has one
_uniform_ckt = st.sampled_from([emit_matroid_text(uniform_matroid(r, n)) for r, n in [(1, 3), (2, 3), (2, 4), (1, 6)]])
_filler = st.sampled_from(["", "  ", "# note", "# base", "\t# overlay"])


@st.composite
def spaced_lift_text(draw) -> str:
    """Both sections in either order, either one possibly empty, with comment
    and blank lines between any two lines and trailing comments."""
    def body(max_n: int) -> str:
        if draw(st.integers(0, 7)) == 7:
            return ""
        return draw(st.one_of(ckt_text(max_n=max_n), _uniform_ckt))

    sections = [("base", body(5)), ("overlay", body(6))]
    if draw(st.booleans()):
        sections.reverse()
    out = []
    for name, body in sections:
        for line in [name, *body.splitlines()]:
            out.extend(draw(st.lists(_filler, max_size=2)))
            out.append(line + draw(st.sampled_from(["", "  # c"])))
    return "\n".join(out) + "\n"


def returns_or_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(soup, ckt_text()))
def test_parse_matroid_text(text):
    returns_or_value_error(parse_matroid_text, text)


# tokens int() reads but a plain decimal lookup does not: a leading zero
# or sign, an underscore, a non-ASCII digit
_odd_token = st.sampled_from(["01", "+2", "-0", "1_0", "\u0663", "007", "2.0", "0x1"])


@st.composite
def odd_ckt_text(draw) -> str:
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.integers(0, n + 1).map(str), _odd_token)
    rows = draw(st.lists(st.lists(cell, min_size=1, max_size=5), max_size=6))
    return "\n".join([f"matroid {n} circuits"] + [" ".join(r) for r in rows]) + "\n"


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@FUZZ
@given(st.one_of(soup, ckt_text(), odd_ckt_text()))
@example("matroid 10 circuits\n1_0 01 \u0663\n")
@example("matroid 4 circuits\n2 +2\n")
def test_parse_matroid_text_matches_per_element_walk(text):
    """The one-pass line reader against the per-element walk it replaced:
    the same matroid, or the same error and message."""
    assert _outcome(parse_matroid_text, text) == _outcome(parse_matroid_text_per_element, text)


@FUZZ
@given(st.one_of(soup, grp_text()))
def test_parse_group_text(text):
    returns_or_value_error(parse_group_text, text)


@FUZZ
@given(st.one_of(soup, gfm_text()))
def test_parse_matrix_text(text):
    returns_or_value_error(parse_matrix_text, text)


@FUZZ
@given(st.one_of(soup, lift_text()))
def test_parse_lift_text(text):
    returns_or_value_error(parse_lift_text, text)


def section_outcome(text: str, name: str):
    """The .ckt parse of the file with every line outside section ``name``
    blanked, which keeps line numbers; an empty section is named at its
    marker.  ``text`` holds each marker once and nothing before the first."""
    raws = text.splitlines()
    marks = [(k, raw.split("#", 1)[0].strip()) for k, raw in enumerate(raws, start=1)]
    marks = [(k, body) for k, body in marks if body in ("base", "overlay")]
    ends = [k for k, _ in marks[1:]] + [len(raws) + 1]
    marker, end = next((k, end) for (k, body), end in zip(marks, ends) if body == name)
    kept = "\n".join(raw if marker < k < end else "" for k, raw in enumerate(raws, start=1))
    got = _outcome(parse_matroid_text, kept)
    if got == (ParseError, "<string>:1: empty matroid file"):
        return ParseError, f"<string>:{marker}: empty matroid file"
    return got


@FUZZ
@given(spaced_lift_text())
@example("# spec\n\nbase\nmatroid 3 circuits\n1 2\n1 9\noverlay\nmatroid 2 circuits\n")
def test_parse_lift_text_section_errors_name_file_lines(text):
    """A section's error is the .ckt error of the file with the other lines
    blanked: the same type, message and file line."""
    got = _outcome(parse_lift_text, text)
    base = section_outcome(text, "base")
    if not isinstance(base, Matroid):
        assert got == base
        return
    overlay = section_outcome(text, "overlay")
    if not isinstance(overlay, Matroid):
        assert got == overlay
        return
    if overlay.n == len(base.circuits):
        assert (got.base, got.overlay) == (base, overlay)
    else:
        assert got[0] is ParseError and ": overlay ground set " in got[1]


# Report paths relative to the job's directory: plain names, names in a
# missing directory, and names of directories ("." and "", the directory
# itself).
json_name = st.one_of(
    st.text("abr.-_", min_size=1, max_size=6),
    st.sampled_from(["", ".", "..", "missing/r.json", "missing/deeper/r.json", "r.json/"]),
)


def run_cli(argv_of, text: str, report: str, check_report=None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        json_path = Path(tmp) / report
        writable = json_path.parent.is_dir() and not json_path.is_dir()
        for argv in argv_of(str(path)):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--json", str(json_path), *argv])
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue()
            if writable:
                body = json.loads(json_path.read_text())
                assert body["command"] == argv
                if check_report is not None:
                    check_report(code, body)
                json_path.unlink()
            else:
                assert code == 2 and "error: cannot write the report" in err.getvalue()


@CLI_FUZZ
@given(st.one_of(soup, ckt_text()), json_name)
def test_cli_on_fuzzed_ckt(text, report):
    run_cli(lambda f: [["check", f], ["rank", f, "1"], ["iso", f, f]], text, report)


@CLI_FUZZ
@given(st.one_of(soup, lift_text()), json_name)
def test_cli_on_fuzzed_lift(text, report):
    run_cli(lambda f: [["lift", "general", f, "--check-star"], ["lift", "general", f, "--force"]], text, report)


@st.composite
def witness_job(draw) -> tuple[str, str]:
    """A well-formed matrix of at most 4 x 7, over a prime field or over a
    composite or oversized order, and an --x list for it: repeats, columns
    out of range, no column at all, and more columns than rows (so
    dependent)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251, 4, 9, 257]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    data = draw(st.lists(st.lists(st.integers(-1, 8), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    text = "\n".join([f"gf {p} {rows} {cols}"] + [" ".join(map(str, r)) for r in data]) + "\n"
    x = list(draw(st.permutations(range(1, cols + 1))))[: draw(st.integers(0, rows + 1))]
    x += draw(st.lists(st.integers(0, cols + 1), max_size=1))
    return text, draw(st.sampled_from([",", " ", ", "])).join(map(str, x))


def exit_1_is_dependent_x(code: int, report: dict) -> None:
    if code == 1:
        assert report.get("error", "").startswith("check failed: columns"), report


@FUZZ
@given(witness_job(), json_name)
def test_cli_on_fuzzed_gfm(job, report):
    text, x = job
    run_cli(lambda f: [["rep", "witness", f, "--x", x]], text, report, exit_1_is_dependent_x)


@st.composite
def cayley_text(draw) -> str:
    """The Cayley table of a builtin group of order at most 6 with its
    elements renamed and reordered, sometimes with one entry changed."""
    g = builtin_group(draw(st.sampled_from(["s3", "z2^2", "z4", "z6", "z3", "z5", "z2", "z1"])))
    k = g.order
    perm = draw(st.permutations(range(k)))
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            table[perm[a]][perm[b]] = perm[g.mul(a, b)]
    if draw(st.integers(0, 3)) == 0:
        table[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(st.integers(0, k - 1))
    names = draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3), min_size=k, max_size=k, unique=True))
    return "\n".join([f"group {k}", " ".join(names)] + [" ".join(names[x] for x in row) for row in table]) + "\n"


def lift3_rank_is_4(code: int, report: dict) -> None:
    if report["command"][1] == "lift3" and code == 0:
        assert report["lift"]["rank"] == 4, report


@FUZZ
@given(st.one_of(cayley_text(), grp_text(), soup), st.sampled_from([3, 4, 5, 2, 0]), json_name)
@example(S3_GRP, 3, "r.json")
@example("group 4\n00 01 10 11\n00 01 10 11\n01 00 11 10\n10 11 00 01\n11 10 01 00\n", 4, "r.json")  # Z2^2
def test_cli_on_fuzzed_grp(text, n, report):
    run_cli(lambda f: [["gain", "partitions", f], ["gain", "build", f, str(n)], ["gain", "lift3", f]],
            text, report, lift3_rank_is_4)

