"""Text formats: .ckt matroids, .grp groups, .gfm matrices, .lift specs.

All formats are line-oriented and 1-based; .ckt files are emitted
canonically (sorted families, LF endings), so they round-trip
byte-stably.  ``#`` starts a comment anywhere; blank lines are ignored.
Every parser reads the ``(lineno, body)`` list of ``_content_lines``, and a
.lift section is a slice of that list read by the .ckt body reader, so a
parse error names the line of the file, inside a section too.  Only
``core`` is imported at load time; each parser imports the layer whose
type it builds, so parsing a .ckt loads no other layer.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from matlift.core import MAX_GROUND, Matroid, mask_of, one_based

if TYPE_CHECKING:
    from matlift.gf import GfMatrix
    from matlift.groups import FinGroup
    from matlift.lifts import LiftSpec


class ParseError(ValueError):
    """A malformed input file; carries path and 1-based line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


# ---------------------------------------------------------------------------
# .ckt


def parse_matroid_text(text: str, *, path: str = "<string>") -> Matroid:
    return _read_ckt(_content_lines(text), path, 1)


def _read_ckt(lines: list[tuple[int, str]], path: str, at: int) -> Matroid:
    """A .ckt body from its ``(lineno, body)`` content lines; ``at`` is the
    line an empty body is reported at."""
    if not lines:
        raise ParseError(path, at, "empty matroid file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "matroid" or parts[2] != "circuits":
        raise ParseError(path, lineno, f"expected header 'matroid <n> circuits', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(path, lineno, f"bad ground set size {parts[1]!r}") from None
    if not 1 <= n <= MAX_GROUND:
        raise ParseError(path, lineno, f"ground set size {n} outside [1, {MAX_GROUND}]")
    bit = {str(e): 1 << (e - 1) for e in range(1, n + 1)}.__getitem__
    circuits = []
    for lineno, body in lines[1:]:
        toks = body.split()
        try:
            mask = sum(map(bit, toks))
        except KeyError:
            # a token that is not a plain decimal in [1, n]: walk the line
            # element by element to name the first bad one
            try:
                elems = [int(tok) for tok in toks]
            except ValueError:
                raise ParseError(path, lineno, f"non-integer element in {body!r}") from None
            for e in elems:
                if not 1 <= e <= n:
                    raise ParseError(path, lineno, f"element {e} outside [1, {n}]")
            mask = mask_of(e - 1 for e in elems)
        # distinct bits sum (or OR) to as many bits as tokens; a repeat
        # leaves fewer
        if mask.bit_count() != len(toks):
            raise ParseError(path, lineno, f"repeated element in circuit {body!r}")
        circuits.append(mask)
    return Matroid(n, circuits)


def parse_matroid(path: str | Path) -> Matroid:
    p = Path(path)
    return parse_matroid_text(p.read_text(), path=str(p))


def emit_matroid_text(m: Matroid) -> str:
    lines = [f"matroid {m.n} circuits"]
    lines.extend(" ".join(str(e) for e in one_based(c)) for c in m.circuits)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .grp


def parse_group_text(text: str, *, path: str = "<string>") -> FinGroup:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(path, 1, "empty group file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "group":
        raise ParseError(path, lineno, f"expected header 'group <k>', got {header!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise ParseError(path, lineno, f"bad group order {parts[1]!r}") from None
    if k < 1:
        raise ParseError(path, lineno, "group order must be positive")
    if len(lines) < 2 + k:
        raise ParseError(path, lines[-1][0], f"expected {k} table rows after the name line")
    if len(lines) > 2 + k:
        raise ParseError(path, lines[2 + k][0], f"unexpected line after the {k} table rows")
    name_lineno, name_line = lines[1]
    names = name_line.split()
    if len(names) != k:
        raise ParseError(path, name_lineno, f"expected {k} element names, got {len(names)}")
    if len(set(names)) != k:
        raise ParseError(path, name_lineno, "element names must be distinct")
    index = {nm: i for i, nm in enumerate(names)}
    table = []
    for row_idx, (lineno, body) in enumerate(lines[2 : 2 + k]):
        toks = body.split()
        if len(toks) != k:
            raise ParseError(path, lineno, f"table row {row_idx + 1} has {len(toks)} entries, expected {k}")
        row = []
        for tok in toks:
            if tok not in index:
                raise ParseError(path, lineno, f"unknown element name {tok!r}")
            row.append(index[tok])
        table.append(row)
    from matlift.groups import FinGroup, GroupAxiomError

    try:
        return FinGroup(table, names, name=Path(path).stem if path != "<string>" else "group")
    except GroupAxiomError as exc:
        raise ParseError(path, lines[0][0], str(exc)) from exc


def parse_group(path: str | Path) -> FinGroup:
    p = Path(path)
    return parse_group_text(p.read_text(), path=str(p))


# ---------------------------------------------------------------------------
# .gfm


def parse_matrix_text(text: str, *, path: str = "<string>") -> GfMatrix:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(path, 1, "empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "gf":
        raise ParseError(path, lineno, f"expected header 'gf <p> <rows> <cols>', got {header!r}")
    try:
        p_val, rows, cols = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(path, lineno, f"bad header numbers in {header!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(path, lineno, "matrix dimensions must be positive")
    if len(lines) != 1 + rows:
        # named at the first extra row, or at the last line when rows are missing
        at = lines[1 + rows] if rows < len(lines) - 1 else lines[-1]
        raise ParseError(path, at[0], f"expected {rows} matrix rows, got {len(lines) - 1}")
    data = []
    for lineno, body in lines[1:]:
        try:
            row = [int(tok) for tok in body.split()]
        except ValueError:
            raise ParseError(path, lineno, f"non-integer entry in {body!r}") from None
        if len(row) != cols:
            raise ParseError(path, lineno, f"row has {len(row)} entries, expected {cols}")
        data.append(row)
    from matlift.gf import GfMatrix

    try:
        return GfMatrix(p_val, data)
    except ValueError as exc:
        raise ParseError(path, lines[0][0], str(exc)) from exc


def parse_matrix(path: str | Path) -> GfMatrix:
    p = Path(path)
    return parse_matrix_text(p.read_text(), path=str(p))


# ---------------------------------------------------------------------------
# .lift


def parse_lift_text(text: str, *, path: str = "<string>") -> LiftSpec:
    """A ``base`` section holding a .ckt body and an ``overlay`` section whose
    1-based elements index the base circuits in canonical order."""
    lines = _content_lines(text)
    marks: dict[str, int] = {}  # section name -> index of its marker line
    for i, (lineno, body) in enumerate(lines):
        if body in ("base", "overlay"):
            if body in marks:
                raise ParseError(path, lineno, f"duplicate section {body!r}")
            marks[body] = i
        elif not marks:
            raise ParseError(path, lineno, f"content before any section: {body!r}")
    for required in ("base", "overlay"):
        if required not in marks:
            raise ParseError(path, 1, f"missing section {required!r}")
    b, o = marks["base"], marks["overlay"]
    base = _read_ckt(lines[b + 1 : o if o > b else None], path, lines[b][0])
    overlay = _read_ckt(lines[o + 1 : b if b > o else None], path, lines[o][0])
    if overlay.n != len(base.circuits):
        raise ParseError(
            path,
            lines[o][0],
            f"overlay ground set {overlay.n} != number of base circuits {len(base.circuits)}",
        )
    from matlift.lifts import LiftSpec

    return LiftSpec(base, overlay)


def parse_lift(path: str | Path) -> LiftSpec:
    p = Path(path)
    return parse_lift_text(p.read_text(), path=str(p))
