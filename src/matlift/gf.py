"""Prime-field linear algebra and the representable-witness construction.

Given a matrix A over GF(p) whose column matroid is K and an independent
column set X, builds the overlay matroid N on the circuits of M = K/X so
that M^N equals L = K\\X.  Inside this module a matrix is a list of column
tuples; ``GfMatrix`` is the validated input type and hands its columns
over once, through ``columns()``.

Every elimination goes through one echelon kernel, ``_reduce_into``.  A
rank is the size of the basis the columns build, with no matrix copied or
re-eliminated.  ``column_circuits`` runs it along a fundamental-circuit
search that reports each circuit with its kernel vector, and the witness
construction reduces K's columns against X's basis, reading M off the
residues and N off X's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from matlift.core import (
    MAX_GROUND,
    CheckFailedError,
    Mask,
    Matroid,
    RankMatroid,
    is_prime,
)
from matlift.lifts import LiftSpec, check_star_prime, lift_ranks

MAX_PRIME = 251


class DependentColumnsError(CheckFailedError):
    """The designated column set X is dependent; carries the offending
    kernel combination instead of silently shrinking X."""

    def __init__(self, columns: Sequence[int], combo: Sequence[int]) -> None:
        cols = [c + 1 for c in columns]
        super().__init__(f"columns {cols} are dependent (kernel vector {list(combo)})")
        self.columns = tuple(columns)
        self.combination = tuple(combo)


class GfMatrix:
    """A rows x cols matrix over GF(p), p prime, entries in [0, p)."""

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p: int, rows: Sequence[Sequence[int]]) -> None:
        if not is_prime(p) or p > MAX_PRIME:
            raise ValueError(f"field order must be a prime <= {MAX_PRIME}, got {p}")
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
        self.p = p
        self.rows = len(rows)
        self.cols = width
        self.data: tuple[tuple[int, ...], ...] = tuple(
            tuple(x % p for x in row) for row in rows
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GfMatrix):
            return NotImplemented
        return self.p == other.p and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.p, self.data))

    def __repr__(self) -> str:
        return f"GfMatrix(p={self.p}, {self.rows}x{self.cols})"

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.data))


Row = tuple[int, list[int]]


def _reduce_into(p: int, basis: list[Row], v: Sequence[int], width: int) -> Sequence[int]:
    """Reduce ``v`` over GF(p) against an echelon ``basis`` of (pivot, row)
    pairs and return the residue, appended to ``basis`` when ``v`` is
    independent of the rows.

    Each row is 1 at its pivot and 0 at the pivots of the rows before it,
    so one pass in order clears every pivot of ``v``.  Pivots lie in the
    first ``width`` entries; later entries (a combination of columns, say)
    ride along.  An appended residue is scaled to 1 at its pivot.
    """
    for pivot, row in basis:
        c = v[pivot]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    for pivot in range(width):
        if v[pivot]:
            inv = pow(v[pivot], p - 2, p)
            v = [(x * inv) % p for x in v]
            basis.append((pivot, v))
            break
    return v


def column_circuits(p: int, columns: Sequence[tuple[int, ...]]) -> dict[Mask, tuple[int, ...]]:
    """The circuits of the matroid of ``columns`` over GF(p), each with its
    kernel vector: the dependence of the columns supported exactly on the
    circuit, scaled so its first nonzero entry is 1.  Columns of no
    entries are loops.

    A fundamental-circuit search over the independent sets I, depth-first
    in lexicographic order.  Each later column outside the span of I is
    carried as its residue against an echelon basis of I, so the step to
    I + e reduces each later residue by e's row alone.  A residue carries
    its combination of columns: when f's residue vanishes, that is the
    unique dependence on I + f, and I + f is a circuit iff every
    coefficient on I is nonzero.  A circuit C is found once, at
    I = C - max(C).  A column in the span of I leaves I's subtree, as it
    makes no circuit with an independent proper superset of I.
    """
    n = len(columns)
    if n > MAX_GROUND:
        raise ValueError(f"column matroid supports at most {MAX_GROUND} columns")
    rows = len(columns[0]) if columns else 0
    found: dict[Mask, tuple[int, ...]] = {}

    def extend(indep: Mask, members: list[int], step: list[Row], later: list[tuple[int, Sequence[int]]]) -> None:
        # later: the columns past max(I), each with its residue against
        # I - max(I); step: the echelon row of max(I) (none at the root)
        depth = len(step)
        grown: list[tuple[int, Row]] = []
        for f, v in later:
            residue = _reduce_into(p, step, v, rows)
            if len(step) > depth:
                grown.append((f, step.pop()))
            elif all(residue[rows + i] for i in members):
                # the combination is 1 at f, so a loop needs no scaling
                inv = pow(residue[rows + members[0]], p - 2, p) if members else 1
                found[indep | 1 << f] = tuple(x * inv % p for x in residue[rows:])
        for k, (e, row) in enumerate(grown):
            extend(indep | 1 << e, members + [e], [row], [(f, v) for f, (_, v) in grown[k + 1:]])

    # column e followed by the unit vector e, its combination of columns
    extend(0, [], [], [(e, col + tuple(int(i == e) for i in range(n))) for e, col in enumerate(columns)])
    return found


def column_matroid(p: int, columns: Sequence[tuple[int, ...]]) -> Matroid:
    """The matroid of linear dependence on ``columns`` over GF(p): the
    circuits ``column_circuits`` finds."""
    return Matroid(len(columns), column_circuits(p, columns), validate=False)


class LinearMatroid(RankMatroid):
    """Rank-oracle matroid of column vectors over GF(p), without
    materialized circuits.

    Used as the overlay N in witness constructions, where the ground set (the
    circuit list of M) can be large but only ranks and closures of index sets
    are ever needed.  A rank query walks the mask's elements lazily,
    inserting their columns into a fresh echelon basis (a pivot may sit at
    any entry), and stops when it holds r(N) rows.
    """

    __slots__ = ("p", "columns")

    def __init__(self, p: int, columns: Sequence[tuple[int, ...]]) -> None:
        self.p = p
        self.columns = columns
        self.n = len(columns)
        basis: list[Row] = []
        for col in columns:
            _reduce_into(p, basis, col, len(col))
        self.full_rank = len(basis)

    def rank(self, mask: Mask) -> int:
        p, columns, full = self.p, self.columns, self.full_rank
        basis: list[Row] = []
        rest = mask
        while rest and len(basis) < full:
            low = rest & -rest
            rest ^= low
            col = columns[low.bit_length() - 1]
            _reduce_into(p, basis, col, len(col))
        return len(basis)

    def parallel_classes(self) -> list[Mask]:
        """The nonzero columns grouped by their multiple with leading
        entry 1."""
        p = self.p
        classes: dict[tuple[int, ...], Mask] = {}
        for e, col in enumerate(self.columns):
            lead = next((x for x in col if x), 0)
            if lead:
                inv = pow(lead, p - 2, p)
                key = tuple(x * inv % p for x in col)
                classes[key] = classes.get(key, 0) | 1 << e
        return list(classes.values())


@dataclass(frozen=True)
class LiftWitness:
    """Output of the witness construction: L = K\\X, and the lift spec
    (M, N) with M = K/X its base and the overlay N on M's circuits."""

    l: Matroid
    spec: LiftSpec
    circuit_vectors: tuple[tuple[int, ...], ...]


def lift_witness(a: GfMatrix, x_columns: Sequence[int]) -> LiftWitness:
    """The representable-witness construction for the represented matroid
    K (columns of ``a``) and the distinct 0-based columns ``x_columns``.

    Inserts the X columns into one echelon basis, each followed by its unit
    vector so that a column that does not grow the basis reports the
    dependence it lies in.  Every other column a_c, followed by a zero
    tail, reduces against that basis to a residue r_c, zero on X's pivot
    rows, and a tail t_c with a_c = r_c - A_X t_c.  The residues stripped
    of X's pivot rows form A_M, which represents M = K/X; the columns as
    given form A_L, which represents L = K\\X.  Each circuit C of M comes
    with its kernel vector x_C from the circuit search.  A_M x_C = 0, so
    A_L x_C = -A_X y_C with y_C = sum_c x_C[c] t_c, and as A_X has
    independent columns, N is the matroid of the columns y_C, which are
    X's coordinates of A_L x_C.  The returned spec always satisfies (*').
    """
    for c in x_columns:
        if not 0 <= c < a.cols:
            raise ValueError(f"column {c} out of range")
    if len(set(x_columns)) != len(x_columns):
        raise ValueError("repeated columns in X")
    p, rows, k = a.p, a.rows, len(x_columns)
    columns = a.columns()
    basis: list[Row] = []
    for i, c in enumerate(x_columns):
        residue = _reduce_into(p, basis, columns[c] + tuple(int(j == i) for j in range(k)), rows)
        if len(basis) == i:
            raise DependentColumnsError(x_columns, residue[rows:])
    rest = [columns[c] for c in range(a.cols) if c not in x_columns]
    # width 0: reduce against X's rows, appending and rescaling nothing
    reduced = [_reduce_into(p, basis, col + (0,) * k, 0) for col in rest]
    pivots = {pivot for pivot, _ in basis}
    kept = [i for i in range(rows) if i not in pivots]
    found = column_circuits(p, [tuple(v[i] for i in kept) for v in reduced])
    m = Matroid(len(rest), found, validate=False)
    vectors = tuple(found[c] for c in m.circuits)
    tails = [v[rows:] for v in reduced]
    n = LinearMatroid(p, [tuple(sum(x * t[i] for x, t in zip(v, tails)) % p for i in range(k)) for v in vectors])
    spec = LiftSpec(m, n)
    ok, witness = check_star_prime(spec)
    if not ok:
        raise AssertionError(f"witness construction violated (*'): {witness}")
    return LiftWitness(column_matroid(p, rest), spec, vectors)


def verify_witness(spec: LiftSpec, l: Matroid) -> bool:
    """True iff the lift rank of the spec equals L's rank on every subset.

    Checks equality (not mere isomorphism) exhaustively over the ground
    set: ``lift_ranks`` and L's ``rank_sweep`` walk the subsets in the same
    order, each set's ranks read from its parent's.  Ground sets above
    ``MAX_SWEEP_GROUND`` elements are refused with ``ValueError``.
    """
    if spec.base.n != l.n:
        raise ValueError("ground set mismatch")
    return all(got == want for (_, got), (_, want, _) in zip(lift_ranks(spec), l.rank_sweep()))
