"""Prime-field linear algebra and the representable-witness construction.

Given a matrix A over GF(p) whose column matroid is K and an independent
column set X, builds the overlay matroid N on the circuits of M = K/X so
that M^N equals L = K\\X.  Matrices are immutable tuples of tuples, safe to
share across threads.

Every rank comes from one echelon kernel, ``_reduce_into``: the size of
the basis the columns build, with no matrix copied or re-eliminated.
``column_matroid`` runs it along a fundamental-circuit search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from matlift import core
from matlift.core import (
    CheckFailedError,
    Mask,
    Matroid,
    RankMatroid,
    elements_of,
    one_based,
)
from matlift.lifts import LiftSpec, check_star_prime, lift_rank

MAX_PRIME = 251


class DependentColumnsError(CheckFailedError):
    """The designated column set X is dependent; carries the offending
    kernel combination instead of silently shrinking X."""

    def __init__(self, columns: Sequence[int], combo: Sequence[int]) -> None:
        cols = [c + 1 for c in columns]
        super().__init__(f"columns {cols} are dependent (kernel vector {list(combo)})")
        self.columns = tuple(columns)
        self.combination = tuple(combo)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def take_columns(self, cols: Sequence[int]) -> "GfMatrix":
        return GfMatrix(self.p, [[row[j] for j in cols] for row in self.data])

    def drop_columns(self, cols: Iterable[int]) -> "GfMatrix":
        drop = set(cols)
        keep = [j for j in range(self.cols) if j not in drop]
        return self.take_columns(keep)

    def drop_rows(self, rows: Iterable[int]) -> "GfMatrix":
        drop = set(rows)
        kept = [list(self.data[i]) for i in range(self.rows) if i not in drop]
        if not kept:
            raise ValueError("cannot drop every row")
        return GfMatrix(self.p, kept)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) % p for row in self.data)

    def rref(self) -> tuple["GfMatrix", tuple[int, ...]]:
        """Reduced row echelon form plus pivot column indices."""
        work = [list(row) for row in self.data]
        pivots = _eliminate(self.p, work, range(self.cols))
        return GfMatrix(self.p, work), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """A basis of the right kernel, one vector per free column."""
        red, pivots = self.rref()
        pivot_of_col = {c: i for i, c in enumerate(pivots)}
        basis = []
        for free in range(self.cols):
            if free in pivot_of_col:
                continue
            v = [0] * self.cols
            v[free] = 1
            for col, row in pivot_of_col.items():
                v[col] = (-red.data[row][free]) % self.p
            basis.append(tuple(v))
        return basis


def _eliminate(p: int, work: list[list[int]], cols: Iterable[int]) -> list[int]:
    """Gauss-Jordan elimination of ``work`` in place over GF(p).

    Pivots on ``cols`` in order, skipping a column with no pivot left, until
    the rows run out.  Returns the columns that got a pivot; the i-th of
    them is reduced to the i-th standard basis vector.
    """
    rows = len(work)
    pivots: list[int] = []
    r = 0
    for col in cols:
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(rows):
            if i != r and work[i][col]:
                factor = work[i][col]
                work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return pivots


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


def _rank_of(p: int, vectors: Iterable[Sequence[int]], width: int) -> int:
    """Rank of vectors of length ``width``: inserted into a fresh echelon
    basis until it is full."""
    basis: list[Row] = []
    for v in vectors:
        if len(basis) == width:
            break
        _reduce_into(p, basis, v, width)
    return len(basis)


def columns_rank(a: GfMatrix, cols: Sequence[int]) -> int:
    return _rank_of(a.p, (a.column(c) for c in cols), a.rows)


def column_matroid(a: GfMatrix) -> Matroid:
    """The matroid of linear dependence on the columns of ``a``.

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
    if a.cols > 64:
        raise ValueError("column matroid supports at most 64 columns")
    p, rows, n = a.p, a.rows, a.cols
    fam: list[Mask] = []

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
                fam.append(indep | 1 << f)
        for k, (e, row) in enumerate(grown):
            extend(indep | 1 << e, members + [e], [row], [(f, v) for f, (_, v) in grown[k + 1:]])

    # column e followed by the unit vector e, its combination of columns
    extend(0, [], [], [(e, a.column(e) + tuple(int(i == e) for i in range(n))) for e in range(n)])
    return Matroid(n, fam, validate=False)


class LinearMatroid(RankMatroid):
    """Rank-oracle matroid of a matrix's columns, without materialized circuits.

    Used as the overlay N in witness constructions, where the ground set (the
    circuit list of M) can be large but only ranks and closures of index sets
    are ever needed.  The matrix is row-reduced once to r(N) rows, which
    keeps every column dependence; a rank query inserts the mask's columns
    into a fresh echelon basis and stops when it holds r(N) of them.  The
    rank memo is capped like ``Matroid``'s.
    """

    __slots__ = ("matrix", "_columns")

    def __init__(self, matrix: GfMatrix) -> None:
        self.matrix = matrix
        self.n = matrix.cols
        row_basis: list[Row] = []
        for row in matrix.data:
            _reduce_into(matrix.p, row_basis, row, matrix.cols)
        self._columns = [tuple(row[j] for _, row in row_basis) for j in range(matrix.cols)]
        self._rank_cache: dict[Mask, int] = {0: 0}
        self._full_rank: Optional[int] = len(row_basis)

    def rank(self, mask: Mask) -> int:
        got = self._rank_cache.get(mask)
        if got is None:
            columns = self._columns
            got = _rank_of(self.matrix.p, (columns[e] for e in elements_of(mask)), self._full_rank)
            if len(self._rank_cache) < core.RANK_CACHE_LIMIT:
                self._rank_cache[mask] = got
        return got


def circuit_vector(a: GfMatrix, circuit: Mask) -> tuple[int, ...]:
    """The kernel vector of ``a`` supported exactly on a circuit of its
    column matroid, normalized so the first nonzero entry is 1."""
    cols = elements_of(circuit)
    kernel = a.take_columns(cols).kernel_basis()
    if len(kernel) != 1:
        raise ValueError(
            f"columns {one_based(circuit)} are not a circuit "
            f"(restricted kernel dimension {len(kernel)})"
        )
    small = kernel[0]
    if any(x == 0 for x in small):
        raise ValueError(f"columns {one_based(circuit)} are not a circuit (support mismatch)")
    lead_inv = pow(small[0], a.p - 2, a.p)
    v = [0] * a.cols
    for col, x in zip(cols, small):
        v[col] = (x * lead_inv) % a.p
    return tuple(v)


@dataclass(frozen=True)
class WitnessProblem:
    """A represented matroid K (columns of ``a``) and a column subset X."""

    a: GfMatrix
    x_columns: tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.x_columns:
            if not 0 <= c < self.a.cols:
                raise ValueError(f"column {c} out of range")
        if len(set(self.x_columns)) != len(self.x_columns):
            raise ValueError("repeated columns in X")


@dataclass(frozen=True)
class LiftWitness:
    """Output of the witness construction: M = K/X, L = K\\X, and the overlay
    N on M's circuits together with the lift spec (M, N)."""

    m: Matroid
    l: Matroid
    n: RankMatroid
    spec: LiftSpec
    b_matrix: Optional[GfMatrix]
    circuit_vectors: tuple[tuple[int, ...], ...]


def maximal_independent_columns(a: GfMatrix, cols: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split ``cols`` into a maximal independent prefix-greedy subset and the
    leftover dependent columns.  The explicit reduction for dependent X."""
    basis: list[Row] = []
    indep: list[int] = []
    leftover: list[int] = []
    for c in cols:
        _reduce_into(a.p, basis, a.column(c), a.rows)
        if len(basis) > len(indep):
            indep.append(c)
        else:
            leftover.append(c)
    return indep, leftover


def _pivot_x_to_standard_basis(a: GfMatrix, x_cols: Sequence[int]) -> GfMatrix:
    """Row-reduce so the i-th X column becomes the i-th standard basis vector.

    Row operations preserve column dependences, so the column matroid is
    unchanged.
    """
    work = [list(row) for row in a.data]
    if len(_eliminate(a.p, work, x_cols)) < len(x_cols):
        raise DependentColumnsError(x_cols, circuit_combination(a, x_cols))
    return GfMatrix(a.p, work)


def circuit_combination(a: GfMatrix, cols: Sequence[int]) -> tuple[int, ...]:
    """A nonzero kernel vector over the given dependent columns (for error
    reporting)."""
    kernel = a.take_columns(list(cols)).kernel_basis()
    if not kernel:
        raise ValueError("columns are independent")
    return kernel[0]


def lift_witness(problem: WitnessProblem) -> LiftWitness:
    """The representable-witness construction.

    Pivots the X columns to standard basis vectors, forms A_M (X columns and
    their pivot rows removed) and A_L (X columns removed), takes the kernel
    vector x_C of each circuit C of M, and lets N be the column matroid of
    B = [A_L x_C].  The returned spec always satisfies (*').
    """
    a, x_cols = problem.a, list(problem.x_columns)
    if columns_rank(a, x_cols) < len(x_cols):
        raise DependentColumnsError(x_cols, circuit_combination(a, x_cols))
    if len(x_cols) == a.cols:
        empty = Matroid(0, [])
        return LiftWitness(empty, empty, empty, LiftSpec(empty, empty), None, ())
    if x_cols:
        pivoted = _pivot_x_to_standard_basis(a, x_cols)
        a_l = pivoted.drop_columns(x_cols)
        if len(x_cols) == pivoted.rows:
            # X spans the row space; M is the rank-0 matroid on the rest.
            a_m = GfMatrix(a.p, [[0] * a_l.cols])
        else:
            a_m = a_l.drop_rows(range(len(x_cols)))
    else:
        a_l = a
        a_m = a
    m = column_matroid(a_m)
    l = column_matroid(a_l)
    vectors = tuple(circuit_vector(a_m, c) for c in m.circuits)
    if vectors:
        columns = [a_l.matvec(v) for v in vectors]
        b: Optional[GfMatrix] = GfMatrix(a.p, [[col[i] for col in columns] for i in range(a_l.rows)])
        n: RankMatroid = LinearMatroid(b)
    else:
        b = None
        n = Matroid(0, [])
    spec = LiftSpec(m, n)
    ok, witness = check_star_prime(spec)
    if not ok:
        raise AssertionError(f"witness construction violated (*'): {witness}")
    return LiftWitness(m, l, n, spec, b, vectors)


def verify_witness(spec: LiftSpec, l: Matroid) -> bool:
    """True iff the lift rank of the spec equals L's rank on every subset.

    Checks equality (not mere isomorphism) exhaustively over the ground set.
    """
    if spec.base.n != l.n:
        raise ValueError("ground set mismatch")
    full = (1 << l.n) - 1
    for mask in range(full + 1):
        if lift_rank(spec, mask) != l.rank(mask):
            return False
    return True
