"""Prime-field linear algebra and the representable-witness construction."""

from __future__ import annotations

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matlift.lifts as lifts
from matlift.core import Matroid, canonical_circuits, elements_of, is_prime, mask_of, uniform_matroid
from matlift.gf import (
    DependentColumnsError,
    GfMatrix,
    LinearMatroid,
    column_circuits,
    column_matroid,
    lift_witness,
    verify_witness,
)
from matlift.lifts import MAX_SWEEP_GROUND, LiftSpec, build_lift, check_star_prime

from zoo import (
    circuits_bruteforce,
    contract,
    delete,
    gf_circuit_vector,
    gf_circuits_from_kernel,
    gf_kernel_basis,
    gf_rank_bruteforce,
    gf_rref,
    is_circuit_hyperplane,
    matvec,
    random_gf_matrix,
    random_witness_instance,
    relax,
    verify_witness_per_subset,
)

_lift_witness = lift_witness


def _matrix_overlay(count: int, rank: int):
    """The rank-``rank`` overlay on ``count`` circuits whose first ``rank``
    elements are free and the rest loops, as a ``LinearMatroid`` (no
    64-element cap)."""
    return LinearMatroid(2, [tuple(int(i == j) for i in range(rank)) for j in range(count)])


def _corrupted(a: GfMatrix, x: tuple[int, ...], w) -> list[tuple[str, LiftSpec, Matroid]]:
    """Broken (spec, L) pairs from a witness of (A, X): the overlay replaced
    by the free and by the all-loops matroid, L relaxed at its first
    circuit-hyperplane, and L = K\\X' for another X' of the same size."""
    count = len(w.spec.base.circuits)
    out = [
        ("free overlay", LiftSpec(w.spec.base, _matrix_overlay(count, count)), w.l),
        ("all-loops overlay", LiftSpec(w.spec.base, _matrix_overlay(count, 0)), w.l),
    ]
    hyperplanes = [c for c in w.l.circuits if is_circuit_hyperplane(w.l, c)]
    if hyperplanes:
        out.append(("relaxed L", w.spec, relax(w.l, hyperplanes[0])))
    other = next((y for y in combinations(range(a.cols), len(x)) if set(y) != set(x)), None)
    if other is not None:
        out.append(("other X", w.spec, delete(column_matroid(a.p, a.columns()), mask_of(other))))
    return out


@pytest.fixture(autouse=True)
def sweep_matches_per_subset_loop():
    """Every witness a test in this module builds: ``verify_witness`` (the
    subset sweep) returns what the per-subset loop of ``zoo`` returns, on
    the witness and on each of its ``_corrupted`` copies.  Witnesses above
    the sweep bound, which both refuse, are left out."""
    built = []

    def recording(a: GfMatrix, x_columns: tuple[int, ...]):
        w = _lift_witness(a, x_columns)
        built.append((a, x_columns, w))
        return w

    globals()["lift_witness"] = recording
    try:
        yield
    finally:
        globals()["lift_witness"] = _lift_witness
    for a, x_columns, w in built:
        if w.l.n > MAX_SWEEP_GROUND:
            continue
        for _, spec, l in [("witness", w.spec, w.l)] + _corrupted(a, x_columns, w):
            assert verify_witness(spec, l) == verify_witness_per_subset(spec, l)


class TestField:
    def test_primes(self):
        assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_rejects_composite_field(self):
        with pytest.raises(ValueError):
            GfMatrix(4, [[1]])

    def test_rejects_oversized_prime(self):
        with pytest.raises(ValueError):
            GfMatrix(257, [[1]])

    def test_entries_reduced(self):
        a = GfMatrix(3, [[4, -1]])
        assert a.data == ((1, 2),)


class TestRref:
    """The oracle the echelon paths are checked against: ``zoo``'s plain
    Gauss-Jordan elimination, which shares no code with ``matlift.gf``."""

    def test_identity(self):
        assert gf_rref(2, [[1, 0], [0, 1]]) == ([[1, 0], [0, 1]], [0, 1])

    def test_zero(self):
        assert gf_rref(2, [[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])

    def test_gf2_hand_example(self):
        assert gf_rref(2, [[1, 1], [1, 1]]) == ([[1, 1], [0, 0]], [0])

    def test_kernel_vectors_lie_in_kernel(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_gf_matrix(rng)
            for v in gf_kernel_basis(a.p, a.data):
                assert all(x == 0 for x in matvec(a, v))

    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_gf_matrix(rng)
            assert len(gf_rref(a.p, a.data)[1]) + len(gf_kernel_basis(a.p, a.data)) == a.cols


class TestColumnMatroid:
    def test_identity_is_free(self):
        a = GfMatrix(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert column_matroid(a.p, a.columns()) == uniform_matroid(3, 3)

    def test_gf2_u23(self):
        assert column_matroid(2, [(1, 0), (0, 1), (1, 1)]) == uniform_matroid(2, 3)

    def test_rank_equals_pivot_count(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_gf_matrix(rng)
            assert column_matroid(a.p, a.columns()).full_rank == len(gf_rref(a.p, a.data)[1])

    def test_zero_columns_are_loops(self):
        a = GfMatrix(5, [[0, 1, 0], [0, 2, 0]])
        m = column_matroid(a.p, a.columns())
        assert m.closure(0) == 0b101

    def test_contraction_commutes_with_row_reduction(self):
        # column_matroid(A)/X == column_matroid(A_M) for independent X
        rng = random.Random(11)
        done = 0
        while done < 25:
            a = random_gf_matrix(rng, max_rows=3, max_cols=7)
            k = column_matroid(a.p, a.columns())
            cols = [c for c in range(a.cols)]
            rng.shuffle(cols)
            x = tuple(sorted(cols[: rng.randint(1, 2)]))
            if gf_rank_bruteforce(a, x) < len(x):
                continue
            witness = lift_witness(a, x)
            contracted = contract(k, mask_of(x))
            assert witness.spec.base == contracted
            done += 1

    def test_matches_bruteforce(self):
        rng = random.Random(29)
        for _ in range(30):
            a = random_gf_matrix(rng)
            want = canonical_circuits(circuits_bruteforce(lambda m: gf_rank_bruteforce(a, elements_of(m)), a.cols))
            assert column_matroid(a.p, a.columns()).circuits == want


def _assert_circuit_vectors(a: GfMatrix) -> None:
    """Each vector of the circuit search against the oracle's kernel."""
    for c, v in column_circuits(a.p, a.columns()).items():
        assert len(v) == a.cols
        assert mask_of(i for i, x in enumerate(v) if x) == c
        assert next(x for x in v if x) == 1
        assert all(x == 0 for x in matvec(a, v))
        assert v == gf_circuit_vector(a, c)


class TestCircuitVector:
    """The kernel vector ``column_circuits`` reports with each circuit."""

    def test_gf2_pair(self):
        assert column_circuits(2, [(1,), (1,)]) == {0b11: (1, 1)}

    def test_gf3_pair(self):
        assert column_circuits(3, [(1,), (2,)]) == {0b11: (1, 1)}

    def test_rejects_independent(self):
        assert column_circuits(2, [(1, 0), (0, 1)]) == {}

    def test_gf7_triangle_scaled_to_first_entry(self):
        # col1 + 5 col2 + 3 col3 = 0; the search finds it as 5 col1 + 4 col2 + col3
        assert column_circuits(7, [(1, 0), (0, 1), (2, 3)]) == {0b111: (1, 5, 3)}

    def test_loops(self):
        assert column_circuits(5, [(0, 0), (1, 2), (0, 0)]) == {0b1: (1, 0, 0), 0b100: (0, 0, 1)}

    def test_support_and_kernel(self):
        rng = random.Random(13)
        for _ in range(40):
            _assert_circuit_vectors(random_gf_matrix(rng, p=rng.choice([2, 3, 5, 7, 251]), max_rows=3, max_cols=7))

    def test_edge_matrices(self):
        for a in EDGE_MATRICES.values():
            _assert_circuit_vectors(a)


class TestWitness:
    def test_paper_u24_example(self):
        a = GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
        w = lift_witness(a, (0,))
        assert w.spec.base == uniform_matroid(1, 3)
        assert w.l == uniform_matroid(2, 3)
        assert w.spec.overlay.full_rank == 1
        assert verify_witness(w.spec, w.l)

    def test_empty_x(self):
        a = GfMatrix(2, [[1, 0, 1], [0, 1, 1]])
        w = lift_witness(a, ())
        k = column_matroid(a.p, a.columns())
        assert w.spec.base == k and w.l == k
        assert w.spec.overlay.full_rank == 0
        assert verify_witness(w.spec, w.l)

    def test_dependent_x_reported(self):
        a = GfMatrix(2, [[1, 1, 0], [0, 0, 1]])
        with pytest.raises(DependentColumnsError) as err:
            lift_witness(a, (0, 1))
        assert err.value.columns == (0, 1)
        assert err.value.combination == (1, 1)

    def test_pivot_reports_dependent_x(self):
        # X's pivot step stops at the first column that does not grow the
        # basis; the combination it reports annihilates X's columns
        a = GfMatrix(5, [[1, 2, 0, 3], [0, 0, 1, 1]])
        x = (2, 0, 1)
        with pytest.raises(DependentColumnsError) as err:
            lift_witness(a, x)
        assert err.value.columns == x
        combo = err.value.combination
        assert combo[-1] == 1
        x_only = GfMatrix(5, [[row[c] for c in x] for row in a.data])
        assert matvec(x_only, combo) == (0, 0)

    @pytest.mark.parametrize("x, combination", [((0, 1, 2), (5, 4, 1)), ((2, 0, 1), (2, 3, 1))])
    def test_dependent_x_over_gf7(self, x, combination):
        # col3 = 2 col1 + 3 col2: the combination is 1 at the first column
        # that does not grow X's basis and 0 past it
        a = GfMatrix(7, [[1, 0, 2], [0, 1, 3]])
        with pytest.raises(DependentColumnsError) as err:
            lift_witness(a, x)
        assert err.value.columns == x
        assert err.value.combination == combination
        assert str(err.value) == f"columns {[c + 1 for c in x]} are dependent (kernel vector {list(combination)})"

    def test_dependent_zero_column(self):
        a = GfMatrix(3, [[1, 0, 2], [0, 0, 1]])
        with pytest.raises(DependentColumnsError) as err:
            lift_witness(a, (0, 1, 2))
        assert err.value.combination == (0, 1, 0)

    @pytest.mark.parametrize("x, message", [
        ((4,), "column 4 out of range"),
        ((-1,), "column -1 out of range"),
        ((1, 1), "repeated columns in X"),
    ])
    def test_bad_x_refused(self, x, message):
        a = GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lift_witness(a, x)

    def test_x_is_every_column(self):
        a = GfMatrix(2, [[1, 0], [0, 1]])
        w = lift_witness(a, (0, 1))
        assert w.spec.base == w.l == Matroid(0, [])
        assert (w.spec.overlay.n, w.spec.overlay.full_rank) == (0, 0)
        assert verify_witness(w.spec, w.l)

    def test_quotient_without_circuits(self):
        a = GfMatrix(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        w = lift_witness(a, (0,))
        assert w.spec.base.circuits == ()
        assert (w.spec.overlay.n, w.spec.overlay.full_rank) == (0, 0)
        assert verify_witness(w.spec, w.l)

    def test_wrong_overlay_fails_verification(self):
        a = GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
        w = lift_witness(a, (0,))
        from matlift.lifts import LiftSpec

        loops = uniform_matroid(0, len(w.spec.base.circuits))
        assert not verify_witness(LiftSpec(w.spec.base, loops), w.l)

    def test_build_lift_equals_l_exactly(self):
        a = GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
        w = lift_witness(a, (0,))
        assert build_lift(w.spec) == w.l

    def test_overlay_invariant_under_vector_scaling(self):
        # The kernel vector of a circuit is scale-free; any nonzero scaling
        # rescales a column of B, which leaves the overlay matroid unchanged.
        rng = random.Random(23)
        done = 0
        while done < 10:
            a, x = None, None
            a = random_gf_matrix(rng, p=rng.choice([3, 5, 7]), max_rows=3, max_cols=7)
            cols = list(range(a.cols))
            rng.shuffle(cols)
            x = tuple(sorted(cols[:1]))
            if gf_rank_bruteforce(a, x) < len(x):
                continue
            w = lift_witness(a, x)
            if not w.spec.base.circuits:
                continue
            n = w.spec.overlay
            scaled_columns = []
            for col in n.columns:
                factor = rng.randrange(1, n.p)
                scaled_columns.append(tuple(x * factor % n.p for x in col))
            scaled = LinearMatroid(n.p, scaled_columns)
            for mask in range(1 << n.n):
                assert scaled.rank(mask) == w.spec.overlay.rank(mask)
            done += 1


def _independent_prefix(a: GfMatrix, order, size: int) -> tuple[int, ...]:
    """The first ``size`` columns of ``order`` that each grow the rank."""
    x: list[int] = []
    for c in order:
        if len(x) < size and gf_rank_bruteforce(a, x + [c]) > len(x):
            x.append(c)
    return tuple(x)


def _differential_case(rng: random.Random, kind: str) -> tuple[GfMatrix, tuple[int, ...]]:
    """A seeded (A, X) with X independent: empty, spanning the row space
    (A of full row rank, X a basis), every column, or a random prefix; a
    column of A is zero now and then."""
    while True:
        p = rng.choice([2, 3, 5, 7, 251])
        rows = rng.randint(1, 4)
        cols = rng.randint(1, rows) if kind == "all" else rng.randint(1, 7)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        for c in range(cols):
            if kind != "all" and rng.random() < 0.15:
                for row in data:
                    row[c] = 0
        a = GfMatrix(p, data)
        order = list(range(cols))
        rng.shuffle(order)
        rank = gf_rank_bruteforce(a, order)
        if kind == "empty":
            return a, ()
        if kind == "spanning" and rank == rows:
            return a, _independent_prefix(a, order, rows)
        if kind == "all" and rank == cols:
            return a, tuple(order)
        if kind == "random":
            return a, _independent_prefix(a, order, rng.randint(1, rows))


@pytest.mark.parametrize("kind", ["empty", "spanning", "all", "random"])
def test_witness_matches_contraction_and_deletion(kind):
    """``lift_witness`` against the materialized K/X and K\\X on 50 seeded
    instances of each kind, with every x_C checked independently: it is the
    one dependence of K/X supported on C, and A_L x_C = -A_X y_C for N's
    column y_C."""
    rng = random.Random(f"witness-{kind}")
    for _ in range(50):
        a, x = _differential_case(rng, kind)
        w = lift_witness(a, x)
        k = column_matroid(a.p, a.columns())
        assert w.spec.base == contract(k, mask_of(x))
        assert w.l == delete(k, mask_of(x))
        assert len(w.circuit_vectors) == len(w.spec.base.circuits)
        rest = [c for c in range(a.cols) if c not in x]
        for c, v, y in zip(w.spec.base.circuits, w.circuit_vectors, w.spec.overlay.columns):
            assert mask_of(i for i, e in enumerate(v) if e) == c
            assert next(e for e in v if e) == 1
            for row in a.data:
                assert sum(row[i] * e for i, e in zip(rest, v)) % a.p == -sum(row[i] * e for i, e in zip(x, y)) % a.p
        assert verify_witness(w.spec, w.l)


def test_sweep_agrees_with_per_subset_loop_on_corruptions():
    """Each kind of corruption makes both checks fail at least five times."""
    rng = random.Random("sweep")
    verdicts: Counter = Counter()
    for _ in range(120):
        a, x = _differential_case(rng, rng.choice(["empty", "spanning", "random"]))
        w = lift_witness(a, x)
        assert verify_witness(w.spec, w.l) and verify_witness_per_subset(w.spec, w.l)
        for kind, spec, l in _corrupted(a, x, w):
            got = verify_witness(spec, l)
            assert got == verify_witness_per_subset(spec, l), kind
            verdicts[kind, got] += 1
    for kind in ("free overlay", "all-loops overlay", "relaxed L", "other X"):
        assert verdicts[kind, False] >= 5, (kind, verdicts)


def test_matrix_overlays():
    assert _matrix_overlay(5, 5).full_rank == 5 and _matrix_overlay(5, 5).closure(0) == 0
    assert _matrix_overlay(5, 0).full_rank == 0 and _matrix_overlay(5, 0).closure(0) == 0b11111


def test_verify_witness_refuses_above_the_sweep_bound():
    # 2x18 over GF(3), X = {1}: K\X has 17 elements
    rng = random.Random(17)
    a = GfMatrix(3, [[1] + [rng.randrange(3) for _ in range(17)], [0] + [rng.randrange(3) for _ in range(17)]])
    w = lift_witness(a, (0,))
    with pytest.raises(ValueError, match="2\\^17 subsets refused"):
        verify_witness(w.spec, w.l)


class TestLinearMatroidOverlay:
    def test_matches_materialized(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_gf_matrix(rng, max_rows=3, max_cols=6)
            oracle = LinearMatroid(a.p, a.columns())
            materialized = column_matroid(a.p, a.columns())
            for mask in range(1 << a.cols):
                assert oracle.rank(mask) == materialized.rank(mask)

    def test_closure_matches(self):
        rng = random.Random(19)
        for _ in range(10):
            a = random_gf_matrix(rng, max_rows=3, max_cols=6)
            oracle = LinearMatroid(a.p, a.columns())
            materialized = column_matroid(a.p, a.columns())
            for mask in range(1 << a.cols):
                assert oracle.closure(mask) == materialized.closure(mask)

    def test_memo_respects_the_cap(self, monkeypatch):
        # the overlay memo of a LiftSpec on the loops of U(0, n)
        monkeypatch.setattr(lifts, "RANK_CACHE_LIMIT", 5)
        rng = random.Random(23)
        for _ in range(4):
            a = random_gf_matrix(rng, max_rows=3, max_cols=7)
            oracle = LinearMatroid(a.p, a.columns())
            spec = LiftSpec(uniform_matroid(0, a.cols), oracle)
            for _ in range(2):
                for mask in range(1 << a.cols):
                    assert spec.overlay_rank(mask) == gf_rank_bruteforce(a, elements_of(mask))
            assert len(spec._memo) == min(5, 1 << len(oracle.parallel_classes()))


def _bruteforce_circuits(a: GfMatrix) -> tuple[int, ...]:
    return canonical_circuits(circuits_bruteforce(lambda m: gf_rank_bruteforce(a, elements_of(m)), a.cols))


def _assert_rank_paths_match(a: GfMatrix, masks) -> None:
    """``LinearMatroid.rank`` and the materialized column matroid against
    a full re-elimination on each mask."""
    oracle = LinearMatroid(a.p, a.columns())
    materialized = column_matroid(a.p, a.columns())
    assert oracle.full_rank == gf_rank_bruteforce(a, range(a.cols))
    for mask in masks:
        cols = elements_of(mask)
        want = gf_rank_bruteforce(a, cols)
        assert oracle.rank(mask) == want
        assert materialized.rank(mask) == want


EDGE_MATRICES = {
    "zero columns": GfMatrix(3, [[0, 1, 0, 2, 0, 1], [0, 2, 0, 1, 0, 1]]),
    "all zero": GfMatrix(2, [[0, 0, 0], [0, 0, 0]]),
    "parallel columns": GfMatrix(5, [[1, 2, 0, 3, 1, 4], [2, 4, 1, 1, 2, 3], [0, 0, 3, 2, 0, 0]]),
    "rank deficient": GfMatrix(
        7, [[1, 2, 0, 3, 5, 1, 0], [0, 1, 4, 6, 2, 2, 3], [1, 3, 4, 2, 0, 3, 3], [2, 4, 0, 6, 3, 2, 0]]
    ),
    "one row": GfMatrix(3, [[1, 2, 0, 1, 1, 2, 0]]),
    "more rows than columns": GfMatrix(2, [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0]]),
    "gf251 dependences": GfMatrix(
        251, [[1, 250, 3, 4, 0, 5, 1], [2, 249, 7, 9, 0, 10, 0], [0, 0, 1, 1, 0, 0, 2]]
    ),
}


class TestEchelonAgainstReElimination:
    """The echelon rank paths and the circuit search against full
    re-elimination (``zoo.gf_rank_bruteforce``) and kernel supports."""

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    def test_edge_cases(self, name):
        a = EDGE_MATRICES[name]
        assert column_matroid(a.p, a.columns()).circuits == _bruteforce_circuits(a)
        _assert_rank_paths_match(a, range(1 << a.cols))

    def test_edge_case_shapes(self):
        zero = EDGE_MATRICES["zero columns"]
        assert column_matroid(zero.p, zero.columns()).closure(0) == 0b10101
        parallel = EDGE_MATRICES["parallel columns"]
        m = column_matroid(parallel.p, parallel.columns())
        assert m.is_circuit(0b1 | 0b10) and m.is_circuit(0b1 | 1 << 4)
        deficient, zero, tall = (EDGE_MATRICES[k] for k in ("rank deficient", "all zero", "more rows than columns"))
        assert LinearMatroid(deficient.p, deficient.columns()).full_rank == 2
        assert column_matroid(zero.p, zero.columns()).circuits == (0b1, 0b10, 0b100)
        assert LinearMatroid(tall.p, tall.columns()).full_rank == 2

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
    def test_primes(self, p):
        rng = random.Random(p)
        for _ in range(8):
            a = random_gf_matrix(rng, p=p, max_rows=4, max_cols=8)
            # a repeated and a summed column give dependences at every p
            rows = [list(row) + [row[0], (row[0] + row[1]) % p] for row in a.data]
            a = GfMatrix(p, rows)
            assert column_matroid(a.p, a.columns()).circuits == _bruteforce_circuits(a)
            _assert_rank_paths_match(a, range(1 << a.cols))

    @pytest.mark.parametrize("p, rows, cols", [(3, 7, 15), (2, 7, 16)])
    def test_bench_shapes(self, p, rows, cols):
        rng = random.Random(rows * cols + p)
        for _ in range(2):
            a = GfMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            m = column_matroid(a.p, a.columns())
            assert m.circuits == canonical_circuits(gf_circuits_from_kernel(a))
            for c in m.circuits:
                assert gf_rank_bruteforce(a, elements_of(c)) == c.bit_count() - 1
                assert gf_rank_bruteforce(a, elements_of(c)[:-1]) == c.bit_count() - 1
            _assert_rank_paths_match(a, [rng.getrandbits(cols) for _ in range(150)])

    def test_wide_low_rank(self):
        rng = random.Random(40)
        p = 5
        gens = [[rng.randrange(p) for _ in range(40)] for _ in range(2)]
        rows = []
        for _ in range(7):
            x, y = rng.randrange(p), rng.randrange(p)
            rows.append([(x * u + y * v) % p for u, v in zip(gens[0], gens[1])])
        a = GfMatrix(p, rows)
        oracle = LinearMatroid(a.p, a.columns())
        assert oracle.full_rank == 2 == gf_rank_bruteforce(a, range(40))
        for _ in range(300):
            mask = rng.getrandbits(40) & rng.getrandbits(40) & rng.getrandbits(40)
            cols = elements_of(mask)
            want = gf_rank_bruteforce(a, cols)
            assert oracle.rank(mask) == want


def test_witness_suite_random_instances():
    """Three dozen random instances here; the full 200-instance run is the
    acceptance criterion."""
    rng = random.Random(20240818)
    for _ in range(36):
        a, x = random_witness_instance(rng)
        w = lift_witness(a, x)
        assert check_star_prime(w.spec)[0]
        assert verify_witness(w.spec, w.l)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=1),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
        min_size=2,
        max_size=3,
    ),
)
def test_rref_preserves_column_dependences(which_p: int, rows: list[list[int]]):
    p = (3, 7)[which_p]
    red, _ = gf_rref(p, rows)
    a, b = GfMatrix(p, rows), GfMatrix(p, red)
    assert column_matroid(p, a.columns()) == column_matroid(p, b.columns())
