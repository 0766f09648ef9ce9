"""Kernel tests: axioms, oracles against brute force, minors, duality,
isomorphism, sparse paving, relaxation, hyperplane construction."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matlift.core as core
import matlift.lifts as lifts
from matlift.core import (
    CircuitAxiomError,
    HyperplaneAxiomError,
    Matroid,
    SparsePaving,
    ValidationReport,
    canonical_circuits,
    circuits_from_rank_oracle,
    elements_of,
    find_family_isomorphism,
    find_isomorphism,
    is_sparse_paving,
    mask_of,
    matroid_from_hyperplanes,
    one_based,
    subsets_of_size,
    uniform_matroid,
    validate_circuits,
    validate_hyperplanes,
)
from matlift.gain import GainGraph, graphic_matroid
from matlift.groups import builtin_group
from matlift.krt import KrtSpec, build_krt
from matlift.lifts import LiftSpec

from zoo import (
    circuits_bruteforce,
    closure_bruteforce,
    contract,
    delete,
    dual,
    find_family_isomorphism_per_direction,
    has_minor_isomorphic_to,
    gf_rank_bruteforce,
    hyperplanes,
    is_circuit_hyperplane,
    is_quotient,
    is_sparse_paving_bruteforce,
    random_base_matroid,
    random_gf_matrix,
    random_sparse_paving,
    rank_bruteforce,
    rank_one_overlay,
    relabel,
    relax,
    sparse_paving_from,
    validate_circuits_bruteforce,
    validate_circuits_pairwise,
    validate_hyperplanes_bruteforce,
    zoo,
)


def k43() -> Matroid:
    return build_krt(KrtSpec(4, 3)).to_matroid()


def _circuits_within(m: Matroid, mask: int) -> list[int]:
    """The circuits inside ``mask``, read off ``rank_and_circuits``."""
    return [m.circuits[k] for k in elements_of(m.rank_and_circuits(mask)[1])]


class TestValidateCircuits:
    def test_uniform_family_ok(self):
        fam = list(subsets_of_size(0b1111, 3))
        assert validate_circuits(fam, 4).ok

    def test_antichain_violation(self):
        report = validate_circuits([mask_of([0, 1]), mask_of([0, 1, 2])], 4)
        assert not report.ok
        assert report.kind == "antichain"

    def test_k43_family_ok(self):
        m = k43()
        assert validate_circuits(m.circuits, 8).ok

    def test_empty_member_rejected(self):
        report = validate_circuits([0], 3)
        assert not report.ok
        assert report.kind == "empty-member"

    def test_elimination_violation_reported(self):
        # {0,1},{1,2} need a circuit inside {0,2} after removing 1; there is none.
        report = validate_circuits([mask_of([0, 1]), mask_of([1, 2])], 3)
        assert not report.ok
        assert report.kind == "elimination"
        c1, c2, e = report.witness
        assert e == 1

    def test_constructor_raises(self):
        with pytest.raises(CircuitAxiomError):
            Matroid(4, [mask_of([0, 1]), mask_of([0, 1, 2])])

    @pytest.mark.parametrize("member, kind", [(0, "empty-member"), (0b1000, "out-of-range")])
    def test_constructor_rejects_a_bad_member(self, member, kind):
        with pytest.raises(CircuitAxiomError) as err:
            Matroid(3, [member])
        assert err.value.report == ValidationReport(False, kind, (member,))

    def test_ground_set_above_the_limit_raises(self):
        with pytest.raises(ValueError, match=r"^ground set size 65 outside \[0, 64\]$"):
            validate_circuits([0b11], 65)


class TestRank:
    def test_uniform_rank(self):
        u24 = uniform_matroid(2, 4)
        assert u24.rank(mask_of([0, 1, 2])) == 2
        assert u24.rank(0) == 0
        assert u24.full_rank == 2

    def test_k43_paper_values(self):
        m = k43()
        assert m.rank(mask_of([0, 1, 6, 7])) == 3  # a circuit-hyperplane
        assert m.full_rank == 4

    def test_rank_matches_bruteforce_exhaustive(self):
        rng = random.Random(7)
        for _ in range(6):
            m = random_base_matroid(rng, max_elems=7)
            for mask in range(1 << m.n):
                assert m.rank(mask) == rank_bruteforce(m, mask)

    def test_rank_memo_is_consistent(self):
        m = k43()
        mask = mask_of([0, 1, 6, 7])
        assert m.rank(mask) == m.rank(mask)

    def test_rank_and_circuits_from_one_query(self):
        m = k43()
        for mask in range(1 << m.n):
            inside = mask_of(k for k, c in enumerate(m.circuits) if c & ~mask == 0)
            assert m.rank_and_circuits(mask) == (m.rank(mask), inside)


class TestClosure:
    def test_rank1_closure(self):
        u13 = uniform_matroid(1, 3)
        assert u13.closure(1) == 0b111

    def test_closure_of_empty_is_loops(self):
        m = Matroid(3, [1, mask_of([1, 2])])  # element 0 is a loop
        assert m.closure(0) == 1

    def test_k43_closure_derived(self):
        assert one_based(k43().closure(mask_of([0, 1, 6]))) == [1, 2, 7, 8]

    def test_closure_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(4):
            m = random_base_matroid(rng, max_elems=7)
            for mask in range(1 << m.n):
                assert m.closure(mask) == closure_bruteforce(m, mask)

    def test_idempotent_extensive_monotone(self):
        m = k43()
        rng = random.Random(3)
        masks = [rng.randrange(1 << m.n) for _ in range(60)]
        for x in masks:
            cx = m.closure(x)
            assert cx & x == x
            assert m.closure(cx) == cx
            for y in masks:
                if x & ~y == 0:
                    assert m.closure(x) & ~m.closure(y) == 0


class TestCircuitsWithin:
    def test_independent_set_has_none(self):
        assert _circuits_within(k43(), mask_of([0, 1, 2])) == []

    def test_u13_all_pairs(self):
        u13 = uniform_matroid(1, 3)
        assert len(_circuits_within(u13, 0b111)) == 3

    def test_k43_c_double_prime(self):
        got = _circuits_within(k43(), mask_of(range(6)))
        # All circuits of the restriction: the two declared 4-element sets
        # plus the two spanning 5-circuits that avoid {7,8}.
        assert sorted(one_based(c) for c in got) == [
            [1, 2, 3, 4],
            [1, 2, 3, 5, 6],
            [1, 2, 4, 5, 6],
            [3, 4, 5, 6],
        ]
        four_element = [c for c in got if c.bit_count() == 4]
        assert sorted(one_based(c) for c in four_element) == [[1, 2, 3, 4], [3, 4, 5, 6]]


class TestMinors:
    def test_contract_uniform(self):
        got = contract(uniform_matroid(2, 4), 1)
        assert got == uniform_matroid(1, 3)

    def test_delete_k43_paper(self):
        got = delete(k43(), mask_of([6, 7]))
        assert got.full_rank == 4
        chs = [c for c in got.circuits if is_circuit_hyperplane(got, c)]
        assert sorted(one_based(c) for c in chs) == [[1, 2, 3, 4], [3, 4, 5, 6]]

    def test_contract_k43_paper(self):
        got = contract(k43(), mask_of([6, 7]))
        assert got.full_rank == 2
        for pair in ([0, 1], [2, 3], [4, 5]):
            assert got.is_circuit(mask_of(pair))

    def test_minors_commute_with_duality(self):
        rng = random.Random(23)
        for _ in range(8):
            m = random_base_matroid(rng, max_elems=7)
            d = rng.randrange(1 << m.n)
            left = dual(delete(m, d))
            right = contract(dual(m), d)
            assert left == right


class TestDual:
    def test_dual_of_uniform(self):
        assert dual(uniform_matroid(2, 4)) == uniform_matroid(2, 4)
        assert dual(uniform_matroid(1, 3)) == uniform_matroid(2, 3)

    def test_dual_involution(self):
        rng = random.Random(5)
        for _ in range(6):
            m = random_base_matroid(rng, max_elems=7)
            assert dual(dual(m)) == m

    def test_dual_circuits_are_hyperplane_complements(self):
        m = k43()
        full = m.full_mask
        expected = sorted(full ^ h for h in hyperplanes(m))
        assert sorted(dual(m).circuits) == expected


class TestQuotient:
    def test_paper_example(self):
        assert is_quotient(uniform_matroid(1, 3), uniform_matroid(2, 3))

    def test_reverse_fails(self):
        assert not is_quotient(uniform_matroid(2, 3), uniform_matroid(1, 3))

    def test_identity(self):
        m = k43()
        assert is_quotient(m, m)

    def test_contract_delete_soundness(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_base_matroid(rng, max_elems=8)
            elems = [e for e in range(m.n)]
            rng.shuffle(elems)
            f = 0
            for e in elems[: rng.randint(0, m.full_rank)]:
                if m.rank(f | 1 << e) > m.rank(f):  # f stays independent
                    f |= 1 << e
            assert is_quotient(contract(m, f), delete(m, f))


class TestIsomorphism:
    def test_identity_map(self):
        m = k43()
        assert find_isomorphism(m, m) == list(range(8))

    def test_k43_vs_relabelled(self):
        m = k43()
        perm = [3, 5, 0, 7, 1, 6, 2, 4]
        relabelled = Matroid(
            8, [mask_of(perm[e - 1] for e in one_based(c)) for c in m.circuits]
        )
        got = find_isomorphism(m, relabelled)
        assert got is not None
        for c in m.circuits:
            image = mask_of(got[e - 1] for e in one_based(c))
            assert relabelled.is_circuit(image)

    def test_different_ranks_absent(self):
        assert find_isomorphism(uniform_matroid(2, 4), uniform_matroid(3, 4)) is None

    def test_same_profile_non_isomorphic(self):
        # K(4,3) vs its relaxation share sizes but differ in CH count.
        m = k43()
        assert find_isomorphism(m, relax(m, mask_of([0, 1, 2, 3]))) is None

    def test_equal_signatures_without_isomorphism(self):
        # The edges of C6 and of two disjoint triangles: every element lies
        # on two edges in both, so only the full search answers None.
        hexagon = [mask_of([i, (i + 1) % 6]) for i in range(6)]
        triangles = [mask_of(e) for e in ([0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5])]
        assert find_family_isomorphism(6, hexagon, triangles) is None

    def test_budget_exceeded_distinct_from_absent(self):
        from matlift.core import SearchBudgetExceeded

        m = k43()
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(m, m, node_budget=3)


def _search_outcome(search, m1: Matroid, m2: Matroid, **budget):
    try:
        return search(m1.n, m1.circuits, m2.circuits, **budget)
    except core.SearchBudgetExceeded as exc:
        return f"budget: {exc}"


def _iso_pairs():
    """The pairs of test_iso_vf2.py: each zoo member against a seeded
    relabelling and against relaxations of up to three circuit-hyperplanes,
    relaxations against each other's relabellings, and the zoo members of
    equal size."""
    members = [m for _, m in zoo() if len(m.circuits) <= 200]
    for name, m in zoo():
        if len(m.circuits) > 200:
            continue
        rng = random.Random(f"vf2:{name}")
        yield m, relabel(m, rng)
        chs = [c for c in m.circuits if is_circuit_hyperplane(m, c)]
        relaxed = [relax(m, h) for h in rng.sample(chs, min(3, len(chs)))]
        yield from ((m, r) for r in relaxed)
        yield from ((r1, relabel(r2, rng)) for r1, r2 in combinations(relaxed, 2))
    for m1, m2 in combinations(members, 2):
        if m1.n == m2.n and len(m1.circuits) == len(m2.circuits):
            yield m1, m2


def test_iso_search_matches_per_direction_reference():
    """One member index per family and one check for both directions: the
    same permutation or None as the search with a loop per direction."""
    for m1, m2 in _iso_pairs():
        got = _search_outcome(core.find_family_isomorphism, m1, m2)
        assert got == _search_outcome(find_family_isomorphism_per_direction, m1, m2)


@pytest.mark.parametrize("seed", range(8))
def test_iso_search_matches_reference_on_relabellings(seed):
    rng = random.Random(seed)
    m = random_sparse_paving(rng)
    m2 = relabel(m, rng)
    got = _search_outcome(core.find_family_isomorphism, m, m2)
    assert got is not None
    assert got == _search_outcome(find_family_isomorphism_per_direction, m, m2)


def test_iso_search_budget_matches_per_direction_reference():
    """The budget runs out at the same node as in the reference: K(4,3)
    against a relabelling backtracks through 83 nodes, and every budget up
    to past that count gives the same outcome."""
    m = k43()
    m2 = relabel(m, random.Random("vf2:K(4,3)"))
    outcomes = []
    for budget in range(1, 100):
        got = _search_outcome(core.find_family_isomorphism, m, m2, node_budget=budget)
        assert got == _search_outcome(find_family_isomorphism_per_direction, m, m2, node_budget=budget)
        outcomes.append(isinstance(got, str))
    assert outcomes.index(False) == 83 - 1


class TestSparsePaving:
    def test_k43(self):
        assert is_sparse_paving(k43())

    def test_uniform(self):
        assert is_sparse_paving(uniform_matroid(2, 4))

    def test_graphic_k4_is_sparse_paving(self):
        # M(K_4): edges 01,02,03,12,13,23 as elements 0..5; circuits are the
        # four triangles and three quadrilaterals.  Triangles are maximal
        # rank-2 sets, hence circuit-hyperplanes, and every other 3-subset is
        # a spanning tree; M(K_4) is sparse paving.
        m_k4 = Matroid(
            6,
            [
                mask_of([0, 1, 3]),
                mask_of([0, 2, 4]),
                mask_of([1, 2, 5]),
                mask_of([3, 4, 5]),
                mask_of([0, 2, 3, 5]),
                mask_of([0, 1, 4, 5]),
                mask_of([1, 2, 3, 4]),
            ],
        )
        assert m_k4.full_rank == 3
        assert is_sparse_paving(m_k4)
        triangle = mask_of([0, 1, 3])
        assert is_circuit_hyperplane(m_k4, triangle)

    def test_two_disjoint_triangles_not_sparse_paving(self):
        # Rank-4 on 6 elements with a 3-circuit: any 4-set over a triangle is
        # dependent without being a circuit.
        bowtie = Matroid(6, [mask_of([0, 1, 2]), mask_of([3, 4, 5])])
        assert bowtie.full_rank == 4
        assert not is_sparse_paving(bowtie)


class TestRelax:
    def test_relax_k43(self):
        m = relax(k43(), mask_of([0, 1, 2, 3]))
        assert m.full_rank == 4 and m.n == 8
        assert len([c for c in m.circuits if is_circuit_hyperplane(m, c)]) == 4
        assert is_sparse_paving(m)

    def test_relax_rejects_basis(self):
        m = k43()
        basis = mask_of([0, 1, 2, 4])
        assert basis.bit_count() == m.full_rank == m.rank(basis)
        with pytest.raises(ValueError):
            relax(m, basis)

    def test_relax_twice(self):
        m = relax(k43(), mask_of([0, 1, 2, 3]))
        again = relax(m, mask_of([2, 3, 4, 5]))
        assert is_sparse_paving(again)
        assert len([c for c in again.circuits if is_circuit_hyperplane(again, c)]) == 3


class TestHyperplanes:
    def test_u23_hyperplanes_are_singletons(self):
        got = hyperplanes(uniform_matroid(2, 3))
        assert sorted(got) == [0b001, 0b010, 0b100]

    def test_validate_u23(self):
        assert validate_hyperplanes([0b001, 0b010, 0b100], 3).ok

    def test_spec_counterexample_family(self):
        report = validate_hyperplanes([mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])], 4)
        assert not report.ok
        assert report.kind == "exchange"
        assert report.witness[2] == 3  # the uncovered element

    def test_roundtrip_u23(self):
        u23 = uniform_matroid(2, 3)
        assert matroid_from_hyperplanes(hyperplanes(u23), 3, 2) == u23

    def test_roundtrip_k43(self):
        m = k43()
        assert matroid_from_hyperplanes(hyperplanes(m), 8, 4) == m

    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(6):
            m = random_base_matroid(rng, max_elems=7)
            if m.full_rank == 0:
                continue
            assert matroid_from_hyperplanes(hyperplanes(m), m.n, m.full_rank) == m

    def test_claimed_rank_mismatch(self):
        u23 = uniform_matroid(2, 3)
        with pytest.raises(ValueError):
            matroid_from_hyperplanes(hyperplanes(u23), 3, 1)

    def test_non_hyperplane_family_raises(self):
        with pytest.raises(HyperplaneAxiomError, match=r"exchange fails at \(\[1\], \[2\]\) with element 3$"):
            matroid_from_hyperplanes([0b001, 0b010], 3, 2)


class TestMinorSearch:
    def test_self_minor(self):
        m = uniform_matroid(2, 4)
        assert has_minor_isomorphic_to(m, m)

    def test_uniform_contraction(self):
        assert has_minor_isomorphic_to(uniform_matroid(2, 4), uniform_matroid(1, 3))

    def test_no_bigger_minor(self):
        assert not has_minor_isomorphic_to(uniform_matroid(1, 3), uniform_matroid(2, 4))


class TestCircuitEnumerator:
    def test_matches_bruteforce_on_zoo(self):
        small = [(name, m) for name, m in zoo() if m.n <= 12]
        assert len(small) == 40
        for name, m in small:
            got = canonical_circuits(circuits_from_rank_oracle(m.rank, m.n))
            want = canonical_circuits(circuits_bruteforce(m.rank, m.n))
            assert got == want == m.circuits, name

    def test_never_ranks_an_r_plus_one_set(self):
        for name, m in zoo():
            if m.n > 12:
                continue
            r = m.full_rank
            queried = []

            def counting_rank(mask: int) -> int:
                queried.append(mask)
                return m.rank(mask)

            assert canonical_circuits(circuits_from_rank_oracle(counting_rank, m.n)) == m.circuits, name
            assert queried[0] == m.full_mask, name
            assert all(q.bit_count() <= r for q in queried[1:]), name

    @staticmethod
    def assert_matches_bruteforce(rank_fn, n: int, label: str) -> None:
        # each circuit once, in the order ``combinations`` gives: by size,
        # then by the sorted tuple of elements
        want = sorted(circuits_bruteforce(rank_fn, n), key=lambda c: (c.bit_count(), elements_of(c)))
        assert circuits_from_rank_oracle(rank_fn, n) == want, label

    def test_matches_bruteforce_in_combinations_order(self):
        for name, m in zoo():
            if m.n <= 12:
                self.assert_matches_bruteforce(m.rank, m.n, name)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_rank_zero_and_free(self, n):
        self.assert_matches_bruteforce(uniform_matroid(0, n).rank, n, f"U(0,{n})")
        self.assert_matches_bruteforce(uniform_matroid(n, n).rank, n, f"U({n},{n})")
        assert circuits_from_rank_oracle(uniform_matroid(0, n).rank, n) == [1 << e for e in range(n)]
        assert circuits_from_rank_oracle(uniform_matroid(n, n).rank, n) == []

    def test_loops_and_parallel_pairs(self):
        from matlift.gf import GfMatrix, column_matroid

        for r in range(1, 5):
            # U(r,5) as Vandermonde columns over GF(7), then a zero column
            # (a loop) and twice column 1 (a parallel pair)
            rows = [[pow(x, i, 7) for x in range(1, 6)] + [0, 2 * pow(1, i, 7)] for i in range(r)]
            a = GfMatrix(7, rows)
            m = column_matroid(a.p, a.columns())
            assert m.is_circuit(1 << 5) and m.is_circuit(1 | 1 << 6), r
            self.assert_matches_bruteforce(m.rank, m.n, f"U({r},5) + loop + parallel")
        m = Matroid(4, [0b1, 0b110])  # a loop beside a parallel pair
        self.assert_matches_bruteforce(m.rank, m.n, "loop and parallel pair")

    def test_seeded_gf_column_matroids(self):
        from matlift.gf import LinearMatroid

        rng = random.Random(101)
        for _ in range(60):
            a = random_gf_matrix(rng, p=rng.choice([2, 3, 5, 7, 251]), max_rows=4, max_cols=9)
            self.assert_matches_bruteforce(lambda mask: gf_rank_bruteforce(a, elements_of(mask)), a.cols, repr(a))
            self.assert_matches_bruteforce(LinearMatroid(a.p, a.columns()).rank, a.cols, repr(a))

    @pytest.mark.parametrize("r,t", [(r, t) for t in (3, 4, 5) for r in range(4, 2 * t - 1)])
    def test_sparse_paving_to_matroid_matches_bruteforce(self, r, t):
        sp = build_krt(KrtSpec(r, t))
        assert sp.n <= 12
        want = canonical_circuits(circuits_bruteforce(sp.rank, sp.n))
        assert sp.to_matroid().circuits == want


class TestRankSweep:
    """``Matroid.rank_sweep`` against the index query and rank oracle it
    replaces, set by set."""

    def test_visits_every_set_once_with_rank_and_circuits(self):
        for name, m in zoo():
            if m.n > 12:
                continue
            seen = set()
            for x, r, inside in m.rank_sweep():
                assert x not in seen, name
                seen.add(x)
                assert inside == m.rank_and_circuits(x)[1], (name, x)
                assert r == m.rank(x), (name, x)
            assert len(seen) == 1 << m.n, name

    def test_against_bruteforce_rank(self):
        rng = random.Random(103)
        for _ in range(20):
            m = random_base_matroid(rng, max_elems=7)
            for x, r, _ in m.rank_sweep():
                assert r == rank_bruteforce(m, x)

    def test_same_order_for_every_matroid_on_n_elements(self):
        for n in range(6):
            orders = {tuple(x for x, _, _ in m.rank_sweep()) for m in (uniform_matroid(r, n) for r in range(n + 1))}
            assert len(orders) == 1

    def test_empty_ground_set(self):
        assert list(Matroid(0, []).rank_sweep()) == [(0, 0, 0)]


def _corruptions(rng: random.Random, m: Matroid) -> list[list[int]]:
    """Seeded broken copies of a circuit family: 1-4 circuits dropped, a
    random nonempty set added, a proper superset of a circuit added."""
    fam = list(m.circuits)
    out = []
    if fam:
        k = rng.randint(1, min(4, len(fam)))
        out.append(rng.sample(fam, len(fam) - k))
    if m.n:
        out.append(fam + [rng.randrange(1, 1 << m.n)])
    grow = [c for c in fam if c != m.full_mask]
    if grow:
        c = rng.choice(grow)
        out.append(fam + [c | 1 << rng.choice([e for e in range(m.n) if not c >> e & 1])])
    return out


class TestCircuitIndexAgainstBruteForce:
    """The bit-parallel circuit index against the scanning oracles of
    ``tests/zoo.py``, report for report and query for query."""

    def test_validate_circuits_on_zoo_and_corruptions(self):
        rng = random.Random(59)
        kinds = set()
        for name, m in zoo():
            families = [list(m.circuits)] + _corruptions(rng, m)
            for fam in families:
                if len(fam) <= 200:
                    got = validate_circuits(fam, m.n)
                    assert got == validate_circuits_bruteforce(fam, m.n), name
                    kinds.add(got.kind)
        assert {"ok", "antichain", "elimination"} <= kinds

    def test_constructor_raises_the_oracle_report(self):
        rng = random.Random(61)
        for name, m in zoo():
            if len(m.circuits) > 200:
                continue
            for fam in _corruptions(rng, m):
                want = validate_circuits_bruteforce(fam, m.n)
                if want.ok:
                    assert Matroid(m.n, fam).circuits == canonical_circuits(fam)
                    continue
                with pytest.raises(CircuitAxiomError) as exc:
                    Matroid(m.n, fam)
                assert exc.value.report == want, name

    def test_validate_hyperplanes_on_zoo_and_corruptions(self):
        rng = random.Random(67)
        for name, m in zoo():
            if m.full_rank == 0 or m.n > 12:
                continue
            hyps = hyperplanes(m)
            families = [hyps, hyps[1:], hyps + [rng.randrange(1 << m.n)]]
            for fam in families:
                if len(fam) <= 250:
                    want = validate_hyperplanes_bruteforce(fam, m.n)
                    assert validate_hyperplanes(fam, m.n) == want, name
                    if want.kind not in ("out-of-range", "improper-member"):
                        assert _certifies({m.full_mask ^ h for h in fam}, m.n) == want.ok, name

    def test_hyperplane_exchange_is_elimination_on_complements(self):
        rng = random.Random(71)
        oks = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            full = (1 << n) - 1
            if rng.random() < 0.4:
                m = random_base_matroid(rng, max_elems=7)
                n, full = m.n, m.full_mask
                fam = hyperplanes(m) if m.full_rank else []
                if fam and rng.random() < 0.5:
                    fam.pop(rng.randrange(len(fam)))
            else:
                fam = [rng.randrange(full + 1) for _ in range(rng.randint(1, 6))]
            got = validate_hyperplanes(fam, n)
            assert got.ok == validate_circuits([full ^ h for h in fam], n).ok, (n, fam)
            assert got == validate_hyperplanes_bruteforce(fam, n)
            oks += got.ok
        assert 20 <= oks <= 280

    def test_queries_match_subset_scan_on_zoo(self):
        rng = random.Random(73)
        for name, m in zoo():
            fresh = Matroid(m.n, m.circuits, validate=False)
            if m.n <= 10:
                members = set(m.circuits)
                assert all(fresh.is_circuit(mask) == (mask in members) for mask in range(1 << m.n)), name
            # is_circuit is total: False off the ground set and for the empty set
            assert not fresh.is_circuit(0) and not fresh.is_circuit(fresh.full_mask << 2 | 0b11), name
            masks = range(1 << m.n) if m.n <= 8 else [rng.getrandbits(m.n) for _ in range(40)]
            for mask in masks:
                inside = [c for c in m.circuits if c & ~mask == 0]
                assert _circuits_within(fresh, mask) == inside, name
                assert fresh.rank_and_circuits(mask)[1] == mask_of(m.circuits.index(c) for c in inside)
                assert fresh.rank(mask) == rank_bruteforce(m, mask), (name, mask)
        assert not Matroid(3, [0b111]).is_circuit(0b11111)

    def test_queries_match_subset_scan_on_k88(self):
        m = build_krt(KrtSpec(8, 8)).to_matroid()
        rng = random.Random(79)
        for _ in range(30):
            mask = mask_of(rng.sample(range(m.n), rng.randint(0, 10)))
            inside = [c for c in m.circuits if c & ~mask == 0]
            assert _circuits_within(m, mask) == inside
            assert m.rank_and_circuits(mask)[1] == mask_of(k for k, c in enumerate(m.circuits) if c & ~mask == 0)
            assert m.rank(mask) == rank_bruteforce(m, mask)

    def test_sparse_paving_matches_rset_walk(self):
        rng = random.Random(83)
        matroids = [m for _, m in zoo()]
        matroids += [uniform_matroid(r, n) for n in range(7) for r in range(n + 1)]
        matroids += [random_sparse_paving(rng, max_elems=9) for _ in range(60)]
        matroids += [random_base_matroid(rng, max_elems=8) for _ in range(120)]
        verdicts = [is_sparse_paving(m) for m in matroids]
        assert verdicts == [is_sparse_paving_bruteforce(m) for m in matroids]
        assert any(verdicts) and not all(verdicts)


def _certifies(fam, n: int) -> bool:
    """The bounded certificate run directly, whatever path the cost rule
    in ``Matroid._axiom_report`` would pick."""
    m = Matroid(n, fam, validate=False)
    return m._certifies(m.circuits, m.full_rank)


def _random_clutter(rng: random.Random) -> tuple[int, list[int]]:
    """Up to 9 random nonempty sets on at most 7 elements, reduced to the
    inclusion-minimal ones; a third of them drawn as unions of small sets so
    that members meet."""
    n = rng.randint(1, 7)
    raw = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 9))}
    if rng.random() < 0.33:
        small = [mask_of(rng.sample(range(n), min(n, 2))) for _ in range(3)]
        raw |= {a | b for a in small for b in small}
    return n, [c for c in raw if not any(d != c and d & ~c == 0 for d in raw)]


# Two non-matroids on {0, 1, 2, 3}.  The removal loop of ``Matroid.rank``
# gives k = 2 for the first and k = 3 for the second.
# - {012, 013} fails elimination only at a union of 4 = k+2 elements and has
#   no member of at most k elements, so only (A), every 3-set holding a
#   member, rejects it: {0, 2, 3} holds none.
# - {01, 12} fails elimination at 1 inside a union of 3 <= k+1 elements, and
#   the one 4-set holds a member, so only (C) rejects it.
LARGE_UNION_FAILURE = [0b0111, 0b1011]
SMALL_UNION_FAILURE = [0b0011, 0b0110]


class TestBoundedCertificate:
    """``Matroid._certifies`` against the scanning oracles of
    ``tests/zoo.py``, verdict for verdict, and ``validate_circuits`` (bounded
    certificate, union pass on failure) report for report."""

    def test_zoo_and_six_corruptions_each(self):
        # The pair-by-pair oracle up to 1,000 members (6.5 s for the 1,662
        # of lift3(S3) and its corruptions), the scanning one up to 200.
        rng = random.Random(97)
        verdicts = set()
        for name, m in zoo():
            for fam in [list(m.circuits)] + _corruptions(rng, m) + _corruptions(rng, m):
                got = validate_circuits(fam, m.n)
                if len(fam) <= 1000:
                    assert got == validate_circuits_pairwise(fam, m.n), name
                if len(fam) <= 200:
                    assert got == validate_circuits_bruteforce(fam, m.n), name
                assert _certifies(fam, m.n) == got.ok, name
                verdicts.add(got.kind)
        assert {"ok", "antichain", "elimination"} <= verdicts

    def test_random_clutters(self):
        rng = random.Random(101)
        oks = 0
        for _ in range(3000):
            n, fam = _random_clutter(rng)
            want = validate_circuits_bruteforce(fam, n)
            assert validate_circuits(fam, n) == want == validate_circuits_pairwise(fam, n), (n, fam)
            assert _certifies(fam, n) == want.ok, (n, fam)
            oks += want.ok
        assert 100 <= oks <= 2900

    @pytest.mark.parametrize("fam, large", [(LARGE_UNION_FAILURE, True), (SMALL_UNION_FAILURE, False)])
    def test_hand_built_non_matroids(self, fam, large):
        n = 4
        want = validate_circuits_bruteforce(fam, n)
        assert not want.ok and validate_circuits(fam, n) == want
        m = Matroid(n, fam, validate=False)
        k = m.full_rank
        a, b, _ = want.witness
        assert ((a | b).bit_count() >= k + 2) == large
        assert not m._certifies(m.circuits, k)


@lru_cache(maxsize=1)
def _bench_families() -> tuple[tuple[str, Matroid], ...]:
    """The families the benchmark's ``construct`` jobs validate, at their
    sizes: 870, 459, 596 and 438 circuits."""
    kept = dict(zoo())
    return (
        ("K(5,5)", kept["K(5,5)"]),
        ("K(7,5)", kept["K(7,5)"]),
        ("M(K_3^{Z2^3})", graphic_matroid(GainGraph(builtin_group("z2^3"), 3))),
        ("rank-1 overlay", rank_one_overlay(33, (4, 17, 29))),
    )


class TestUnionPassAtBenchSizes:
    """``validate_circuits`` (one ``within`` query per distinct union of a
    row) against the pair-by-pair pass of ``tests/zoo.py``, whole report
    for whole report."""

    def test_reports_match_pairwise_on_families_and_corruptions(self):
        rng = random.Random(89)
        kinds = set()
        for name, m in _bench_families():
            for fam in [list(m.circuits)] + _corruptions(rng, m):
                got = validate_circuits(fam, m.n)
                assert got == validate_circuits_pairwise(fam, m.n), name
                kinds.add(got.kind)
        assert {"ok", "antichain", "elimination"} <= kinds

    def test_union_equal_to_a_third_member(self):
        for name, m in _bench_families():
            c1, c2 = next((a, b) for a, b in combinations(m.circuits, 2) if a & b)
            fam = list(m.circuits) + [c1 | c2]
            got = validate_circuits(fam, m.n)
            assert got == validate_circuits_pairwise(fam, m.n), name
            assert got.kind == "antichain" and got.witness[1] == c1 | c2, name

    @pytest.mark.parametrize("name, drop", [("K(5,5)", 1), ("K(7,5)", 1), ("M(K_3^{Z2^3})", 84)])
    def test_row_with_antichain_pair_before_elimination_pair(self, name, drop):
        m = dict(_bench_families())[name]
        fam = list(m.circuits)
        del fam[drop]
        elim = validate_circuits(fam, m.n)
        assert elim == validate_circuits_pairwise(fam, m.n) and elim.kind == "elimination"
        ck, cj = elim.witness[:2]
        # A superset of C_k sorting before C_j puts an antichain pair
        # earlier in the same row.
        s = next(
            ck | 1 << x
            for x in range(m.n)
            if not ck >> x & 1 and (ck.bit_count() + 1, ck | 1 << x) < (cj.bit_count(), cj)
        )
        got = validate_circuits(fam + [s], m.n)
        assert got == validate_circuits_pairwise(fam + [s], m.n)
        assert got == ValidationReport(False, "antichain", (ck, s))

    def test_within_queries_once_per_distinct_union(self, monkeypatch):
        calls = 0
        within = core.Matroid._within

        def counted(self, mask):
            nonlocal calls
            calls += 1
            return within(self, mask)

        monkeypatch.setattr(core.Matroid, "_within", counted)
        m = dict(zoo())["K(5,5)"]
        assert validate_circuits(m.circuits, m.n).ok
        assert 0 < calls <= 46_000  # 377,557 pairs of meeting circuits
        # The valid family takes the bounded certificate; the union pass
        # alone keeps the same bound.
        calls = 0
        assert Matroid(m.n, m.circuits, validate=False)._first_violation(m.circuits).ok
        assert 0 < calls <= 46_000
        # The first violation lies in row 370 of 869; only that row is
        # walked pair by pair.
        fam = list(m.circuits)
        del fam[842]
        calls = 0
        report = validate_circuits(fam, m.n)
        assert report.kind == "elimination" and canonical_circuits(fam).index(report.witness[0]) == 370
        assert calls <= 46_000


class TestSparsePavingConstruction:
    def test_rejects_what_the_rset_walk_rejects(self):
        # Random families of r-sets, some with members sharing r-1
        # elements: construction succeeds exactly when the family plus every
        # (r+1)-set containing none of its members is a valid circuit family
        # of rank r passing the r-set walk.
        rng = random.Random(97)
        verdicts = []
        for _ in range(300):
            n = rng.randint(3, 9)
            r = rng.randint(1, n - 1)
            r_sets = list(subsets_of_size((1 << n) - 1, r))
            fam = rng.sample(r_sets, rng.randint(1, min(6, len(r_sets))))
            m = sparse_paving_from(n, r, fam, validate=False)
            ok = validate_circuits(m.circuits, n).ok and m.full_rank == r and is_sparse_paving_bruteforce(m)
            try:
                SparsePaving(n, r, fam)
                built = True
            except ValueError:
                built = False
            assert built == ok, (n, r, fam)
            verdicts.append(ok)
        assert any(verdicts) and not all(verdicts)

    def test_ground_size_limit(self):
        assert SparsePaving(64, 2, [0b11]).full_rank == 2
        with pytest.raises(ValueError, match="ground set size 65"):
            SparsePaving(65, 2, [])

    @pytest.mark.parametrize(
        "n,r,fam",
        [(4, 2, [0b111]), (4, 2, [0b110000]), (3, 0, [0]), (3, 3, [0b111]), (4, 5, [])],
    )
    def test_rejects_malformed_members(self, n, r, fam):
        with pytest.raises(ValueError):
            SparsePaving(n, r, fam)


class TestRankEdgeCases:
    def test_empty_ground_set(self):
        m = Matroid(0, [])
        assert m.rank(0) == 0 and m.full_rank == 0
        assert _circuits_within(m, 0) == [] and m.rank_and_circuits(0)[1] == 0

    def test_all_loops(self):
        for n in range(1, 6):
            explicit = Matroid(n, [1 << e for e in range(n)])
            assert explicit == uniform_matroid(0, n)
            for mask in range(1 << n):
                assert explicit.rank(mask) == 0
                assert bool(explicit.rank_and_circuits(mask)[1]) == (mask != 0)
            assert explicit.closure(0) == explicit.full_mask

    def test_parallel_classes(self):
        # Classes {0,1,2}, {3,4}, {5} plus the loop 6: the rank of a set is
        # the number of classes it meets.
        classes = [mask_of([0, 1, 2]), mask_of([3, 4]), mask_of([5])]
        fam = [mask_of(p) for cls in classes for p in combinations(elements_of(cls), 2)] + [1 << 6]
        m = Matroid(7, fam)
        assert m.parallel_classes() == classes
        for mask in range(1 << 7):
            assert m.rank(mask) == sum(1 for cls in classes if mask & cls)
            assert m.rank(mask) == rank_bruteforce(m, mask)

    def test_past_the_memo_cap(self, monkeypatch):
        # the one rank memo is the overlay's, in LiftSpec; a Matroid as the
        # overlay on the n loops of U(0, n), whose circuit i is {i}
        monkeypatch.setattr(lifts, "RANK_CACHE_LIMIT", 5)
        rng = random.Random(89)
        for _ in range(4):
            m = random_base_matroid(rng, max_elems=7)
            spec = LiftSpec(uniform_matroid(0, m.n), m)
            for _ in range(2):
                for mask in range(1 << m.n):
                    assert spec.overlay_rank(mask) == rank_bruteforce(m, mask)
            # one key per set of parallel classes, up to the cap
            assert len(spec._memo) == min(5, 1 << len(m.parallel_classes()))


class TestDegenerateGrounds:
    def test_empty_matroid(self):
        m = Matroid(0, [])
        assert m.full_rank == 0 and m.circuits == ()
        assert dual(m) == m

    def test_all_loops(self):
        m = uniform_matroid(0, 3)
        assert m.full_rank == 0
        assert m.closure(0) == 0b111
        assert is_sparse_paving(m)

    def test_single_element(self):
        free = Matroid(1, [])
        assert free.full_rank == 1
        loop = Matroid(1, [1])
        assert loop.full_rank == 0
        assert dual(free) == loop


def test_rank_cache_safe_under_concurrent_use():
    # The overlay memo of a LiftSpec is a dict with idempotent inserts, so
    # threads that miss one key at once store the same rank.  Hammer one
    # spec from more threads than cores, switching often, each walking every
    # mask from its own offset, and check every answer and stored rank.
    import sys
    import threading

    m = build_krt(KrtSpec(5, 4)).to_matroid()
    spec = LiftSpec(uniform_matroid(0, m.n), m)
    masks = [random.Random(s).getrandbits(m.n) for s in range(200)]
    expected = {x: rank_bruteforce(m, x) for x in masks[:40]}
    errors: list[str] = []

    def worker(offset: int) -> None:
        for x in masks[offset:] + masks[:offset]:
            got = spec.overlay_rank(x)
            want = expected.get(x)
            if want is not None and got != want:
                errors.append(f"rank({x}) = {got}, expected {want}")

    threads = [threading.Thread(target=worker, args=(50 * k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert spec._memo and all(r == m.rank(x) for x, r in spec._memo.items())
    for x, want in expected.items():
        assert spec.overlay_rank(x) == want


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_rank_submodular_on_k43(x: int, y: int):
    m = k43()
    assert m.rank(x | y) + m.rank(x & y) <= m.rank(x) + m.rank(y)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_closure_idempotent_on_k43(x: int):
    m = k43()
    assert m.closure(m.closure(x)) == m.closure(x)
