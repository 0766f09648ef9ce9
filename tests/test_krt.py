"""The K(r,t) family: construction values, sparse paving certification, the
obstruction facts, Ingleton criteria, Vamos-likeness, and the antichain."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from matlift.core import (
    Matroid,
    SparsePaving,
    find_isomorphism,
    is_sparse_paving,
    mask_of,
    one_based,
    uniform_matroid,
    validate_circuits,
)
from matlift.krt import (
    FactWitness,
    KrtSpec,
    ObstructionReport,
    antichain_check,
    build_krt,
    ingleton_inequality,
    is_ingleton_sparse_paving,
    obstruction_report,
    scan_vamos_like_minors,
)
from zoo import (
    antichain_bruteforce,
    contract,
    delete,
    ingleton_bruteforce,
    is_circuit_hyperplane,
    pairings_bruteforce,
    random_circuit_hyperplanes,
    random_sparse_paving,
    relax,
    sparse_paving_from,
    vamos_scan_bruteforce,
)

# every in-range (r, t) with ground set 2t+2 <= 14
ALL_DESK_SPECS = [
    (r, t)
    for t in range(3, 7)
    for r in range(4, 2 * t - 1)
]


class TestSpec:
    def test_rejects_out_of_range(self):
        for r, t in [(3, 3), (4, 2), (5, 3), (7, 4), (9, 5)]:
            with pytest.raises(ValueError):
                KrtSpec(r, t)

    def test_refuses_oversize_ground_set_before_listing_blocks(self):
        # K(4, 10^9) would list 2*10^9 - 1 circuit-hyperplanes; its 2t+2
        # elements are refused by size alone.
        with pytest.raises(ValueError, match=r"^ground set size 2000000002 outside \[0, 64\]$"):
            KrtSpec(4, 10**9)
        assert KrtSpec(4, 31).ground_size == 64

    def test_blocks_43(self):
        s = KrtSpec(4, 3)
        assert [one_based(b) for b in s.blocks] == [[1, 2], [3, 4], [5, 6]]
        assert one_based(s.x_mask) == [7, 8]

    def test_blocks_wrap_modulo(self):
        s = KrtSpec(5, 4)
        assert one_based(s.block(4)) == [1, 7, 8]  # {7, 8, 9 mod 8 -> 1}

    def test_regimes(self):
        assert not KrtSpec(4, 3).in_ingleton_regime
        assert KrtSpec(5, 4).in_ingleton_regime
        assert KrtSpec(6, 4).in_antichain_regime is False
        assert KrtSpec(5, 4).in_antichain_regime


class TestBuild:
    def test_k43_circuit_hyperplanes_paper_values(self):
        s = KrtSpec(4, 3)
        got = sorted(one_based(c) for c in s.circuit_hyperplanes)
        assert got == [[1, 2, 3, 4], [1, 2, 7, 8], [3, 4, 5, 6], [3, 4, 7, 8], [5, 6, 7, 8]]

    def test_k43_is_vamos(self):
        # V_8 by its published circuit-hyperplanes
        v8_chs = [
            mask_of([0, 1, 6, 7]),
            mask_of([2, 3, 6, 7]),
            mask_of([4, 5, 6, 7]),
            mask_of([0, 1, 2, 3]),
            mask_of([2, 3, 4, 5]),
        ]
        full = (1 << 8) - 1
        from matlift.core import subsets_of_size

        fives = [m for m in subsets_of_size(full, 5) if not any(ch & ~m == 0 for ch in v8_chs)]
        v8 = Matroid(8, v8_chs + fives)
        assert find_isomorphism(build_krt(KrtSpec(4, 3)).to_matroid(), v8) is not None

    def test_k54_counts(self):
        s = KrtSpec(5, 4)
        assert len(s.c_prime) == 4 and len(s.c_double_prime) == 3
        m = build_krt(s).to_matroid()
        assert m.n == 10 and m.full_rank == 5
        assert sum(1 for c in m.circuits if is_circuit_hyperplane(m, c)) == 7

    @pytest.mark.parametrize("r,t", ALL_DESK_SPECS)
    def test_construction_valid_and_sparse_paving(self, r, t):
        spec = KrtSpec(r, t)
        m = build_krt(spec)
        assert m.full_rank == r
        assert m.n == 2 * t + 2
        assert is_sparse_paving(m.to_matroid())
        # The sparse paving certificate: no two declared circuit-hyperplanes
        # meet in r-1 elements.
        assert all((a & b).bit_count() <= r - 2 for a, b in combinations(m.circuit_hyperplanes, 2))

    @pytest.mark.parametrize("r,t", [(4, 3), (5, 4), (6, 4), (5, 5), (6, 5), (7, 5)])
    def test_full_circuit_axioms(self, r, t):
        m = build_krt(KrtSpec(r, t)).to_matroid()
        assert validate_circuits(m.circuits, m.n).ok

    @pytest.mark.parametrize("r,t", ALL_DESK_SPECS)
    def test_every_ch_has_r_elements_and_rank_r_minus_1(self, r, t):
        m = build_krt(KrtSpec(r, t)).to_matroid()
        chs = [c for c in m.circuits if is_circuit_hyperplane(m, c)]
        assert len(chs) == 2 * t - 1
        for c in chs:
            assert c.bit_count() == r
            assert m.rank(c) == r - 1


class TestObstruction:
    @pytest.mark.parametrize("r,t", [(4, 3), (5, 4), (6, 4), (5, 5), (6, 5), (7, 5)])
    def test_facts_all_true(self, r, t):
        spec = KrtSpec(r, t)
        rep = obstruction_report(spec, build_krt(spec))
        assert rep.fact_a and rep.fact_b and rep.fact_c and rep.fact_d

    def test_witness_values_43(self):
        spec = KrtSpec(4, 3)
        rep = obstruction_report(spec, build_krt(spec))
        for w in rep.consecutive:
            assert w.union_size == 4 and w.rank_in_quotient == 2 and w.rank_in_deletion == 3
        assert rep.wraparound.rank_in_deletion == 4
        assert rep.wraparound.rank_in_quotient == 2

    def test_no_random_overlay_reproduces_the_deletion(self):
        # The facts rule out any overlay N with M^N = L; probe the claim
        # with a few hundred random overlays that do satisfy (*').
        from matlift.core import uniform_matroid
        from matlift.gf import GfMatrix, column_matroid
        from matlift.lifts import LiftSpec, build_lift, check_star_prime

        spec = KrtSpec(4, 3)
        k = build_krt(spec).to_matroid()
        m = contract(k, spec.x_mask)
        l = delete(k, spec.x_mask)
        count = len(m.circuits)
        rng = random.Random(1)
        tried = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.3:
                overlay = uniform_matroid(2, count)
            elif roll < 0.6:
                rows = rng.randint(1, 2)
                a = GfMatrix(3, [[rng.randrange(3) for _ in range(count)] for _ in range(rows)])
                overlay = column_matroid(a.p, a.columns())
            else:
                overlay = uniform_matroid(rng.randint(0, 2), count)
            s = LiftSpec(m, overlay)
            if not check_star_prime(s)[0]:
                continue
            tried += 1
            assert build_lift(s) != l
        assert tried > 50

    def test_facts_witness_ranks_match_theory(self):
        # r_M(C_i | C_{i+1}) = r - 2 and r_L = r - 1 on consecutive unions
        for r, t in [(5, 4), (6, 5)]:
            spec = KrtSpec(r, t)
            rep = obstruction_report(spec, build_krt(spec))
            for w in rep.consecutive:
                assert w.union_size == r
                assert w.rank_in_quotient == r - 2
                assert w.rank_in_deletion == r - 1
            assert rep.wraparound.rank_in_deletion - rep.wraparound.rank_in_quotient == 2

    @pytest.mark.parametrize("r,t", ALL_DESK_SPECS)
    def test_rank_oracle_matches_materialized_minors(self, r, t):
        spec = KrtSpec(r, t)
        k = build_krt(spec)
        assert obstruction_report(spec, k) == _materialized_report(spec, k.to_matroid())

    def test_rank_oracle_matches_materialized_minors_relaxed(self):
        # Relaxing C_i | X makes C_i independent in K/X, so facts a and b
        # fail on the block-circuit test alone; relaxing C_i | C_{i+1}
        # breaks fact c.
        spec = KrtSpec(4, 3)
        k = build_krt(spec).to_matroid()
        reports = []
        for ch in spec.circuit_hyperplanes:
            relaxed = relax(k, ch)
            rep = obstruction_report(spec, relaxed)
            assert rep == _materialized_report(spec, relaxed)
            assert all(w.modular_defect == 2 for w in (*rep.consecutive, rep.wraparound))
            reports.append(rep)
        assert sum(not rep.fact_a and not rep.fact_b for rep in reports) == 3
        assert sum(not rep.fact_c for rep in reports) == 2


def _materialized_report(spec: KrtSpec, k: Matroid) -> ObstructionReport:
    """Facts (a)-(d) read from K/X and K\\X built as circuit families."""
    m = contract(k, spec.x_mask)
    l = delete(k, spec.x_mask)
    blocks = spec.blocks

    def witness(i, j):
        union = blocks[i - 1] | blocks[j - 1]
        return FactWitness((i, j), union, union.bit_count(), m.rank(union), l.rank(union))

    consecutive = tuple(witness(i, i + 1) for i in range(1, spec.t))
    wrap = witness(1, spec.t)
    circuits_ok = all(m.is_circuit(b) for b in blocks)
    return ObstructionReport(
        spec,
        circuits_ok and all(w.modular_defect == 2 for w in consecutive),
        circuits_ok and wrap.modular_defect == 2,
        all(w.rank_gap == 1 for w in consecutive),
        wrap.rank_gap == 2,
        consecutive,
        wrap,
    )


class TestIngleton:
    def test_trivial_quadruple(self):
        m = uniform_matroid(2, 4)
        sat, lhs, rhs = ingleton_inequality(m, 0, 0, 0, 0)
        assert sat and lhs == 0 and rhs == 0

    def test_k43_violation_orientation(self):
        m = build_krt(KrtSpec(4, 3))
        pairs = [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]), mask_of([6, 7])]
        # In the order printed by the spec the inequality holds ...
        sat, lhs, rhs = ingleton_inequality(m, *pairs)
        assert sat and (lhs, rhs) == (16, 15)
        # ... and the violating role order puts the independent pair union
        # in the C, D slots.
        sat, lhs, rhs = ingleton_inequality(
            m, mask_of([2, 3]), mask_of([6, 7]), mask_of([0, 1]), mask_of([4, 5])
        )
        assert not sat and (lhs, rhs) == (15, 16)

    def test_representable_matroids_satisfy_ingleton(self):
        from zoo import random_gf_matrix
        from matlift.gf import column_matroid

        rng = random.Random(101)
        checked = 0
        while checked < 500:
            a = random_gf_matrix(rng, max_rows=4, max_cols=8)
            m = column_matroid(a.p, a.columns())
            quad = [rng.randrange(1 << m.n) for _ in range(4)]
            sat, _, _ = ingleton_inequality(m, *quad)
            assert sat
            checked += 1

    def test_criterion_k43_false_with_pair_witness(self):
        m = build_krt(KrtSpec(4, 3))
        ok, witness = is_ingleton_sparse_paving(m)
        assert not ok
        assert witness is not None
        assert witness.core == 0
        assert sorted(witness.pairs) == sorted(
            [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]), mask_of([6, 7])]
        )
        a, b, c, d = witness.pairs
        sat, lhs, rhs = ingleton_inequality(m, a, b, c, d)
        assert not sat and lhs < rhs

    @pytest.mark.parametrize("r,t,expected", [(5, 4, True), (5, 5, True), (4, 3, False), (6, 4, False)])
    def test_criterion_values(self, r, t, expected):
        ok, _ = is_ingleton_sparse_paving(build_krt(KrtSpec(r, t)))
        assert ok is expected

    def test_criterion_agrees_with_quadruple_exhaustion_rank4(self):
        # On 8-element rank-4 sparse paving matroids, Ingleton can only fail
        # on quadruples of disjoint pairs; enumerate all pair partitions in
        # all role orders and compare with the criterion.
        chs = set(KrtSpec(4, 3).circuit_hyperplanes)
        instances = [
            build_krt(KrtSpec(4, 3)),
            SparsePaving(8, 4, chs - {mask_of([0, 1, 2, 3])}),
            SparsePaving(8, 4, []),
        ]
        for m in instances:
            criterion_ok, _ = is_ingleton_sparse_paving(m)
            violated = False
            for part in pairings_bruteforce(list(range(8))):
                for order in permutations(part):
                    sat, _, _ = ingleton_inequality(m, *order)
                    if not sat:
                        violated = True
            assert criterion_ok == (not violated)


class TestVamosLike:
    def test_k43_partition(self):
        (got,) = scan_vamos_like_minors(build_krt(KrtSpec(4, 3)))
        assert [one_based(p) for p in got.partition] == [[1, 2], [3, 4], [5, 6], [7, 8]]

    def test_u48_absent(self):
        assert scan_vamos_like_minors(SparsePaving(8, 4, [])) == []

    def test_relaxation_absent(self):
        chs = set(KrtSpec(4, 3).circuit_hyperplanes)
        assert scan_vamos_like_minors(SparsePaving(8, 4, chs - {mask_of([2, 3, 4, 5])})) == []

    def test_scan_k54_empty(self):
        assert scan_vamos_like_minors(build_krt(KrtSpec(5, 4))) == []

    def test_scan_k43_contains_itself(self):
        witnesses = scan_vamos_like_minors(build_krt(KrtSpec(4, 3)))
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.contracted == 0 and w.deleted == 0

    def test_scan_k64_computed_value(self):
        # r = 6 violates the r <= 2t-3 guarantee; the computed outcome is a
        # genuine Vamos-like minor (contract one block pair).
        witnesses = scan_vamos_like_minors(build_krt(KrtSpec(6, 4)))
        assert len(witnesses) >= 1
        assert any(w.contracted == mask_of([4, 5]) for w in witnesses)

    @pytest.mark.parametrize("r,t", [(5, 5), (6, 5), (7, 5), (5, 8)])
    def test_scan_empty_in_guarantee_regime(self, r, t):
        assert KrtSpec(r, t).in_antichain_regime and r >= 5
        assert scan_vamos_like_minors(build_krt(KrtSpec(r, t))) == []

    def test_below_rank_four_no_configuration(self):
        # A configuration's core has r - 4 elements, so the Fano plane, as
        # the sparse paving matroid of its lines, holds none.
        lines = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
        f7 = SparsePaving(7, 3, map(mask_of, lines))
        assert is_ingleton_sparse_paving(f7) == (True, None)
        assert scan_vamos_like_minors(f7) == []


def _assert_matches_bruteforce(n: int, r: int, chs: list) -> tuple[bool, bool]:
    """The structural searches on the ``SparsePaving`` with these
    circuit-hyperplanes agree with the brute-force ones on the circuit
    family built by ``sparse_paving_from``, witness and order included;
    returns (is Ingleton, has a Vamos-like minor)."""
    sp = SparsePaving(n, r, chs)
    m = sparse_paving_from(n, r, chs, validate=False)
    ok, witness = is_ingleton_sparse_paving(sp)
    ok_bf, witness_bf = ingleton_bruteforce(m)
    assert ok == ok_bf
    assert (witness and witness.as_dict()) == (witness_bf and witness_bf.as_dict())
    minors = [w.as_dict() for w in scan_vamos_like_minors(sp)]
    assert minors == [w.as_dict() for w in vamos_scan_bruteforce(m)]
    return ok, bool(minors)


# every in-range (r, t) with ground set 2t+2 <= 12
ORACLE_SPECS = [(r, t) for t in range(3, 6) for r in range(4, 2 * t - 1)]


class TestStructuralScansAgainstBruteForce:
    @pytest.mark.parametrize("r,t", ORACLE_SPECS)
    def test_krt(self, r, t):
        ok, vamos = _assert_matches_bruteforce(2 * t + 2, r, KrtSpec(r, t).circuit_hyperplanes)
        # K(4,t) and the r = 2t-2 edge lie outside both guarantee regimes.
        assert ok == (not vamos) == KrtSpec(r, t).in_ingleton_regime

    @pytest.mark.parametrize("r,t", [(r, t) for r, t in ORACLE_SPECS if t <= 4])
    def test_relaxations(self, r, t):
        # Relaxing a circuit-hyperplane of a sparse paving matroid leaves the
        # sparse paving matroid of the other circuit-hyperplanes.
        chs = KrtSpec(r, t).circuit_hyperplanes
        outcomes = {
            _assert_matches_bruteforce(2 * t + 2, r, [c for c in chs if c != ch])
            for ch in chs
        }
        # Every relaxation of K(4,3) and K(5,4) is Ingleton; those of K(4,4)
        # and K(6,4) take both outcomes.
        assert len(outcomes) == (1 if (r, t) in [(4, 3), (5, 4)] else 2)

    def test_random_sparse_paving(self):
        # Half of the instances start from a planted Vamos configuration
        # (core I, pairs P1..P4, the five unions I|Pi|Pj other than I|P3|P4),
        # which the random circuit-hyperplanes added after it may break.
        rng = random.Random(4)
        outcomes = []
        for _ in range(20):
            n = rng.randint(8, 11)
            r = rng.randint(4, n - 4)
            elems = rng.sample(range(n), r + 4)
            core, pairs = mask_of(elems[8:]), [mask_of(elems[k : k + 2]) for k in range(0, 8, 2)]
            planted = [core | pairs[i] | pairs[j] for i, j in combinations(range(4), 2) if (i, j) != (2, 3)]
            chs = random_circuit_hyperplanes(rng, n, r, (10, 60), planted if rng.random() < 0.5 else [])
            outcomes.append(_assert_matches_bruteforce(n, r, chs))
        assert {(True, False), (False, True)} <= set(outcomes)


    def test_two_cores_in_both_orders(self):
        # Vamos configurations at the cores {1,4} and {2,3} (1-based): the
        # scan lists {1,4} first (combinations order), while the Ingleton
        # witness sits at {2,3}, the smaller mask.
        pairs = [mask_of([4 + 2 * k, 5 + 2 * k]) for k in range(4)]
        chs = [
            core | pairs[i] | pairs[j]
            for core in (mask_of([0, 3]), mask_of([1, 2]))
            for i, j in combinations(range(4), 2)
            if (i, j) != (2, 3)
        ]
        assert _assert_matches_bruteforce(12, 6, chs) == (False, True)
        assert [w.contracted for w in scan_vamos_like_minors(SparsePaving(12, 6, chs))] == [0b1001, 0b0110]
        assert is_ingleton_sparse_paving(SparsePaving(12, 6, chs))[1].core == 0b0110


    def test_two_pairings_keep_the_first_in_matching_order(self):
        # An 8-element support with two five-of-six pairings: both searches
        # report the first one in matching order, 13|24|58|67, whichever
        # pairing the configuration search meets first.
        chs = [mask_of(int(c) - 1 for c in q) for q in "1234 2357 1367 1358 2458 1468 3478 5678".split()]
        quads = set(chs)
        pairings = [
            [one_based(p) for p in pairs]
            for pairs in pairings_bruteforce(list(range(8)))
            if sum(pairs[i] | pairs[j] not in quads for i, j in combinations(range(4), 2)) == 1
        ]
        assert pairings == [[[1, 3], [2, 4], [5, 8], [6, 7]], [[1, 6], [2, 5], [3, 7], [4, 8]]]
        assert _assert_matches_bruteforce(8, 4, chs) == (False, True)
        sp = SparsePaving(8, 4, chs)
        assert is_ingleton_sparse_paving(sp)[1].as_dict()["pairs"] == [[1, 3], [5, 8], [2, 4], [6, 7]]
        assert [w.as_dict()["partition"] for w in scan_vamos_like_minors(sp)] == [[[1, 3], [2, 4], [6, 7], [5, 8]]]


class TestAntichain:
    def test_paper_pair(self):
        assert antichain_check(KrtSpec(7, 5), KrtSpec(5, 4))

    def test_equal_specs_proper(self):
        assert antichain_check(KrtSpec(5, 4), KrtSpec(5, 4))

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            antichain_check(KrtSpec(6, 4), KrtSpec(5, 4))

    # in-regime pairs with n <= 12
    @pytest.mark.parametrize(
        "big,small",
        [
            ((7, 5), (5, 4)),
            ((5, 4), (5, 4)),
            ((5, 5), (5, 4)),
            ((6, 5), (5, 4)),
            ((4, 5), (4, 4)),
            ((5, 5), (4, 4)),
            ((6, 5), (4, 4)),
            ((7, 5), (4, 4)),
        ],
    )
    def test_matches_minor_bruteforce(self, big, small):
        big, small = KrtSpec(*big), KrtSpec(*small)
        assert antichain_check(big, small) == antichain_bruteforce(big, small)


def _probe_masks(rng: random.Random, sp: SparsePaving) -> list:
    """Every mask for n <= 10; above that the circuit-hyperplanes, their
    one-element deletions and extensions, and random masks of r-1 to r+1
    elements."""
    if sp.n <= 10:
        return list(range(1 << sp.n))
    masks = [0, sp.full_mask]
    for h in sp.circuit_hyperplanes:
        masks.append(h)
        masks += [h ^ (1 << e) for e in range(sp.n)]
    masks += [mask_of(rng.sample(range(sp.n), rng.randint(sp.r - 1, sp.r + 1))) for _ in range(100)]
    return masks


def _assert_oracle_agrees(sp: SparsePaving, m: Matroid, rng: random.Random) -> None:
    assert (sp.n, sp.full_rank) == (m.n, m.full_rank)
    for mask in _probe_masks(rng, sp):
        assert sp.rank(mask) == m.rank(mask), mask


# every in-range (r, t) with ground set 2t+2 <= 16
ORACLE_DIFF_SPECS = [(r, t) for t in range(3, 8) for r in range(4, 2 * t - 1)]


class TestSparsePavingAgainstCircuitFamily:
    """``SparsePaving.rank`` against ``Matroid.rank`` of the
    circuit family that ``sparse_paving_from`` builds by its own subset loop."""

    @pytest.mark.parametrize("r,t", ORACLE_DIFF_SPECS)
    def test_krt(self, r, t):
        sp = build_krt(KrtSpec(r, t))
        m = sparse_paving_from(sp.n, r, list(sp.circuit_hyperplanes), validate=False)
        assert sp.to_matroid() == m
        _assert_oracle_agrees(sp, m, random.Random(r * 100 + t))

    @pytest.mark.parametrize("r,t", ORACLE_DIFF_SPECS)
    def test_relaxations(self, r, t):
        chs = KrtSpec(r, t).circuit_hyperplanes
        rng = random.Random(r * 100 + t)
        for ch in chs:
            rest = [c for c in chs if c != ch]
            _assert_oracle_agrees(
                SparsePaving(2 * t + 2, r, rest), sparse_paving_from(2 * t + 2, r, rest, validate=False), rng
            )

    def test_random_sparse_paving(self):
        from zoo import zoo

        rng = random.Random(29)
        matroids = [m for name, m in zoo() if name.startswith("random sparse paving")]
        matroids += [random_sparse_paving(rng, max_elems=10) for _ in range(40)]
        for m in matroids:
            chs = [c for c in m.circuits if is_circuit_hyperplane(m, c)]
            sp = SparsePaving(m.n, m.full_rank, chs)
            _assert_oracle_agrees(sp, m, rng)
