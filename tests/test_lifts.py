"""Lift machinery: modular pairs, perfect collections, linear classes, the
elementary lift, the star conditions and their equivalence, and M^N."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from matlift.core import Matroid, RankMatroid, elements_of, mask_of, uniform_matroid
from matlift.gf import GfMatrix, LinearMatroid, column_matroid
from matlift.io import emit_matroid_text, parse_lift, parse_lift_text
from matlift.krt import KrtSpec, build_krt
from matlift.lifts import (
    ClassOverlay,
    LiftConditionError,
    LiftSpec,
    StarWitness,
    build_lift,
    check_star,
    check_star_prime,
    elementary_lift,
    evaluate_lift_formula,
    is_linear_class,
    is_modular_pair,
    is_perfect,
    MAX_SWEEP_GROUND,
    lift_ranks,
    require_sweepable,
)

from zoo import (
    check_star_per_member,
    check_star_rebuild,
    check_star_prime_per_member,
    contract,
    flats,
    is_quotient,
    lift_agrees_with_elementary,
    linear_class_closure,
    random_base_matroid,
    random_linear_class,
    random_overlay,
    random_witness_instance,
    perfect_rebuild,
    gf_rank_bruteforce,
    parallel_classes_bruteforce,
    random_gf_matrix,
    random_gf_matrix_with_parallels,
    rank_bruteforce,
    rank_one_overlay,
    rep_witness_specs,
    zoo,
)


class TestModularPair:
    def test_k43_contraction_blocks(self):
        m = contract(build_krt(KrtSpec(4, 3)).to_matroid(), mask_of([6, 7]))
        assert is_modular_pair(m, mask_of([0, 1]), mask_of([2, 3]))

    def test_u14_disjoint_pair_not_modular(self):
        u14 = uniform_matroid(1, 4)
        assert not is_modular_pair(u14, mask_of([0, 1]), mask_of([2, 3]))

    def test_u13_overlapping_pair(self):
        u13 = uniform_matroid(1, 3)
        assert is_modular_pair(u13, mask_of([0, 1]), mask_of([0, 2]))

    def test_rejects_non_circuits(self):
        u13 = uniform_matroid(1, 3)
        with pytest.raises(ValueError):
            is_modular_pair(u13, mask_of([0]), mask_of([0, 1]))
        with pytest.raises(ValueError, match="^modular pair arguments must be circuits$"):
            is_modular_pair(Matroid(3, [0b111]), 0b11111, 0b111)

    def test_union_nullity_at_least_two(self):
        # For distinct circuits the union always has nullity >= 2, so the
        # modular case is the minimum.
        rng = random.Random(2)
        for _ in range(10):
            m = random_base_matroid(rng)
            for c1, c2 in combinations(m.circuits, 2):
                union = c1 | c2
                assert union.bit_count() - m.rank(union) >= 2


class TestPerfect:
    def test_singleton(self):
        u13 = uniform_matroid(1, 3)
        assert is_perfect(u13, [mask_of([0, 1])])

    def test_modular_pair_is_perfect(self):
        u13 = uniform_matroid(1, 3)
        assert is_perfect(u13, [mask_of([0, 1]), mask_of([0, 2])])

    def test_all_three_pairs_not_perfect(self):
        u13 = uniform_matroid(1, 3)
        assert not is_perfect(u13, [mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])])

    def test_pair_perfect_iff_modular(self):
        rng = random.Random(9)
        for _ in range(8):
            m = random_base_matroid(rng)
            for c1, c2 in combinations(m.circuits, 2):
                assert is_perfect(m, [c1, c2]) == is_modular_pair(m, c1, c2)

    def test_subsets_of_perfect_are_perfect(self):
        rng = random.Random(10)
        for _ in range(6):
            m = random_base_matroid(rng, max_elems=7)
            circuits = list(m.circuits)
            for size in (2, 3):
                for col in combinations(circuits, size):
                    if is_perfect(m, col):
                        for sub_size in range(1, size):
                            for sub in combinations(col, sub_size):
                                assert is_perfect(m, sub)

    def test_perfect_iff_private_deletion_independent(self):
        # Characterization: a collection is perfect iff removing one private
        # element from each member (an element in no other member) leaves an
        # independent set of the same rank as the union.
        rng = random.Random(12)
        for _ in range(6):
            m = random_base_matroid(rng, max_elems=7)
            circuits = list(m.circuits)
            for size in (2, 3):
                for col in combinations(circuits, size):
                    if not is_perfect(m, col):
                        continue
                    union = 0
                    for c in col:
                        union |= c
                    stripped = union
                    for i, c in enumerate(col):
                        others = 0
                        for j, d in enumerate(col):
                            if j != i:
                                others |= d
                        private = c & ~others
                        assert private, "perfect members have private elements"
                        stripped &= ~(private & -private)
                    assert m.rank(stripped) == stripped.bit_count()
                    assert m.rank(stripped) == m.rank(union)


class TestLinearClass:
    def test_all_circuits(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        assert is_linear_class(m, range(len(m.circuits)))

    def test_empty(self):
        assert is_linear_class(uniform_matroid(2, 4), [])

    def test_u13_pair_not_closed(self):
        u13 = uniform_matroid(1, 3)
        assert not is_linear_class(u13, [0, 1])

    def test_closure_produces_linear_class(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_base_matroid(rng)
            cls = random_linear_class(rng, m)
            assert is_linear_class(m, cls)

    def test_agrees_with_closure_fixpoint(self):
        # a set of circuits is linear exactly when the modular-pair closure
        # leaves it unchanged; random sets are mostly not linear
        rng = random.Random(19)
        verdicts = set()
        for _ in range(40):
            m = random_base_matroid(rng)
            cls = frozenset(k for k in range(len(m.circuits)) if rng.random() < 0.5)
            linear = is_linear_class(m, cls)
            assert linear == (linear_class_closure(m, cls) == cls)
            verdicts.add(linear)
        assert verdicts == {True, False}

    def test_rejects_index_out_of_range(self):
        m = uniform_matroid(1, 3)
        for bad in ([3], [-1]):
            with pytest.raises(ValueError, match="out of range"):
                is_linear_class(m, bad)

    def test_closure_is_minimal_fixpoint(self):
        u13 = uniform_matroid(1, 3)
        assert linear_class_closure(u13, [0, 1]) == frozenset({0, 1, 2})
        assert linear_class_closure(u13, [0]) == frozenset({0})


class TestElementaryLift:
    def test_u24_empty_class(self):
        assert elementary_lift(uniform_matroid(2, 4), []) == uniform_matroid(3, 4)

    def test_full_class_returns_same(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        assert elementary_lift(m, range(len(m.circuits))) == m

    def test_rejects_non_linear_class(self):
        with pytest.raises(ValueError):
            elementary_lift(uniform_matroid(1, 3), [0, 1])

    def test_circuit_survives_iff_in_class(self):
        rng = random.Random(29)
        for _ in range(12):
            m = random_base_matroid(rng, max_elems=7)
            cls = random_linear_class(rng, m)
            lifted = elementary_lift(m, cls)
            for k, c in enumerate(m.circuits):
                assert lifted.is_circuit(c) == (k in cls)

    def test_rank_goes_up_unless_class_is_everything(self):
        rng = random.Random(37)
        for _ in range(12):
            m = random_base_matroid(rng, max_elems=7)
            cls = random_linear_class(rng, m)
            lifted = elementary_lift(m, cls)
            expected = m.full_rank + (0 if len(cls) == len(m.circuits) else 1)
            assert lifted.full_rank == expected

    def test_base_is_quotient_of_lift(self):
        rng = random.Random(41)
        for _ in range(8):
            m = random_base_matroid(rng, max_elems=7)
            cls = random_linear_class(rng, m)
            assert is_quotient(m, elementary_lift(m, cls))


class TestStarConditions:
    def test_all_loops_always_passes(self):
        rng = random.Random(43)
        for _ in range(10):
            m = random_base_matroid(rng)
            spec = LiftSpec(m, uniform_matroid(0, len(m.circuits)))
            assert check_star_prime(spec)[0]
            assert check_star(spec)[0]

    def test_u2m_always_passes(self):
        rng = random.Random(47)
        for _ in range(10):
            m = random_base_matroid(rng)
            count = len(m.circuits)
            if count < 2:
                continue
            spec = LiftSpec(m, uniform_matroid(2, count))
            assert check_star_prime(spec)[0]
            assert check_star(spec)[0]

    def test_parallel_chain_witness(self):
        # Force two blocks independent in N while (*') demands otherwise.
        m = contract(build_krt(KrtSpec(4, 3)).to_matroid(), mask_of([6, 7]))
        count = len(m.circuits)
        idx_12 = m.circuits.index(mask_of([0, 1]))
        idx_56 = m.circuits.index(mask_of([4, 5]))
        # overlay: {12} and {56} independent (two parallel classes), all
        # other circuits parallel to each other in the second class
        fam = []
        first_class = {idx_12}
        second_class = {idx_56}
        rest = [k for k in range(count) if k not in first_class | second_class]
        for k in rest:
            second_class.add(k)
        for cls in (first_class, second_class):
            fam.extend(
                (1 << i) | (1 << j) for i, j in combinations(sorted(cls), 2)
            )
        overlay = Matroid(count, fam, validate=False)
        ok, witness = check_star_prime(LiftSpec(m, overlay))
        assert not ok
        assert witness is not None

    def test_star_implies_star_prime_shape(self):
        # any spec failing (*') fails (*) too: pairs are perfect collections
        rng = random.Random(53)
        checked = 0
        while checked < 15:
            m = random_base_matroid(rng)
            overlay = random_overlay(rng, len(m.circuits))
            spec = LiftSpec(m, overlay)
            ok_prime, _ = check_star_prime(spec)
            if ok_prime:
                continue
            assert not check_star(spec)[0]
            checked += 1

    def test_equivalence_random_sample(self):
        # the two conditions agree on mixed random instances
        rng = random.Random(59)
        for _ in range(60):
            m = random_base_matroid(rng)
            overlay = random_overlay(rng, len(m.circuits))
            spec = LiftSpec(m, overlay)
            assert check_star(spec)[0] == check_star_prime(spec)[0]


def _zoo_lift_specs() -> list[LiftSpec]:
    """The lift specs the zoo builds, the witness specs of seeded GF(p)
    instances, and the parallel-chain obstruction with a free overlay."""
    from matlift.gf import lift_witness

    u13 = uniform_matroid(1, 3)
    specs = [
        LiftSpec(u13, uniform_matroid(2, 3)),
        LiftSpec(u13, rank_one_overlay(len(u13.circuits), [])),
        lift_witness(GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]]), (0,)).spec,
    ]
    rng = random.Random(79)
    for _ in range(6):
        specs.append(lift_witness(*random_witness_instance(rng)).spec)
    chain = contract(build_krt(KrtSpec(4, 3)).to_matroid(), mask_of([6, 7]))
    specs.append(LiftSpec(chain, uniform_matroid(len(chain.circuits), len(chain.circuits))))
    return specs


class TestClosureChecksAgainstPerMemberLoops:
    """(*) and (*') decide each closure with one rank query of the whole
    set of circuits to place; the per-member loops of the oracles give the
    same verdict and name the same escaping circuit."""

    def assert_same(self, spec: LiftSpec) -> bool:
        prime = check_star_prime(spec)
        assert prime == check_star_prime_per_member(spec)
        assert check_star(spec) == check_star_per_member(spec)
        return prime[0]

    def test_zoo_lifts(self):
        verdicts = [self.assert_same(spec) for spec in _zoo_lift_specs()]
        assert verdicts.count(False) == 1

    def test_seeded_failing_overlays(self):
        rng = random.Random(83)
        failing = 0
        for _ in range(300):
            m = random_base_matroid(rng)
            spec = LiftSpec(m, random_overlay(rng, len(m.circuits)))
            if not self.assert_same(spec):
                failing += 1
        assert failing >= 50


class TestIncrementalPerfectTest:
    """``check_star`` carries each collection's union and private parts
    from its parent; ``zoo.check_star_rebuild`` rebuilds the perfect test
    for every candidate.  Both walk the same depth-first order, so the
    verdict and the first witness agree."""

    def assert_same(self, spec: LiftSpec) -> bool:
        got = check_star(spec)
        assert got == check_star_rebuild(spec)
        return got[0]

    def test_zoo_lifts(self):
        verdicts = [self.assert_same(spec) for spec in _zoo_lift_specs()]
        assert verdicts.count(False) == 1

    def test_star_condition_specs(self):
        # the specs of TestStarConditions: all-loops and U(2,m) overlays,
        # the parallel-chain obstruction and random overlays
        verdicts = []
        for seed in (43, 47):
            rng = random.Random(seed)
            for _ in range(10):
                m = random_base_matroid(rng)
                count = len(m.circuits)
                overlays = [uniform_matroid(0, count)] + ([uniform_matroid(2, count)] if count >= 2 else [])
                verdicts.extend(self.assert_same(LiftSpec(m, n)) for n in overlays)
        rng = random.Random(59)
        for _ in range(60):
            m = random_base_matroid(rng)
            verdicts.append(self.assert_same(LiftSpec(m, random_overlay(rng, len(m.circuits)))))
        assert True in verdicts and False in verdicts

    def test_seeded_failing_overlays(self):
        rng = random.Random(89)
        failing = 0
        for _ in range(300):
            m = random_base_matroid(rng)
            if not self.assert_same(LiftSpec(m, random_overlay(rng, len(m.circuits)))):
                failing += 1
        assert failing >= 50

    def test_is_perfect_matches_rebuild(self):
        rng = random.Random(97)
        seen = {True: 0, False: 0}
        for _ in range(10):
            m = random_base_matroid(rng, max_elems=7)
            for size in (1, 2, 3, 4):
                for col in combinations(m.circuits, size):
                    union = 0
                    for c in col:
                        union |= c
                    want = perfect_rebuild(m, col, union)
                    assert is_perfect(m, col) == want
                    seen[want] += 1
        assert seen[True] and seen[False]


class TestSpanningCircuitsPruned:
    """A circuit that spans N alone spans every collection holding it, and
    no circuit escapes the closure of such a collection, so only the other
    circuits join the collections of (*) and (*').  The walk then indexes
    (``rank_and_circuits``) only unions of those circuits, and the first
    witness stays the one ``zoo.check_star_rebuild`` finds over every
    perfect collection."""

    # Rank 2 on 6 elements with the loop 4; the class {4}, {1 2 5},
    # {1 2 6} holds the perfect triple whose union holds {1 5 6}.
    BASE = Matroid(6, [mask_of(e - 1 for e in c) for c in [
        [4], [1, 3], [1, 2, 5], [2, 3, 5], [1, 2, 6], [2, 3, 6], [1, 5, 6], [2, 5, 6], [3, 5, 6],
    ]])
    CLASS = [0, 2, 4]

    @pytest.mark.parametrize("make", [ClassOverlay, rank_one_overlay], ids=["class-overlay", "rank-one-family"])
    def test_star_fails_on_the_class_alone(self, monkeypatch, make):
        m = self.BASE
        spec = LiftSpec(m, make(len(m.circuits), self.CLASS))
        want = check_star_rebuild(spec)
        indexed = []
        rank_and_circuits = Matroid.rank_and_circuits
        # M's index queries only: a circuit-family overlay ranks through its own
        monkeypatch.setattr(Matroid, "rank_and_circuits", lambda self, mask: indexed.append((self, mask)) or rank_and_circuits(self, mask))
        got = check_star(spec)
        assert got == want == (False, StarWitness((0, 2, 4), 6))
        unions = [mask for obj, mask in indexed if obj is m]
        assert unions
        for union in unions:
            inside = [m.circuits[i] for i in self.CLASS if m.circuits[i] & ~union == 0]
            assert union == mask_of(e for c in inside for e in elements_of(c)), union
        assert check_star_prime(spec) == (False, StarWitness((2, 4), 6))


class TestSingleCircuitsUnindexed:
    """The walk of (*) and (*') starts from each joinable circuit as a
    collection of one, whose union holds no circuit but itself, so it
    indexes (``rank_and_circuits``) only unions of two or more circuits,
    never a circuit of M."""

    def test_no_circuit_is_indexed(self, monkeypatch):
        rng = random.Random(46)
        base = TestSpanningCircuitsPruned.BASE
        specs = [LiftSpec(base, ClassOverlay(len(base.circuits), TestSpanningCircuitsPruned.CLASS))]
        for _ in range(30):
            m = random_base_matroid(rng)
            specs.append(LiftSpec(m, random_overlay(rng, len(m.circuits))))
            specs.append(LiftSpec(m, ClassOverlay(len(m.circuits), random_linear_class(rng, m))))
        indexed = []
        rank_and_circuits = Matroid.rank_and_circuits
        monkeypatch.setattr(Matroid, "rank_and_circuits", lambda self, mask: indexed.append((self, mask)) or rank_and_circuits(self, mask))
        queried = 0
        for spec in specs:
            indexed.clear()
            check_star_prime(spec)
            check_star(spec)
            # M's index queries only: a circuit-family overlay ranks through its own
            unions = {mask for obj, mask in indexed if obj is spec.base}
            queried += len(unions)
            assert not unions & set(spec.base.circuits)
        assert queried


def _matrices_with_parallels() -> list[GfMatrix]:
    rng = random.Random(113)
    return [random_gf_matrix_with_parallels(rng, rng.choice([2, 3, 5, 7, 251])) for _ in range(40)]


class TestParallelClasses:
    """``parallel_classes`` against the partition that pair rank queries
    of an independent rank oracle give."""

    def test_matroid_on_zoo(self):
        for name, m in zoo():
            want = parallel_classes_bruteforce(lambda s: rank_bruteforce(m, s), m.n)
            assert m.parallel_classes() == want, name

    def test_matroid_with_loops_and_parallels(self):
        shapes = [rank_one_overlay(count, loops) for count in range(1, 7) for loops in ([], [0], [0, count - 1])]
        shapes += [column_matroid(a.p, a.columns()) for a in _matrices_with_parallels()]
        seen_loops = seen_parallel = False
        for m in shapes:
            want = parallel_classes_bruteforce(lambda s: rank_bruteforce(m, s), m.n)
            assert m.parallel_classes() == want, m
            seen_loops |= mask_of(range(m.n)) != sum(want)
            seen_parallel |= any(c & (c - 1) for c in want)
        assert seen_loops and seen_parallel

    def test_linear_matroid(self):
        rng = random.Random(137)
        plain = [random_gf_matrix(rng, p=rng.choice([2, 3, 5, 7, 251])) for _ in range(20)]
        sizes = []
        for a in _matrices_with_parallels() + plain:
            want = parallel_classes_bruteforce(lambda s: gf_rank_bruteforce(a, elements_of(s)), a.cols)
            assert LinearMatroid(a.p, a.columns()).parallel_classes() == want, a.data
            sizes.append((len(want), a.cols))
        assert any(k < n for k, n in sizes) and any(k == n for k, n in sizes)

    def test_default_is_singletons(self):
        # the base class reads nothing off a representation: singletons,
        # which is the partition of a simple loopless matroid (K(r,t)) and
        # refines the partition of any other
        for r, t in [(4, 3), (5, 4), (6, 4)]:
            sp = build_krt(KrtSpec(r, t))
            want = parallel_classes_bruteforce(sp.rank, sp.n)
            assert sp.parallel_classes() == want == [1 << e for e in range(sp.n)]
        for name, m in zoo():
            classes = RankMatroid.parallel_classes(m)
            assert classes == [1 << e for e in range(m.n)], name


class TestOverlayRank:
    """``LiftSpec.overlay_rank`` asks N for one representative per parallel
    class met; it must equal N's rank of the set itself."""

    def _specs(self) -> list[LiftSpec]:
        specs = [spec for spec in _zoo_lift_specs() if spec.overlay.n <= 12]
        rng = random.Random(127)
        while len(specs) < 60:
            m = random_base_matroid(rng)
            count = len(m.circuits)
            if count <= 12:
                specs.append(LiftSpec(m, random_overlay(rng, count)))
        for a in _matrices_with_parallels():
            # a matrix's column matroid, materialized and as a linear
            # overlay, on the circuits of U(0, n), its n loops
            base = uniform_matroid(0, a.cols)
            specs += [LiftSpec(base, column_matroid(a.p, a.columns())), LiftSpec(base, LinearMatroid(a.p, a.columns()))]
        return specs

    def test_every_mask_on_small_overlays(self):
        checked = 0
        for spec in self._specs():
            n = spec.overlay.n
            assert n <= 12
            for mask in range(1 << n):
                assert spec.overlay_rank(mask) == spec.overlay.rank(mask), (spec, mask)
            checked += 1
        assert checked >= 60

    def test_sampled_masks_on_rep_witnesses(self):
        rng = random.Random(131)
        for spec in rep_witness_specs():
            n = spec.overlay.n
            singles, multi = spec._table
            assert spec.overlay.full_rank == 2 and singles.bit_count() + len(multi) <= 4 < n
            for _ in range(400):
                # a few circuits or many
                size = rng.choice([1, 2, 3, rng.randrange(n)])
                mask = mask_of(rng.sample(range(n), size))
                assert spec.overlay_rank(mask) == spec.overlay.rank(mask)


class TestOverlayMemo:
    """``LiftSpec.overlay_rank`` is the one rank memo: over the checks, the
    lift and the subset sweep of a spec, N is asked at most once per reps
    key (the set of class heads it is asked about)."""

    def _lift_specs(self) -> list[LiftSpec]:
        """``u13.lift`` and a ``.lift`` text in the benchmark's shape: a
        linear class of V8's circuits as the loops of a rank-1 overlay."""
        v8 = build_krt(KrtSpec(4, 3)).to_matroid()
        linear = linear_class_closure(v8, {0, 7})
        assert 2 < len(linear) < len(v8.circuits)
        overlay = rank_one_overlay(len(v8.circuits), linear)
        text = "base\n" + emit_matroid_text(v8) + "overlay\n" + emit_matroid_text(overlay)
        return [parse_lift(Path(__file__).parent / "testdata" / "u13.lift"), parse_lift_text(text)]

    def test_overlay_asked_once_per_reps_key(self, monkeypatch):
        built = [(spec, False) for spec in rep_witness_specs()] + [(spec, True) for spec in self._lift_specs()]
        overlays = {id(spec.overlay) for spec, _ in built}  # kept alive by ``built``
        asked: Counter = Counter()

        def wrap(rank):
            def counted(self, mask):
                if id(self) in overlays:
                    asked[id(self), mask] += 1
                return rank(self, mask)
            return counted

        for cls in {type(spec.overlay) for spec, _ in built}:
            monkeypatch.setattr(cls, "rank", wrap(cls.rank))
        for spec, lift_job in built:
            # a fresh spec, so its memo starts empty under the wrapper
            spec = LiftSpec(spec.base, spec.overlay)
            assert check_star_prime(spec)[0]
            if lift_job:
                assert check_star(spec)[0]
                build_lift(spec)
            assert sum(1 for _ in lift_ranks(spec)) == 1 << spec.base.n
            counts = [count for (obj, _), count in asked.items() if obj == id(spec.overlay)]
            assert counts and max(counts) == 1, (spec, max(counts))
            assert len(counts) <= 1 << len(spec.overlay.parallel_classes())


class TestLiftRanks:
    """The lift rank formula over every subset, read from M's rank sweep."""

    def test_equals_lift_rank_on_every_set(self):
        rng = random.Random(107)
        for _ in range(30):
            m = random_base_matroid(rng)
            spec = LiftSpec(m, random_overlay(rng, len(m.circuits)))
            got = list(lift_ranks(spec))
            assert len(got) == 1 << m.n
            assert dict(got) == {mask: spec.rank(mask) for mask in range(1 << m.n)}

    def test_bound_is_shared(self):
        require_sweepable(MAX_SWEEP_GROUND)
        with pytest.raises(ValueError, match=f"2\\^{MAX_SWEEP_GROUND + 1} subsets refused"):
            require_sweepable(MAX_SWEEP_GROUND + 1)
        for n in (MAX_SWEEP_GROUND + 1, 64):
            # one circuit, the whole ground set; refused before any table of
            # 2^n ranks is made
            big = uniform_matroid(n - 1, n)
            spec = LiftSpec(big, uniform_matroid(0, 1))
            for check in (lift_ranks, evaluate_lift_formula):
                with pytest.raises(ValueError, match=f"2\\^{n} subsets refused; needs at most 16 elements"):
                    check(spec)


class TestBuildLift:
    def test_loops_overlay_returns_base(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        spec = LiftSpec(m, uniform_matroid(0, len(m.circuits)))
        assert build_lift(spec) == m

    def test_u13_with_u23_overlay(self):
        spec = LiftSpec(uniform_matroid(1, 3), uniform_matroid(2, 3))
        assert build_lift(spec) == uniform_matroid(3, 3)

    def test_u13_with_rank1_overlay(self):
        u13 = uniform_matroid(1, 3)
        spec = LiftSpec(u13, rank_one_overlay(len(u13.circuits), []))
        assert build_lift(spec) == uniform_matroid(2, 3)

    def test_refuses_failing_spec(self):
        m = contract(build_krt(KrtSpec(4, 3)).to_matroid(), mask_of([6, 7]))
        count = len(m.circuits)
        overlay = uniform_matroid(count, count)  # free overlay: closures are trivial
        spec = LiftSpec(m, overlay)
        assert not check_star_prime(spec)[0]
        assert spec.full_rank == m.full_rank + count  # the oracle stands though (*') fails
        with pytest.raises(LiftConditionError):
            build_lift(spec)

    def test_rank_sum_and_quotient(self):
        rng = random.Random(61)
        built = 0
        while built < 12:
            m = random_base_matroid(rng)
            overlay = random_overlay(rng, len(m.circuits))
            spec = LiftSpec(m, overlay)
            if not check_star_prime(spec)[0]:
                continue
            lifted = build_lift(spec)
            assert lifted.full_rank == m.full_rank + overlay.full_rank
            assert is_quotient(m, lifted)
            built += 1

    def test_overlay_size_mismatch(self):
        with pytest.raises(ValueError):
            LiftSpec(uniform_matroid(1, 3), uniform_matroid(1, 2))


class TestDiagnostics:
    def test_formula_on_valid_spec(self):
        spec = LiftSpec(uniform_matroid(1, 3), uniform_matroid(2, 3))
        built, report = evaluate_lift_formula(spec)
        assert report.ok and built == uniform_matroid(3, 3)

    def test_formula_reports_violation(self):
        # The parallel-chain obstruction: the formula cannot be a matroid
        # rank function for any overlay placing the blocks independently.
        m = contract(build_krt(KrtSpec(4, 3)).to_matroid(), mask_of([6, 7]))
        count = len(m.circuits)
        overlay = uniform_matroid(count, count)
        built, report = evaluate_lift_formula(LiftSpec(m, overlay))
        assert not report.ok
        assert report.kind in ("unit-increase", "submodularity")
        assert built is None


class TestAgreesWithElementary:
    def test_u24_empty(self):
        assert lift_agrees_with_elementary(uniform_matroid(2, 4), [])

    def test_full_class_degenerate(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        assert lift_agrees_with_elementary(m, range(len(m.circuits)))

    def test_random_instances(self):
        rng = random.Random(67)
        for _ in range(25):
            m = random_base_matroid(rng)
            cls = random_linear_class(rng, m)
            assert lift_agrees_with_elementary(m, cls)


def test_lift_rank_formula_matches_built_matroid():
    rng = random.Random(71)
    built = 0
    while built < 8:
        m = random_base_matroid(rng, max_elems=7)
        overlay = random_overlay(rng, len(m.circuits))
        spec = LiftSpec(m, overlay)
        if not check_star_prime(spec)[0]:
            continue
        lifted = build_lift(spec)
        assert isinstance(spec, RankMatroid) and spec.full_rank == lifted.full_rank
        for mask in range(1 << m.n):
            assert lifted.rank(mask) == spec.rank(mask)
            assert lifted.closure(mask) == spec.closure(mask)
        built += 1


def test_flats_of_base_are_flats_of_lift():
    rng = random.Random(73)
    built = 0
    while built < 10:
        m = random_base_matroid(rng)
        overlay = random_overlay(rng, len(m.circuits))
        spec = LiftSpec(m, overlay)
        if not check_star_prime(spec)[0]:
            continue
        lifted = build_lift(spec)
        for f in flats(m):
            assert lifted.closure(f) == f
            assert spec.is_flat(f)
        built += 1
