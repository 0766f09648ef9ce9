"""Gain graphs: enumeration, balance, switching, orbits, the graphic
matroid, the elementary (balanced-class) lift, and the rank-2 lift on three
vertices with its certificates."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from matlift.core import mask_of, validate_circuits
from matlift.gain import (
    GainGraph,
    NoPartitionError,
    balanced_circuit_audit,
    cycles,
    graphic_matroid,
    rank2_lift_k3,
    switching_orbit,
    zaslavsky_lift,
)
from matlift.groups import builtin_group

from zoo import flats as flats_of, is_quotient, lift_agrees_with_elementary, switch_mask


class TestEnumeration:
    @pytest.mark.parametrize(
        "group,n,expected",
        [("z2", 3, 6), ("s3", 3, 18), ("z2^2", 4, 24)],
    )
    def test_edge_counts(self, group, n, expected):
        assert GainGraph(builtin_group(group), n).edge_count == expected

    def test_size_cap(self):
        with pytest.raises(ValueError):
            GainGraph(builtin_group("q8"), 5)  # 80 edges

    def test_canonical_order(self):
        gg = GainGraph(builtin_group("z2"), 3)
        got = [(e.i, e.j, e.label) for e in gg.edges]
        assert got == [
            (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1), (1, 2, 0), (1, 2, 1),
        ]

    def test_cycle_counts_z2(self):
        gg = GainGraph(builtin_group("z2"), 3)
        cyc = cycles(gg)
        assert len(cyc) == 3 + 8  # parallel pairs + labeled triangles

    def test_cycle_counts_s3(self):
        gg = GainGraph(builtin_group("s3"), 3)
        assert len(cycles(gg)) == 3 * 15 + 216


def _balance(gg):
    """Cycle.balanced from ``cycles(gg)``, by cycle mask."""
    return {c.mask: c.balanced for c in cycles(gg)}


class TestBalance:
    def test_identity_triangle(self):
        gg = GainGraph(builtin_group("z3"), 3)
        eps = [gg.edge_index(0, 1, 0), gg.edge_index(1, 2, 0), gg.edge_index(0, 2, 0)]
        assert _balance(gg)[mask_of(eps)]

    def test_two_cycles_unbalanced(self):
        gg = GainGraph(builtin_group("z3"), 3)
        balance = _balance(gg)
        for a, b in combinations(range(3), 2):
            pair = [gg.edge_index(0, 1, a), gg.edge_index(0, 1, b)]
            assert not balance[mask_of(pair)]

    def test_z3_triangle_sum(self):
        gg = GainGraph(builtin_group("z3"), 3)
        balance = _balance(gg)
        # labels 1 (1->2), 1 (2->3), 2 (1->3): 1 + 1 - 2 = 0
        tri = [gg.edge_index(0, 1, 1), gg.edge_index(1, 2, 1), gg.edge_index(0, 2, 2)]
        assert balance[mask_of(tri)]
        tri_bad = [gg.edge_index(0, 1, 1), gg.edge_index(1, 2, 1), gg.edge_index(0, 2, 1)]
        assert not balance[mask_of(tri_bad)]

    def test_nonabelian_traversal_invariance(self):
        # balance does not depend on the traversal cycles() walks; check
        # against the direct product around 0 -> 1 -> 2 -> 0 for every
        # S3-labeled triangle
        g = builtin_group("s3")
        gg = GainGraph(g, 3)
        balance = _balance(gg)
        for labels in product(range(6), repeat=3):
            tri = [
                gg.edge_index(0, 1, labels[0]),
                gg.edge_index(1, 2, labels[1]),
                gg.edge_index(0, 2, labels[2]),
            ]
            direct = g.mul(g.mul(labels[0], labels[1]), g.inv(labels[2]))
            assert balance[mask_of(tri)] == (direct == g.identity)

    def test_nonabelian_four_cycles_on_another_walk(self):
        # balance does not depend on the walk: walk each S3-labeled 4-cycle
        # of K_4 backwards from another vertex and compare
        g = builtin_group("s3")
        gg = GainGraph(g, 4)
        fours = [c for c in cycles(gg) if len(c.edges) == 4]
        assert len(fours) == 3 * 6**4
        for cyc in fours:
            edges = [gg.edges[k] for k in reversed(cyc.edges)]
            edges = edges[1:] + edges[:1]
            first, second = edges[0], edges[1]
            at = first.j if first.i in (second.i, second.j) else first.i
            value = g.identity
            for e in edges:
                forward = e.i == at
                value = g.mul(value, e.label if forward else g.inv(e.label))
                at = e.j if forward else e.i
            assert (value == g.identity) == cyc.balanced

    def test_four_cycle_balance(self):
        g = builtin_group("z2")
        gg = GainGraph(g, 4)
        quad = [
            gg.edge_index(0, 1, 1),
            gg.edge_index(1, 2, 1),
            gg.edge_index(2, 3, 0),
            gg.edge_index(0, 3, 0),
        ]
        assert _balance(gg)[mask_of(quad)]


class TestSwitching:
    def test_identity_value_is_noop(self):
        gg = GainGraph(builtin_group("s3"), 3)
        mask = 0b101010101
        assert switch_mask(gg, mask, 1, 0) == mask

    def test_inverse_undoes(self):
        g = builtin_group("s3")
        gg = GainGraph(g, 3)
        mask = mask_of([0, 5, 7, 12])
        for k in range(3):
            for beta in range(g.order):
                once = switch_mask(gg, mask, k, beta)
                assert switch_mask(gg, once, k, g.inv(beta)) == mask

    def test_switch_preserves_balance_exhaustive(self):
        for name in ["z2", "z3", "z2^2", "s3"]:
            g = builtin_group(name)
            gg = GainGraph(g, 3)
            balance = _balance(gg)
            for cyc in cycles(gg):
                for k in range(3):
                    for beta in range(g.order):
                        image = switch_mask(gg, cyc.mask, k, beta)
                        assert balance[image] == cyc.balanced

    def test_bijective_on_edges(self):
        g = builtin_group("s3")
        gg = GainGraph(g, 3)
        full = (1 << gg.edge_count) - 1
        for k in range(3):
            for beta in range(g.order):
                assert switch_mask(gg, full, k, beta) == full


class TestOrbits:
    def test_orbit_of_identity_labels_z2(self):
        g = builtin_group("z2")
        gg = GainGraph(g, 3)
        seed = gg.labels_mask([0])
        canon, orbit = switching_orbit(gg, seed)
        assert seed in orbit
        assert len(orbit) == 4  # 8 switchings, stabilizer of size 2
        assert canon == min(orbit)

    def test_same_orbit_same_canonical_form(self):
        g = builtin_group("z3")
        gg = GainGraph(g, 3)
        seed = gg.labels_mask([0])
        canon, orbit = switching_orbit(gg, seed)
        for member in orbit:
            got, _ = switching_orbit(gg, member)
            assert got == canon

    def test_s3_part_orbits_computed(self):
        # conjugate parts land in one orbit: the three reflection parts of
        # S3 share a canonical form; the rotation part has its own
        g = builtin_group("s3")
        gg = GainGraph(g, 3)
        from matlift.groups import primitive_partition

        prim = primitive_partition(g)
        forms = {}
        for part in prim.parts:
            seed = gg.labels_mask(set(part) | {g.identity})
            canon, _ = switching_orbit(gg, seed)
            forms[frozenset(part)] = canon
        assert len(set(forms.values())) == 2

    def test_z2sq_part_orbits_distinct(self):
        # abelian case: conjugation is trivial, the three parts stay apart
        g = builtin_group("z2^2")
        gg = GainGraph(g, 3)
        from matlift.groups import primitive_partition

        prim = primitive_partition(g)
        forms = set()
        for part in prim.parts:
            canon, _ = switching_orbit(gg, gg.labels_mask(set(part) | {g.identity}))
            forms.add(canon)
        assert len(forms) == 3

    @pytest.mark.parametrize(
        "name, n",
        [("z2", 3), ("z3", 3), ("z2^2", 3), ("s3", 3), ("d4", 3), ("z2^3", 3), ("q8", 3), ("z2", 4), ("z3", 4)],
    )
    def test_orbit_matches_composed_switchings(self, name, n):
        # Reference: switch vertex by vertex with ``switch_mask``, over every
        # per-vertex value tuple.
        gg = GainGraph(builtin_group(name), n)
        rng = random.Random(f"orbit:{name}:{n}")
        masks = [0, (1 << gg.edge_count) - 1] + [rng.getrandbits(gg.edge_count) for _ in range(6)]
        masks += [gg.labels_mask(set(part) | {gg.group.identity}) for part in _parts(gg.group)]
        for mask in masks:
            want = set()
            for values in product(range(gg.group.order), repeat=n):
                image = mask
                for k, beta in enumerate(values):
                    image = switch_mask(gg, image, k, beta)
                want.add(image)
            assert switching_orbit(gg, mask) == (min(want), sorted(want))


def _parts(group):
    from matlift.groups import primitive_partition

    prim = primitive_partition(group)
    return prim.parts if prim is not None else []


class TestGraphicMatroid:
    def test_z2_counts(self):
        m = graphic_matroid(GainGraph(builtin_group("z2"), 3))
        assert m.full_rank == 2 and len(m.circuits) == 11

    def test_s3_counts(self):
        m = graphic_matroid(GainGraph(builtin_group("s3"), 3))
        assert m.full_rank == 2 and len(m.circuits) == 45 + 216

    def test_rank_is_vertices_minus_one(self):
        for name, n in [("z2", 3), ("z3", 3), ("z2", 4)]:
            gg = GainGraph(builtin_group(name), n)
            assert graphic_matroid(gg).full_rank == n - 1

    def test_axioms(self):
        m = graphic_matroid(GainGraph(builtin_group("z3"), 3))
        assert validate_circuits(m.circuits, m.n).ok

    @pytest.mark.parametrize("name,n,bell", [("z2", 3, 5), ("z3", 3, 5), ("s3", 3, 5), ("z2", 4, 15)])
    def test_graphic_flats_are_the_flats(self, name, n, bell):
        gg = GainGraph(builtin_group(name), n)
        flats = gg.graphic_flats()
        assert len(flats) == bell
        assert flats == flats_of(graphic_matroid(gg))


class TestZaslavsky:
    def test_z2_rank3(self):
        gg = GainGraph(builtin_group("z2"), 3)
        lift = zaslavsky_lift(gg)
        assert lift.full_rank == 3 and lift.n == 6
        assert balanced_circuit_audit(lift, gg) is None

    def test_z3_rank3(self):
        gg = GainGraph(builtin_group("z3"), 3)
        lift = zaslavsky_lift(gg)
        assert lift.full_rank == 3 and lift.n == 9
        assert balanced_circuit_audit(lift, gg) is None

    def test_lift_is_simple(self):
        # unbalanced 2-cycles independent: no loops, no parallel pairs
        gg = GainGraph(builtin_group("z3"), 3)
        lift = zaslavsky_lift(gg)
        assert all(c.bit_count() >= 3 for c in lift.circuits)

    def test_audit_fails_on_graphic(self):
        gg = GainGraph(builtin_group("z2"), 3)
        assert balanced_circuit_audit(graphic_matroid(gg), gg) is not None

    def test_z2_four_vertices(self):
        gg = GainGraph(builtin_group("z2"), 4)
        lift = zaslavsky_lift(gg)
        assert lift.full_rank == 4
        assert balanced_circuit_audit(lift, gg) is None
        assert is_quotient(graphic_matroid(gg), lift)

    def test_agrees_with_general_lift_route(self):
        from matlift.gain import balanced_class_indices

        gg = GainGraph(builtin_group("z2"), 3)
        base = graphic_matroid(gg)
        balanced = balanced_class_indices(gg, base)
        assert lift_agrees_with_elementary(base, balanced)


class TestRank2Lift:
    def test_s3_certificates(self):
        res = rank2_lift_k3(builtin_group("s3"))
        assert res.matroid.n == 18 and res.matroid.full_rank == 4
        assert balanced_circuit_audit(res.matroid, res.gain_graph) is None
        assert is_quotient(graphic_matroid(res.gain_graph), res.matroid)

    def test_z2sq_certificates(self):
        res = rank2_lift_k3(builtin_group("z2^2"))
        assert res.matroid.n == 12 and res.matroid.full_rank == 4
        assert balanced_circuit_audit(res.matroid, res.gain_graph) is None
        assert is_quotient(graphic_matroid(res.gain_graph), res.matroid)

    @pytest.mark.parametrize("name", ["z4", "z6", "q8"])
    def test_refusals(self, name):
        with pytest.raises(NoPartitionError):
            rank2_lift_k3(builtin_group(name))

    def test_not_elementary(self):
        # rank exactly two above the graphic matroid
        res = rank2_lift_k3(builtin_group("z2^2"))
        gg = res.gain_graph
        assert res.matroid.full_rank - graphic_matroid(gg).full_rank == 2

    def test_every_three_edge_set_in_a_hyperplane(self):
        # the claim that makes the lift non-elementary, tested mechanically:
        # any <= 3 edges lie inside some hyperplane, as does any balanced
        # cycle plus one extra edge
        res = rank2_lift_k3(builtin_group("s3"))
        gg = res.gain_graph
        from itertools import combinations as comb

        hyps = res.hyperplanes
        for edges in comb(range(18), 3):
            mask = mask_of(edges)
            assert any(mask & ~h == 0 for h in hyps)
        for cyc in cycles(gg):
            if not cyc.balanced:
                continue
            for extra in range(18):
                if (cyc.mask >> extra) & 1:
                    continue
                mask = cyc.mask | (1 << extra)
                assert any(mask & ~h == 0 for h in hyps)

    def test_normal_tree_claim(self):
        # an identity-labeled spanning tree plus one alpha-labeled edge lies
        # only in the hyperplane of alpha's part
        g = builtin_group("s3")
        res = rank2_lift_k3(g)
        gg = res.gain_graph
        eps = g.identity
        spanning_trees = [
            (gg.edge_index(0, 1, eps), gg.edge_index(0, 2, eps)),
            (gg.edge_index(0, 1, eps), gg.edge_index(1, 2, eps)),
            (gg.edge_index(0, 2, eps), gg.edge_index(1, 2, eps)),
        ]
        for tree in spanning_trees:
            tree_mask = mask_of(tree)
            for edge_idx, edge in enumerate(gg.edges):
                if edge.label == eps or (tree_mask >> edge_idx) & 1:
                    continue
                mask = tree_mask | (1 << edge_idx)
                part = next(p for p in res.partition.parts if edge.label in p)
                expected = gg.labels_mask(set(part) | {eps})
                containing = [h for h in res.hyperplanes if mask & ~h == 0]
                assert containing == [expected]

    @pytest.mark.parametrize("name", ["z2^2", "s3"])
    def test_one_axiom_pass(self, name, monkeypatch):
        # Only the hyperplane family is validated: the quotient test reads
        # the graphic flats and builds no cycle family.
        from matlift.core import Matroid

        passes = []
        first_violation = Matroid._first_violation

        def counting(index, order):
            passes.append(len(order))
            return first_violation(index, order)

        monkeypatch.setattr(Matroid, "_first_violation", counting)
        res = rank2_lift_k3(builtin_group(name))
        assert passes == [len(res.hyperplanes)]
        assert is_quotient(graphic_matroid(res.gain_graph), res.matroid)

    def test_group_order_cap(self):
        with pytest.raises(ValueError, match="capped"):
            rank2_lift_k3(builtin_group("z3^2"))

    def test_unbalanced_cycles_independent(self):
        res = rank2_lift_k3(builtin_group("s3"))
        gg = res.gain_graph
        m = res.matroid
        for cyc in cycles(gg):
            if not cyc.balanced:
                assert m.rank(cyc.mask) == cyc.mask.bit_count()
