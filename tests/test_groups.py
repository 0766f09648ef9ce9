"""Finite groups: axiom validation, subgroup enumeration, partitions, and
the primitive partition: its forced merges against the partition filtered
from every nontrivial one (``zoo.primitive_partition_filtered``), with no
subgroup or partition listed, and its conjugation and universality
properties."""

from __future__ import annotations

import pytest

import matlift.groups as groups
from matlift.core import SearchBudgetExceeded
from matlift.groups import (
    FinGroup,
    GroupAxiomError,
    builtin_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_partitions,
    primitive_partition,
    quaternion_group,
    symmetric_group_3,
)

from zoo import primitive_partition_filtered, refines

# Builtin groups on which group_partitions finishes in under 0.1 s, with and
# without a nontrivial partition.
PARTITIONED = ["z2^2", "z2^3", "z2^4", "z3^2", "z5^2", "z7^2", "z3^3", "s3"] + [f"d{m}" for m in (3, 4, 5, 6, 7, 8, 16)]
UNPARTITIONED = [f"z{m}" for m in range(2, 10)] + ["q8"]


class TestAxioms:
    def test_cyclic_valid(self):
        g = cyclic_group(4)
        assert g.order == 4 and g.identity == 0
        assert g.mul(3, 2) == 1 and g.inv(3) == 1

    def test_broken_associativity_rejected(self):
        # a quasigroup that is not a group: 0 is an identity but the rest
        # fails associativity
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupAxiomError, match="associativity"):
            FinGroup(table)

    def test_no_identity_rejected(self):
        with pytest.raises(GroupAxiomError, match="identity"):
            FinGroup([[1, 0], [1, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(GroupAxiomError):
            FinGroup([[0, 1], [1]])

    def test_quaternion_relations(self):
        q = quaternion_group()
        i, j, k = q.names.index("i"), q.names.index("j"), q.names.index("k")
        minus_one = q.names.index("-1")
        assert q.mul(i, i) == minus_one
        assert q.mul(j, j) == minus_one
        assert q.mul(i, j) == k
        assert q.mul(j, i) == q.names.index("-k")
        assert q.mul(i, j) != q.mul(j, i)

    def test_dihedral_relation(self):
        d = dihedral_group(4)
        r, s = 1, 4  # r1 and s*r0
        assert d.mul(d.mul(s, r), s) == d.inv(r)

    def test_elementary_abelian(self):
        g = elementary_abelian_group(2, 2)
        assert g.order == 4
        assert all(g.mul(a, a) == g.identity for a in range(4))


class TestSubgroups:
    def test_z6_subgroup_orders(self):
        assert sorted(len(h) for h in cyclic_group(6).subgroups()) == [1, 2, 3, 6]

    def test_s3_subgroup_orders(self):
        assert sorted(len(h) for h in symmetric_group_3().subgroups()) == [1, 2, 2, 2, 3, 6]

    def test_q8_subgroup_orders(self):
        assert sorted(len(h) for h in quaternion_group().subgroups()) == [1, 2, 4, 4, 4, 8]

    def test_z2j_subgroup_count(self):
        # Z_2^2 has three order-2 subgroups
        subs = elementary_abelian_group(2, 2).subgroups()
        assert sum(1 for h in subs if len(h) == 2) == 3

    @pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z6", "z7", "z8", "z2^2", "z2^3", "s3", "d4", "q8"])
    def test_matches_closed_subsets_bruteforce(self, name):
        # In a finite group the nonempty subsets closed under the product
        # are the subgroups; each generated subgroup is the least of them
        # holding its generators.
        g = builtin_group(name)
        others = [x for x in range(g.order) if x != g.identity]
        closed = []
        for bits in range(1 << len(others)):
            h = {g.identity} | {x for k, x in enumerate(others) if bits >> k & 1}
            if all(g.mul(a, b) in h for a in h for b in h):
                closed.append(frozenset(h))
        assert sorted(g.subgroups(), key=sorted) == sorted(closed, key=sorted)
        for a in range(g.order):
            for b in range(g.order):
                least = min((h for h in closed if {a, b} <= h), key=len)
                assert g.subgroup_closure([a, b]) == least

    @pytest.mark.parametrize("j, total", [(4, 67), (5, 374)])
    def test_z2j_subgroup_total_is_gaussian_binomial_sum(self, j, total):
        # Subgroups of Z_2^j are the subspaces of GF(2)^j: the sum over k of
        # the Gaussian binomials [j choose k]_2.
        def gaussian(n, k):
            num = den = 1
            for i in range(k):
                num *= 2 ** (n - i) - 1
                den *= 2 ** (i + 1) - 1
            return num // den

        assert sum(gaussian(j, k) for k in range(j + 1)) == total
        assert len(builtin_group(f"z2^{j}").subgroups()) == total


class TestPartitions:
    def test_z4_empty(self):
        assert group_partitions(cyclic_group(4)) == []

    def test_z6_empty(self):
        assert group_partitions(cyclic_group(6)) == []

    def test_q8_empty(self):
        assert group_partitions(quaternion_group()) == []

    def test_z2_squared_single_partition(self):
        parts = group_partitions(elementary_abelian_group(2, 2))
        assert len(parts) == 1 and len(parts[0]) == 3

    def test_s3_partition_shape(self):
        g = symmetric_group_3()
        parts = group_partitions(g)
        assert len(parts) == 1
        partition = parts[0]
        sizes = sorted(len(p) for p in partition.parts)
        assert sizes == [1, 1, 1, 2]

    def test_parts_plus_identity_are_subgroups(self):
        for name in ["z2^2", "z3^2", "s3", "d4", "d5"]:
            g = builtin_group(name)
            subgroups = set(g.subgroups())
            for partition in group_partitions(g):
                for part in partition.parts:
                    assert frozenset(part | {g.identity}) in subgroups

    def test_cover_search_budget(self, monkeypatch):
        # z2^4 needs about 6,200 cover search calls: it finishes within the
        # module budget and raises past a smaller one
        g = builtin_group("z2^4")
        assert len(group_partitions(g)) > 1
        monkeypatch.setattr(groups, "PARTITION_SEARCH_BUDGET", 1000)
        with pytest.raises(SearchBudgetExceeded, match="exceeded 1000 calls"):
            group_partitions(g)

    def test_parts_cover_and_disjoint(self):
        for name in ["z2^2", "z3^2", "s3", "d4"]:
            g = builtin_group(name)
            for partition in group_partitions(g):
                seen: set[int] = set()
                for part in partition.parts:
                    assert not (seen & part)
                    seen |= part
                assert seen == set(range(g.order)) - {g.identity}


class TestPrimitivePartition:
    @pytest.mark.parametrize("p", [2, 3])
    def test_zp_squared_has_p_plus_1_parts(self, p):
        prim = primitive_partition(elementary_abelian_group(p, 2))
        assert prim is not None and len(prim) == p + 1

    def test_s3_four_parts(self):
        prim = primitive_partition(symmetric_group_3())
        assert prim is not None and len(prim) == 4

    def test_absent_for_z6(self):
        assert primitive_partition(cyclic_group(6)) is None

    @pytest.mark.parametrize("name", PARTITIONED + UNPARTITIONED)
    def test_matches_filtered_partitions(self, name):
        g = builtin_group(name)
        assert primitive_partition(g) == primitive_partition_filtered(g)

    @pytest.mark.parametrize("j", [5, 6])
    def test_z2j_singleton_parts_past_the_cover_budget(self, j):
        # group_partitions exhausts its budget here; every non-identity
        # element of Z_2^j is a subgroup less the identity on its own
        prim = primitive_partition(builtin_group(f"z2^{j}"))
        assert prim is not None and len(prim) == 2**j - 1
        assert all(len(part) == 1 for part in prim.parts)

    @pytest.mark.parametrize("name", PARTITIONED + UNPARTITIONED + ["d32", "z2^5", "z2^6"])
    def test_lists_no_subgroup_or_partition(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("listed")

        g = builtin_group(name)
        monkeypatch.setattr(groups, "group_partitions", refuse)
        monkeypatch.setattr(FinGroup, "subgroups", refuse)
        assert (primitive_partition(g) is None) == (name in UNPARTITIONED)

    @pytest.mark.parametrize("name", PARTITIONED)
    def test_conjugation_closed(self, name):
        g = builtin_group(name)
        prim = primitive_partition(g)
        assert prim is not None
        part_set = set(prim.parts)
        for gamma in range(g.order):
            for part in prim.parts:
                conj = frozenset(g.conjugate(gamma, a) for a in part)
                assert conj in part_set

    @pytest.mark.parametrize("name", ["z2^2", "z3^2", "s3", "d4", "d5", "z2^3"])
    def test_universality(self, name):
        g = builtin_group(name)
        prim = primitive_partition(g)
        assert prim is not None
        for other in group_partitions(g):
            assert refines(prim, other)
            # the parts of prim inside each part B of other partition B
            for big in other.parts:
                inside = [p for p in prim.parts if p <= big]
                assert set().union(*inside) == set(big)


class TestBuiltinParsing:
    def test_specs(self):
        assert builtin_group("z4").order == 4
        assert builtin_group("Z2^3").order == 8
        assert builtin_group("d6").order == 12
        assert builtin_group("s3").order == 6
        assert builtin_group("q8").order == 8

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin_group("f20")

    def test_order_cap(self):
        assert builtin_group("z64").order == builtin_group("z2^6").order == 64
        for spec in ["z65", "z2^7", "z2^1000000000000", "d33", "z100000"]:
            with pytest.raises(ValueError, match="capped at order 64"):
                builtin_group(spec)
