"""Differential test of ``find_isomorphism`` against networkx VF2.

Two matroids on the same ground size are isomorphic exactly when their
element-circuit incidence graphs, with elements and circuits coloured apart,
are isomorphic: a colour-preserving graph isomorphism maps elements to
elements and circuits onto circuits.  networkx is a test-only dependency.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from matlift.core import Matroid, elements_of, find_isomorphism, mask_of

from zoo import is_circuit_hyperplane, relabel, relax, zoo

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match  # noqa: E402

# Pure-Python VF2 takes seconds on the zoo's families of 400 or more
# circuits (K(5,5), K(6,5), K(7,5), lift3(S3)); the rest take milliseconds
# to 0.7 s each.
MAX_CIRCUITS = 200
RELAXATIONS = 3  # circuit-hyperplanes relaxed per member, chosen by seed


def incidence_graph(m: Matroid):
    g = nx.Graph()
    g.add_nodes_from((("e", e) for e in range(m.n)), kind="element")
    for k, c in enumerate(m.circuits):
        g.add_node(("c", k), kind="circuit")
        g.add_edges_from((("e", e), ("c", k)) for e in elements_of(c))
    return g


def vf2_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    matcher = GraphMatcher(incidence_graph(m1), incidence_graph(m2),
                           node_match=categorical_node_match("kind", None))
    return matcher.is_isomorphic()


def assert_agrees(m1: Matroid, m2: Matroid) -> bool:
    perm = find_isomorphism(m1, m2)
    expected = vf2_isomorphic(m1, m2)
    assert (perm is not None) == expected
    if perm is not None:
        images = {mask_of(perm[e] for e in elements_of(c)) for c in m1.circuits}
        assert images == set(m2.circuits)
    return expected


SMALL = [(name, m) for name, m in zoo() if len(m.circuits) <= MAX_CIRCUITS]


@pytest.mark.parametrize("name,m", SMALL, ids=[name for name, _ in SMALL])
def test_relabelings_and_relaxations(name, m):
    rng = random.Random(f"vf2:{name}")
    assert assert_agrees(m, relabel(m, rng))
    chs = [c for c in m.circuits if is_circuit_hyperplane(m, c)]
    relaxed = [relax(m, h) for h in rng.sample(chs, min(RELAXATIONS, len(chs)))]
    for r in relaxed:
        assert not assert_agrees(m, r)  # a relaxation has one basis more
    for r1, r2 in combinations(relaxed, 2):
        assert_agrees(r1, relabel(r2, rng))


def test_zoo_members_of_equal_size():
    pairs = [
        (m1, m2)
        for (_, m1), (_, m2) in combinations(SMALL, 2)
        if m1.n == m2.n and len(m1.circuits) == len(m2.circuits)
    ]
    assert pairs
    for m1, m2 in pairs:
        assert_agrees(m1, m2)
