"""Full gain graphs over finite groups: balance, switching, and the lifts.

The full gain graph on n vertices over a group has every group label on
every vertex pair; the edge (i, j, label) with i < j is oriented from i to
j.  Edges are enumerated canonically (vertex pairs lexicographic, labels in
group order) and edge sets are bit masks over that enumeration, so they plug
directly into the matroid kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Optional

from matlift.core import MAX_GROUND, Mask, Matroid, elements_of, mask_of, matroid_from_hyperplanes
from matlift.groups import FinGroup, GroupPartition, primitive_partition


class NoPartitionError(ValueError):
    """The group has no nontrivial partition, so the rank-2 lift does not exist."""


@dataclass(frozen=True)
class GainEdge:
    """Edge (i, j, label) with 0-based vertices i < j, oriented i -> j."""

    i: int
    j: int
    label: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got ({self.i}, {self.j})")


class GainGraph:
    """The full gain graph on n >= 3 vertices over a finite group."""

    __slots__ = ("group", "n", "edges", "_index")

    def __init__(self, group: FinGroup, n: int) -> None:
        if n < 3:
            raise ValueError("gain graphs here have at least 3 vertices")
        count = n * (n - 1) // 2 * group.order
        if count > MAX_GROUND:
            raise ValueError(f"edge count {count} exceeds the {MAX_GROUND}-element cap")
        self.group = group
        self.n = n
        self.edges = tuple(
            GainEdge(i, j, label)
            for i, j in combinations(range(n), 2)
            for label in range(group.order)
        )
        self._index = {(e.i, e.j, e.label): k for k, e in enumerate(self.edges)}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_index(self, i: int, j: int, label: int) -> int:
        return self._index[(i, j, label)]

    def pair_mask(self, i: int, j: int) -> Mask:
        """All edges between a fixed vertex pair."""
        return mask_of(
            self.edge_index(i, j, label) for label in range(self.group.order)
        )

    def labels_mask(self, labels: Iterable[int]) -> Mask:
        """E_A: all edges whose label lies in the given set."""
        lab = set(labels)
        return mask_of(
            k for k, e in enumerate(self.edges) if e.label in lab
        )

    def graphic_flats(self) -> list[Mask]:
        """The flats of the graphic matroid: for each partition of the
        vertices, the edges with both ends in one block (Bell(n) flats),
        ordered by size, then value."""
        # Partitions as restricted growth strings: vertex v joins one of the
        # blocks opened so far or opens the next one.
        blocks = [[0]]
        for _ in range(1, self.n):
            blocks = [b + [k] for b in blocks for k in range(max(b) + 2)]
        flats = [mask_of(k for k, e in enumerate(self.edges) if b[e.i] == b[e.j]) for b in blocks]
        return sorted(flats, key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class Cycle:
    """A cycle of the underlying multigraph, as a closed edge walk, and
    whether it is balanced: the oriented label product along the walk is
    the identity."""

    edges: tuple[int, ...]
    mask: Mask
    balanced: bool


def cycles(gg: GainGraph) -> list[Cycle]:
    """All cycles: parallel pairs on 2 vertex sets and, on k >= 3 vertices,
    one label choice per consecutive pair along each cyclic vertex order.

    A 2-cycle carries two distinct labels, so it is never balanced.  A
    longer one is balanced when the product along its walk is the identity,
    an edge traversed against its i -> j orientation giving the inverse of
    its label; reversing the walk inverts the product and rotating it
    conjugates it, so the verdict does not depend on where the walk starts.
    """
    out: list[Cycle] = []
    g = gg.group
    order = g.order
    for i, j in combinations(range(gg.n), 2):
        for a, b in combinations(range(order), 2):
            e1 = gg.edge_index(i, j, a)
            e2 = gg.edge_index(i, j, b)
            out.append(Cycle((e1, e2), (1 << e1) | (1 << e2), False))
    for k in range(3, gg.n + 1):
        for verts in combinations(range(gg.n), k):
            v0 = verts[0]
            for middle in permutations(verts[1:]):
                if middle[0] > middle[-1]:
                    continue  # each cyclic order once, up to direction
                walk = (v0, *middle, v0)
                pairs = [tuple(sorted((walk[s], walk[s + 1]))) for s in range(k)]
                forward = [walk[s] < walk[s + 1] for s in range(k)]
                for labels in product(range(order), repeat=k):
                    idxs = tuple(gg.edge_index(*p, lab) for p, lab in zip(pairs, labels))
                    value = g.identity
                    for lab, fwd in zip(labels, forward):
                        value = g.mul(value, lab if fwd else g.inv(lab))
                    out.append(Cycle(idxs, mask_of(idxs), value == g.identity))
    return out


def switching_orbit(gg: GainGraph, mask: Mask) -> tuple[Mask, list[Mask]]:
    """Canonical form (lexicographically least mask) and the full orbit of an
    edge set under all switchings.  Composite switchings send the label of
    (i, j) to g_i^-1 * label * g_j, so the orbit is the image over all
    per-vertex value tuples."""
    g = gg.group
    k = g.order
    if k ** gg.n > 1 << 20:
        raise ValueError("switching orbit enumeration too large")
    # The image of the mask's edges on a vertex pair (i, j) depends only on
    # (g_i, g_j): one table per pair, indexed g_i * order + g_j.
    tables: dict[tuple[int, int], list[Mask]] = {}
    for idx in elements_of(mask):
        e = gg.edges[idx]
        row = tables.setdefault((e.i, e.j), [0] * (k * k))
        for a in range(k):
            left = g.mul(g.inv(a), e.label)
            for b in range(k):
                row[a * k + b] |= 1 << gg.edge_index(e.i, e.j, g.mul(left, b))
    seen: set[Mask] = set()
    for values in product(range(k), repeat=gg.n):
        image = 0
        for (i, j), row in tables.items():
            image |= row[values[i] * k + values[j]]
        seen.add(image)
    orbit = sorted(seen)
    return orbit[0], orbit


def graphic_matroid(gg: GainGraph) -> Matroid:
    """The matroid of the underlying multigraph: circuits are its cycles.
    The base of ``zaslavsky_lift``."""
    return Matroid(len(gg.edges), (c.mask for c in cycles(gg)))


def balanced_class_indices(gg: GainGraph, m: Matroid) -> frozenset[int]:
    """Indices (in m's canonical circuit order) of the balanced cycles: the
    linear class of ``zaslavsky_lift``."""
    balanced = {c.mask for c in cycles(gg) if c.balanced}
    return frozenset(k for k, c in enumerate(m.circuits) if c in balanced)


def zaslavsky_lift(gg: GainGraph) -> Matroid:
    """The elementary lift of the graphic matroid along the balanced cycles.

    Kept, with no command, as Zaslavsky's lift matroid of a gain graph, the
    construction that the paper's gain-graph lifts generalise.  Balanced
    cycles always form a linear class, and in the lift a cycle is a circuit
    iff it is balanced.
    """
    from matlift.lifts import elementary_lift

    base = graphic_matroid(gg)
    return elementary_lift(base, balanced_class_indices(gg, base))


def balanced_circuit_audit(m: Matroid, gg: GainGraph) -> Optional[Cycle]:
    """The first cycle of ``gg`` whose balance disagrees with its being a
    circuit of ``m``, a matroid on the edges of ``gg``, or None when the
    circuits among the cycles are exactly the balanced ones."""
    if m.n != len(gg.edges):
        raise ValueError("matroid is not on the edge set of the gain graph")
    return next((c for c in cycles(gg) if c.balanced != m.is_circuit(c.mask)), None)


@dataclass(frozen=True)
class Rank2LiftResult:
    """The rank-2 lift of the 3-vertex gain graph and the data it is built
    from; ``rank2_lift_k3`` certifies it before returning."""

    matroid: Matroid
    gain_graph: GainGraph
    partition: GroupPartition
    hyperplanes: tuple[Mask, ...]


def rank2_lift_k3(group: FinGroup) -> Rank2LiftResult:
    """The rank-2 lift of the graphic matroid of the full 3-vertex gain graph
    over a group with a nontrivial partition.

    Hyperplanes are (a) the switching orbits of the label sets A | {identity}
    for parts A of the primitive partition and (b) the three per-pair edge
    sets.  ``matroid_from_hyperplanes`` validates the family once and builds
    the matroid through duality at claimed rank 4; the construction is
    certified by the balance audit and the quotient test against the graphic
    matroid, which checks that each of the graphic flats
    (``GainGraph.graphic_flats``, one per vertex partition) is a flat of the
    lift, and either failure raises ``AssertionError``.  No cycle family is
    built or validated.
    """
    if group.order > 8:
        raise ValueError("rank-2 lift construction is capped at group order 8")
    partition = primitive_partition(group)
    if partition is None:
        raise NoPartitionError(f"{group.name} has no nontrivial partition")
    gg = GainGraph(group, 3)
    eps = group.identity

    hyperplanes: set[Mask] = set()
    for part in partition.parts:
        seed = gg.labels_mask(set(part) | {eps})
        _, orbit = switching_orbit(gg, seed)
        hyperplanes.update(orbit)
    for i, j in combinations(range(3), 2):
        hyperplanes.add(gg.pair_mask(i, j))
    fam = tuple(sorted(hyperplanes))

    lift = matroid_from_hyperplanes(fam, len(gg.edges), 4)  # raises on any other rank
    mismatch = balanced_circuit_audit(lift, gg)
    if mismatch is not None:
        raise AssertionError(f"balance audit failed at {mismatch}")
    if not all(lift.is_flat(f) for f in gg.graphic_flats()):
        raise AssertionError("graphic matroid is not a quotient of the lift")
    return Rank2LiftResult(lift, gg, partition, fam)
