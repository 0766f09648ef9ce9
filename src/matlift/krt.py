"""The K(r,t) family: construction as a sparse paving rank oracle, the
obstruction report behind the non-representability proof, Ingleton checks,
Vamos-like minor scans and the minor antichain check.

Ground set is [2t+2] (stored 0-based).  The blocks C_1, ..., C_t are cyclic
intervals of length r-2 in [2t]; modulo arithmetic on 1-based labels maps
residue 0 back to 2t so the element names match the published tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from matlift.core import (
    MAX_GROUND,
    Mask,
    RankMatroid,
    SparsePaving,
    elements_of,
    find_family_isomorphism,
    mask_of,
    one_based,
    subsets_of_size,
)

# four disjoint pairs of a five-of-six configuration
Pairing = tuple[Mask, Mask, Mask, Mask]


@dataclass(frozen=True)
class KrtSpec:
    """Parameters of K(r,t): rank r >= 4, t >= 3, r <= 2t-2.

    The Ingleton and antichain guarantees hold in the narrower regime
    r >= 5 and r <= 2t-3; both regimes are tracked and never extrapolated.
    """

    r: int
    t: int

    def __post_init__(self) -> None:
        if self.r < 4 or self.t < 3 or self.r > 2 * self.t - 2:
            raise ValueError(
                f"K(r,t) needs r >= 4, t >= 3, r <= 2t-2; got r={self.r}, t={self.t}"
            )
        if self.ground_size > MAX_GROUND:
            # refused before any block is listed, as SparsePaving would
            raise ValueError(f"ground set size {self.ground_size} outside [0, {MAX_GROUND}]")

    @property
    def ground_size(self) -> int:
        return 2 * self.t + 2

    @property
    def x_mask(self) -> Mask:
        return mask_of([2 * self.t, 2 * self.t + 1])

    @property
    def in_ingleton_regime(self) -> bool:
        return self.r >= 5 and self.r <= 2 * self.t - 3

    @property
    def in_antichain_regime(self) -> bool:
        return self.r <= 2 * self.t - 3

    def block(self, i: int) -> Mask:
        """C_i as a mask, i in [1, t]; labels wrap modulo 2t within [2t]."""
        if not 1 <= i <= self.t:
            raise ValueError(f"block index {i} outside [1, {self.t}]")
        mod = 2 * self.t
        labels = ((1 + 2 * (i - 1) + k - 1) % mod + 1 for k in range(self.r - 2))
        return mask_of(label - 1 for label in labels)

    @property
    def blocks(self) -> list[Mask]:
        return [self.block(i) for i in range(1, self.t + 1)]

    @property
    def c_prime(self) -> list[Mask]:
        """C'(r,t) = {C_i | X}."""
        x = self.x_mask
        return [b | x for b in self.blocks]

    @property
    def c_double_prime(self) -> list[Mask]:
        """C''(r,t) = {C_i | C_{i+1} : i in [t-1]}."""
        blocks = self.blocks
        return [blocks[i] | blocks[i + 1] for i in range(self.t - 1)]

    @property
    def circuit_hyperplanes(self) -> list[Mask]:
        return self.c_prime + self.c_double_prime


def build_krt(spec: KrtSpec) -> SparsePaving:
    """K(r,t): the rank-r sparse paving matroid on 2t+2 elements whose
    circuit-hyperplanes are C'(r,t) and C''(r,t), built without enumerating
    any subset.  ``SparsePaving`` raises ``ValueError`` when two of them
    share r-1 elements; ``KrtSpec`` refuses more than ``MAX_GROUND``."""
    return SparsePaving(spec.ground_size, spec.r, spec.circuit_hyperplanes)


@dataclass(frozen=True)
class FactWitness:
    """One rank computation backing an obstruction fact."""

    pair: tuple[int, int]
    union: Mask
    union_size: int
    rank_in_quotient: int
    rank_in_deletion: int

    @property
    def modular_defect(self) -> int:
        return self.union_size - self.rank_in_quotient

    @property
    def rank_gap(self) -> int:
        return self.rank_in_deletion - self.rank_in_quotient

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "union": one_based(self.union),
            "union_size": self.union_size,
            "rank_in_quotient": self.rank_in_quotient,
            "rank_in_deletion": self.rank_in_deletion,
            "modular_defect": self.modular_defect,
            "rank_gap": self.rank_gap,
        }


@dataclass(frozen=True)
class ObstructionReport:
    """Facts (a)-(d) of the no-overlay obstruction for K(r,t).

    With M = K/X and L = K\\X:
      (a) consecutive blocks form modular pairs of circuits of M,
      (b) (C_1, C_t) is a modular pair of circuits of M,
      (c) r_L - r_M = 1 on every consecutive block union,
      (d) r_L - r_M = 2 on C_1 | C_t.
    All four together rule out any overlay N with M^N = L: (a)+(c) force the
    blocks into one parallel chain of N while (b)+(d) force its endpoints
    independent.
    """

    spec: KrtSpec
    fact_a: bool
    fact_b: bool
    fact_c: bool
    fact_d: bool
    consecutive: tuple[FactWitness, ...]
    wraparound: FactWitness

    @property
    def all_true(self) -> bool:
        return self.fact_a and self.fact_b and self.fact_c and self.fact_d

    def as_dict(self) -> dict:
        return {
            "a": {"pass": self.fact_a, "witnesses": [w.as_dict() for w in self.consecutive]},
            "b": {"pass": self.fact_b, "witness": self.wraparound.as_dict()},
            "c": {"pass": self.fact_c, "witnesses": [w.as_dict() for w in self.consecutive]},
            "d": {"pass": self.fact_d, "witness": self.wraparound.as_dict()},
        }


def obstruction_report(spec: KrtSpec, k: RankMatroid) -> ObstructionReport:
    """Evaluate facts (a)-(d) on M = K/X and L = K\\X, where K is normally
    build_krt(spec) (any matroid on the same ground set is accepted).

    Neither minor is materialized: X holds the two top elements, so the
    block unions avoid it and r_M(S) = r_K(S | X) - r_K(X), r_L(S) = r_K(S).
    """
    x = spec.x_mask
    rank_x = k.rank(x)
    blocks = spec.blocks

    def rank_m(mask: Mask) -> int:
        return k.rank(mask | x) - rank_x

    def witness(i: int, j: int) -> FactWitness:
        union = blocks[i - 1] | blocks[j - 1]
        return FactWitness(
            pair=(i, j),
            union=union,
            union_size=union.bit_count(),
            rank_in_quotient=rank_m(union),
            rank_in_deletion=k.rank(union),
        )

    def is_circuit_of_m(b: Mask) -> bool:
        # Dependent with every one-element deletion independent.
        size = b.bit_count()
        return rank_m(b) == size - 1 and all(
            rank_m(b & ~(1 << e)) == size - 1 for e in elements_of(b)
        )

    consecutive = tuple(witness(i, i + 1) for i in range(1, spec.t))
    wrap = witness(1, spec.t)
    circuits_ok = all(is_circuit_of_m(b) for b in blocks)
    fact_a = circuits_ok and all(w.modular_defect == 2 for w in consecutive)
    fact_b = circuits_ok and wrap.modular_defect == 2
    fact_c = all(w.rank_gap == 1 for w in consecutive)
    fact_d = wrap.rank_gap == 2
    return ObstructionReport(spec, fact_a, fact_b, fact_c, fact_d, consecutive, wrap)


def ingleton_inequality(
    m: RankMatroid, a: Mask, b: Mask, c: Mask, d: Mask
) -> tuple[bool, int, int]:
    """Evaluate Ingleton's inequality for four subsets.

    Returns (satisfied, lhs, rhs) with lhs = r(A|B)+r(A|C)+r(A|D)+r(B|C)+r(B|D)
    and rhs = r(A)+r(B)+r(A|B|C)+r(A|B|D)+r(C|D).  Representable matroids
    satisfy lhs >= rhs on every quadruple, so a violation certifies
    non-representability.
    """
    lhs = m.rank(a | b) + m.rank(a | c) + m.rank(a | d) + m.rank(b | c) + m.rank(b | d)
    rhs = m.rank(a) + m.rank(b) + m.rank(a | b | c) + m.rank(a | b | d) + m.rank(c | d)
    return lhs >= rhs, lhs, rhs


@dataclass(frozen=True)
class IngletonWitness:
    """A failing configuration in the sparse-paving Ingleton criterion:
    I with four disjoint pairs, five block unions circuits, the sixth a
    basis.  (core, p3, p4) is the basis side; using the pairs in this order
    as the Ingleton quadruple yields a strict violation."""

    core: Mask
    pairs: Pairing

    def as_dict(self) -> dict:
        return {
            "core": one_based(self.core),
            "pairs": [one_based(p) for p in self.pairs],
        }


def is_ingleton_sparse_paving(sp: SparsePaving) -> tuple[bool, Optional[IngletonWitness]]:
    """The sparse-paving Ingleton criterion.

    A rank-r sparse paving matroid is Ingleton iff there is no disjoint
    configuration (I, P1, P2, P3, P4) with |I| = r-4, |P_i| = 2, where
    I | P_i | P_j is a circuit for all {i,j} != {3,4} while I | P3 | P4 is a
    basis (any r-set that is not a circuit-hyperplane).  The witness is
    read off the first core in increasing mask order and its first support
    in combinations order.
    """
    for core, supports in _configurations(sp):
        if supports:
            return False, IngletonWitness(core, supports[min(supports, key=elements_of)])
    return True, None


def _configurations(sp: SparsePaving) -> Iterator[tuple[Mask, dict[Mask, Pairing]]]:
    """(C, ``_five_of_six_supports`` of F_C) for F_C = {H - C : C ⊆ H
    circuit-hyperplane} at every core C of a five-of-six configuration, in
    increasing mask order: the (r-4)-element intersections of two
    circuit-hyperplanes, such as C | P1 | P3 and C | P2 | P4."""
    chs = sp.circuit_hyperplanes
    cores = {a & b for a, b in combinations(chs, 2) if (a & b).bit_count() == sp.r - 4}
    for core in sorted(cores):
        yield core, _five_of_six_supports({h & ~core for h in chs if core & ~h == 0})


def _five_of_six_supports(quads: set[Mask]) -> dict[Mask, Pairing]:
    """Every 8-set P1 | P2 | P3 | P4 of four disjoint pairs whose unions
    P1P2, P1P3, P1P4, P2P3, P2P4 are in ``quads`` while P3P4 is not, mapped
    to (P1, P2, P3, P4), each half sorted by least element.

    P1 and P2 are the pairs in three of the five unions, so a = P1P2 and
    b = P1P3 meet in P1, and every third member through P1 gives a P4.  A
    support may hold several such pairings, met several times each; it
    keeps the first in matching order, where the pairs, sorted by least
    element, compare as lists of masks (the partner of the least element
    varies slowest).  O(|quads|^3).
    """
    out: dict[Mask, Pairing] = {}
    for a in quads:
        for b in quads:
            p1 = a & b
            if p1.bit_count() != 2:
                continue
            p2, p3 = a & ~b, b & ~a
            if p2 | p3 not in quads:
                continue
            for c in quads:
                p4 = c & ~p1
                if c & p1 != p1 or p4 & (a | b):
                    continue
                if p2 | p4 in quads and p3 | p4 not in quads:
                    found = (*_by_least((p1, p2)), *_by_least((p3, p4)))
                    s = a | b | p4
                    out[s] = min(out.get(s, found), found, key=_by_least)
    return out


def _by_least(pairs: tuple[Mask, ...]) -> list[Mask]:
    """Disjoint masks sorted by least element."""
    return sorted(pairs, key=lambda p: p & -p)


@dataclass(frozen=True)
class VamosLikeMinor:
    """A rank-4, 8-element Vamos-like minor: which elements were contracted
    and deleted (original labels) and the pair partition in minor labels."""

    contracted: Mask
    deleted: Mask
    partition: Pairing

    def as_dict(self) -> dict:
        return {
            "contracted": one_based(self.contracted),
            "deleted": one_based(self.deleted),
            "partition": [one_based(p) for p in self.partition],
        }


def scan_vamos_like_minors(sp: SparsePaving) -> list[VamosLikeMinor]:
    """Every Vamos-like rank-4, 8-element minor M/C\\D of a sparse paving M,
    ordered by C and then by D in combinations order.

    Every (r-4)-set C is independent and every D of size n-r-4 outside C is
    coindependent.  The minor on S = E - C - D is sparse paving, and its
    circuit-hyperplanes are the sets H - C inside S for the
    circuit-hyperplanes H of M that contain C.  So the Vamos-like minors
    are the supports of five-of-six configurations among those sets, found
    without materializing any minor, at the cores of ``_configurations``.
    """
    out = []
    for core, supports in _configurations(sp):
        rest = sp.full_mask & ~core
        for s, pairs in supports.items():
            local = tuple(sorted(_in_labels_of(p, s) for p in pairs))
            out.append(VamosLikeMinor(core, rest & ~s, local))
    out.sort(key=lambda w: (elements_of(w.contracted), elements_of(w.deleted)))
    return out


def _in_labels_of(mask: Mask, ground: Mask) -> Mask:
    """``mask`` inside ``ground``, relabeled as in a minor on ``ground``."""
    elems = elements_of(ground)
    return mask_of(elems.index(e) for e in elements_of(mask))


def antichain_check(big: KrtSpec, small: KrtSpec) -> bool:
    """True iff no proper minor of K(big) is isomorphic to K(small).

    Kept, with no command, as the paper's claim that the K(r,t) of the
    r <= 2t-3 regime form a minor antichain.

    In the antichain regime n' - r' >= 5, so each (R - r')-set C and each
    set D of the remaining size give a minor K/C\\D of that shape, sparse
    paving with circuit-hyperplanes H - C for the H ⊇ C missing D (see
    scan_vamos_like_minors).  Sparse paving matroids of equal size and rank
    are isomorphic exactly when these families are, so only minors with
    2t'-1 of them are compared.
    """
    if not big.in_antichain_regime or not small.in_antichain_regime:
        raise ValueError("antichain check applies in the r <= 2t-3 regime")
    if big.ground_size == small.ground_size and big.r == small.r:
        # The only candidate would be the zero-operation minor.
        return True
    k_big = build_krt(big)
    want = build_krt(small).circuit_hyperplanes
    c_size = big.r - small.r
    d_size = big.ground_size - small.ground_size - c_size
    if c_size < 0 or d_size < 0:
        return True
    for cmask in subsets_of_size(k_big.full_mask, c_size):
        through = [h & ~cmask for h in k_big.circuit_hyperplanes if cmask & ~h == 0]
        if len(through) < len(want):
            continue
        rest = k_big.full_mask & ~cmask
        for dmask in subsets_of_size(rest, d_size):
            kept = [q for q in through if q & dmask == 0]
            if len(kept) != len(want):
                continue
            minor = [_in_labels_of(q, rest & ~dmask) for q in kept]
            if find_family_isomorphism(small.ground_size, minor, want) is not None:
                return False
    return True
