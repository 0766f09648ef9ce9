"""The K(r,t) family: construction, sparse-paving certificate, the
obstruction report behind the non-representability proof, Ingleton checks,
and Vamos-like minor scans.

Ground set is [2t+2] (stored 0-based).  The blocks C_1, ..., C_t are cyclic
intervals of length r-2 in [2t]; modulo arithmetic on 1-based labels maps
residue 0 back to 2t so the element names match the published tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional

from matlift.core import (
    Mask,
    Matroid,
    elements_of,
    find_isomorphism,
    is_sparse_paving,
    mask_of,
    minors_with_shape,
    one_based,
    subsets_of_size,
)

MINOR_SCAN_LIMIT = 14  # largest ground set antichain_check's minor search accepts


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


def intersection_certificate(spec: KrtSpec) -> bool:
    """The sparse-paving witness: no two declared circuit-hyperplanes meet in
    r-1 elements (pairwise intersections all have size <= r-2)."""
    chs = spec.circuit_hyperplanes
    return all(
        (a & b).bit_count() <= spec.r - 2 for a, b in combinations(chs, 2)
    )


def build_krt(spec: KrtSpec, *, validate: bool = True) -> Matroid:
    """Build K(r,t): declared circuit-hyperplanes plus every (r+1)-subset
    containing none of them.

    Validation certifies a rank-r sparse paving matroid through the pairwise
    intersection certificate and the sparse paving predicate; the antichain
    property holds structurally (members have sizes r and r+1, and the
    larger ones avoid every declared r-set).  Full pairwise circuit
    elimination is equivalent for such families and is exercised separately
    in the test suite.
    """
    if validate and not intersection_certificate(spec):
        raise ValueError(f"intersection certificate fails for {spec}")
    chs = set(spec.circuit_hyperplanes)
    n = spec.ground_size
    full = (1 << n) - 1
    fam = list(chs)
    for mask in subsets_of_size(full, spec.r + 1):
        if not any(ch & ~mask == 0 for ch in chs):
            fam.append(mask)
    m = Matroid(n, fam, validate=False)
    if validate:
        if m.full_rank != spec.r or not is_sparse_paving(m):
            raise ValueError(f"K({spec.r},{spec.t}) failed the sparse paving check")
    return m


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


def obstruction_report(spec: KrtSpec, k: Matroid) -> ObstructionReport:
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
    m: Matroid, a: Mask, b: Mask, c: Mask, d: Mask
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
    pairs: tuple[Mask, Mask, Mask, Mask]

    def as_dict(self) -> dict:
        return {
            "core": one_based(self.core),
            "pairs": [one_based(p) for p in self.pairs],
        }


def is_ingleton_sparse_paving(m: Matroid) -> tuple[bool, Optional[IngletonWitness]]:
    """The sparse-paving Ingleton criterion.

    A rank-r sparse paving matroid is Ingleton iff there is no disjoint
    configuration (I, P1, P2, P3, P4) with |I| = r-4, |P_i| = 2, where
    I | P_i | P_j is a circuit for all {i,j} != {3,4} while I | P3 | P4 is a
    basis.  Those five circuits are circuit-hyperplanes containing I, so the
    search runs over the circuit-hyperplanes through each core I, and the
    witness is read off the first support in combinations order.
    """
    if not is_sparse_paving(m):
        raise ValueError("criterion applies to sparse paving matroids only")
    r = m.full_rank
    if r < 4:
        return True, None
    chs = [c for c in m.circuits if c.bit_count() == r]
    ch_set = set(chs)

    # Every witness core is such an intersection: I | P1 | P3 and I | P2 | P4
    # are circuit-hyperplanes that meet in exactly I.
    cores = {c1 & c2 for c1, c2 in combinations(chs, 2) if (c1 & c2).bit_count() == r - 4}
    for core in sorted(cores):
        quads = {ch & ~core for ch in chs if core & ~ch == 0}
        supports = _five_of_six_supports(quads, lambda s: m.is_basis(core | s))
        if supports:
            return False, _pair_partition_witness(m, ch_set, core, min(supports, key=elements_of))
    return True, None


def _five_of_six_supports(quads: set[Mask], sixth_ok: Callable[[Mask], bool]) -> set[Mask]:
    """Every 8-set P1 | P2 | P3 | P4 of four disjoint pairs whose unions
    P1P2, P1P3, P1P4, P2P3, P2P4 are in ``quads`` while P3P4 is not and
    passes ``sixth_ok``.

    P1 and P2 are the pairs in three of the five unions, so a = P1P2 and
    b = P1P3 meet in P1, and every third member through P1 gives a P4.
    O(|quads|^3).
    """
    out = set()
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
                if p2 | p4 in quads and p3 | p4 not in quads and sixth_ok(p3 | p4):
                    out.add(a | b | p4)
    return out


def _pair_partition_witness(
    m: Matroid, ch_set: set[Mask], core: Mask, eight: Mask
) -> Optional[IngletonWitness]:
    for pairs, (i, j) in _five_of_six_pairings(elements_of(eight), lambda q: core | q in ch_set):
        if m.is_basis(core | pairs[i] | pairs[j]):
            others = [k for k in range(4) if k not in (i, j)]
            return IngletonWitness(core, (pairs[others[0]], pairs[others[1]], pairs[i], pairs[j]))
    return None


def _five_of_six_pairings(
    elems: list[int], in_family: Callable[[Mask], bool]
) -> Iterator[tuple[list[Mask], tuple[int, int]]]:
    """Pairings of eight elements, in ``_pairings`` order, where exactly five
    of the six pair unions are in the family; each comes with the positions
    (i, j) of the one union that is not."""
    for pairs in _pairings(elems):
        missing = [(i, j) for i, j in combinations(range(4), 2) if not in_family(pairs[i] | pairs[j])]
        if len(missing) == 1:
            yield pairs, missing[0]


def _pairings(elems: list[int]) -> Iterator[list[Mask]]:
    """All perfect matchings of an even element list, as pair masks."""
    if not elems:
        yield []
        return
    first = elems[0]
    for k in range(1, len(elems)):
        mate = elems[k]
        rest = elems[1:k] + elems[k + 1 :]
        for sub in _pairings(rest):
            yield [mask_of([first, mate])] + sub


def is_vamos_like(m: Matroid) -> Optional[tuple[Mask, Mask, Mask, Mask]]:
    """A partition of an 8-element rank-4 sparse paving matroid into four
    pairs such that exactly five of the six pair unions are circuits, or
    None.  Raises on inputs outside that shape."""
    if m.n != 8 or m.full_rank != 4:
        raise ValueError("Vamos-likeness applies to rank-4 matroids on 8 elements")
    minors = scan_vamos_like_minors(m)  # m is its only such minor
    return minors[0].partition if minors else None


@dataclass(frozen=True)
class VamosLikeMinor:
    """A rank-4, 8-element Vamos-like minor: which elements were contracted
    and deleted (original labels) and the pair partition in minor labels."""

    contracted: Mask
    deleted: Mask
    partition: tuple[Mask, Mask, Mask, Mask]

    def as_dict(self) -> dict:
        return {
            "contracted": one_based(self.contracted),
            "deleted": one_based(self.deleted),
            "partition": [one_based(p) for p in self.partition],
        }


def scan_vamos_like_minors(m: Matroid) -> list[VamosLikeMinor]:
    """Every Vamos-like rank-4, 8-element minor M/C\\D of a sparse paving M,
    ordered by C and then by D in combinations order.

    Every (r-4)-set C is independent and every D of size n-r-4 outside C is
    coindependent.  The minor on S = E - C - D is sparse paving, and its
    circuit-hyperplanes are the sets H - C inside S for the
    circuit-hyperplanes H of M that contain C.  So the Vamos-like minors
    are the supports of five-of-six configurations among those sets, found
    without materializing any minor.
    """
    if not is_sparse_paving(m):
        raise ValueError("Vamos-like minors are searched in sparse paving matroids only")
    r = m.full_rank
    if r < 4:
        return []
    chs = [c for c in m.circuits if c.bit_count() == r]
    out = []
    for cmask in subsets_of_size(m.full_mask, r - 4):
        rest = m.full_mask & ~cmask
        quads = {ch & ~cmask for ch in chs if cmask & ~ch == 0}
        supports = _five_of_six_supports(quads, lambda s: True)
        for s in sorted(supports, key=lambda s: elements_of(rest & ~s)):
            elems = elements_of(s)
            pairs, _ = next(_five_of_six_pairings(elems, quads.__contains__))
            local = [mask_of(elems.index(e) for e in elements_of(p)) for p in pairs]
            out.append(VamosLikeMinor(cmask, rest & ~s, tuple(sorted(local))))
    return out


def antichain_check(big: KrtSpec, small: KrtSpec, *, proper: bool = True) -> bool:
    """True iff no (proper) minor of K(big) is isomorphic to K(small)."""
    if not big.in_antichain_regime or not small.in_antichain_regime:
        raise ValueError("antichain check applies in the r <= 2t-3 regime")
    if big.ground_size > MINOR_SCAN_LIMIT:
        raise ValueError(f"antichain check supports at most {MINOR_SCAN_LIMIT} elements")
    m_big = build_krt(big)
    m_small = build_krt(small)
    same_shape = big.ground_size == small.ground_size and m_big.full_rank == m_small.full_rank
    if proper and same_shape:
        # The only candidate would be the zero-operation minor.
        return True
    if m_small.n > m_big.n or m_small.full_rank > m_big.full_rank:
        return True
    for _, _, minor in minors_with_shape(m_big, m_small.full_rank, m_small.n):
        if find_isomorphism(minor, m_small) is not None:
            return False
    return True
