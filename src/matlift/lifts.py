"""Lift constructions: the M^N lift as a rank oracle (``LiftSpec``), and
the elementary lift from a linear class as the M^N of a rank-1 overlay
(``ClassOverlay``).

The overlay matroid N lives on the circuit list of a base matroid M, indexed
in M's canonical circuit order.  N only has to provide a rank oracle, so both
circuit-family matroids and GF(p) column-vector matroids work as overlays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from matlift.core import (
    CheckFailedError,
    Mask,
    Matroid,
    RankMatroid,
    ValidationReport,
    circuits_from_rank_oracle,
    elements_of,
    mask_of,
    one_based,
)

# Ground sets up to this size may be checked over all 2^n subsets
# (``lift_ranks``: ``verify_witness`` and ``evaluate_lift_formula``).
MAX_SWEEP_GROUND = 16

# Entries of one ``LiftSpec``'s overlay rank memo; past the cap new ranks
# are computed but not stored.
RANK_CACHE_LIMIT = 1 << 20


class LiftConditionError(CheckFailedError):
    """The overlay fails the modular-pair closure condition (*')."""

    def __init__(self, witness: "StarWitness") -> None:
        super().__init__(f"lift condition (*') fails: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class StarWitness:
    """A failing instance: circuit ``c`` escapes cl_N of the collection."""

    collection: tuple[int, ...]
    circuit: int

    def __str__(self) -> str:
        return f"circuit #{self.circuit + 1} not in cl_N of {{{', '.join(str(i + 1) for i in self.collection)}}}"


class LiftSpec(RankMatroid):
    """The lift M^N of a base matroid M and an overlay N on M's circuit
    list, as a rank oracle on M's ground set: r(X) = r_M(X) + r_N({circuits
    of M inside X}), both terms read from one ``rank_and_circuits`` query,
    and rank r(M) + r(N).  It is a matroid rank function when the spec
    passes (*'); ``build_lift`` materializes it then.

    Every overlay query goes through ``overlay_rank``, which asks N for the
    rank of one representative per parallel class met: the least element
    of each class (its head).  r_N(S) equals r_N(reps(S)), so the spec
    memoizes N's ranks by reps(S): at most one key per set of classes, and
    ``RANK_CACHE_LIMIT`` keys in all.  This grow-only dict is the only rank
    memo, as N's ranks are the only ones asked again and again.  The class
    table is built once, from ``overlay.parallel_classes()``: a mask of the
    singleton classes, and each larger class with its head.
    """

    __slots__ = ("base", "overlay", "_table", "_memo")

    def __init__(self, base: Matroid, overlay: RankMatroid) -> None:
        if overlay.n != len(base.circuits):
            raise ValueError(
                f"overlay ground set has {overlay.n} elements, "
                f"base has {len(base.circuits)} circuits"
            )
        self.base = base
        self.overlay = overlay
        self.n = base.n
        self.full_rank = base.full_rank + overlay.full_rank
        classes = overlay.parallel_classes()
        singles = mask_of(c.bit_length() - 1 for c in classes if c & (c - 1) == 0)
        self._table = (singles, tuple((c, c & -c) for c in classes if c & (c - 1)))
        self._memo: dict[Mask, int] = {}

    def rank(self, mask: Mask) -> int:
        r, inside = self.base.rank_and_circuits(mask)
        return r + self.overlay_rank(inside)

    def overlay_rank(self, mask: Mask) -> int:
        """r_N(mask) as r_N(reps(mask)), memoized by reps(mask).  reps
        keeps mask's singleton classes, drops its loops and adds the head
        of each class of two or more elements that mask meets."""
        singles, multi = self._table
        reps = mask & singles
        for c, head in multi:
            if mask & c:
                reps |= head
        memo = self._memo
        r = memo.get(reps)
        if r is None:
            r = self.overlay.rank(reps)
            if len(memo) < RANK_CACHE_LIMIT:
                memo[reps] = r
        return r


def is_modular_pair(m: Matroid, c1: Mask, c2: Mask) -> bool:
    """True iff distinct circuits c1, c2 satisfy |c1 | c2| - r(c1 | c2) = 2."""
    if c1 == c2:
        raise ValueError("modular pair needs distinct circuits")
    if not (m.is_circuit(c1) and m.is_circuit(c2)):
        raise ValueError("modular pair arguments must be circuits")
    union = c1 | c2
    return union.bit_count() - m.rank(union) == 2


def _with_member(parts: list[Mask], union: Mask, c: Mask) -> Optional[list[Mask]]:
    """The private parts (each member's elements outside the other members)
    of a collection with private parts ``parts`` and union ``union`` once
    circuit ``c`` joins it, or None when one of them is empty: each member
    loses c's elements, and c keeps those outside the union."""
    own = c & ~union
    if not own:
        return None
    grown = [p & ~c for p in parts]
    if not all(grown):
        return None
    grown.append(own)
    return grown


def is_perfect(m: Matroid, circuits: Iterable[Mask]) -> bool:
    """Perfect collection test: nullity of the union equals the collection
    size and no member lies inside the union of the others."""
    col = list(circuits)
    for c in col:
        if not m.is_circuit(c):
            raise ValueError(f"{one_based(c)} is not a circuit")
    parts: list[Mask] = []
    union = 0
    for c in col:
        grown = _with_member(parts, union, c)
        if grown is None:
            return False
        parts, union = grown, union | c
    return union.bit_count() - m.rank(union) == len(col)


class ClassOverlay(RankMatroid):
    """The overlay of Crapo's elementary lift along a class of M's circuits:
    rank at most 1 on M's circuit list, the class its loops and every other
    circuit in one parallel class.  M^N for this N is the elementary lift,
    whose rank goes up by one on exactly the sets with a circuit outside the
    class, and (*') for it says that the class is linear: a modular pair
    inside the class has rank 0, so every circuit inside its union must be
    a loop too."""

    __slots__ = ("loops",)

    def __init__(self, count: int, members: Iterable[int]) -> None:
        s = set(members)
        for i in s:
            if not 0 <= i < count:
                raise ValueError(f"circuit index {i} out of range")
        self.n = count
        self.loops = mask_of(s)
        self.full_rank = int(count > len(s))

    def rank(self, mask: Mask) -> int:
        return int(mask & ~self.loops != 0)

    def parallel_classes(self) -> list[Mask]:
        rest = self.full_mask & ~self.loops
        return [rest] if rest else []


def is_linear_class(m: Matroid, members: Iterable[int]) -> bool:
    """True iff the circuit-index set is closed under modular pairs: for any
    modular pair inside it, every circuit of M within the union is inside.
    That is (*') for its ``ClassOverlay``."""
    return check_star_prime(LiftSpec(m, ClassOverlay(len(m.circuits), members)))[0]


def elementary_lift(m: Matroid, members: Iterable[int]) -> Matroid:
    """The elementary lift of M along a linear class of circuits: the lift
    M^N of its ``ClassOverlay``.  Raises ``LiftConditionError`` when the
    class is not linear."""
    return build_lift(LiftSpec(m, ClassOverlay(len(m.circuits), members)))


def _first_escape(rank: Callable[[Mask], int], members: Mask, targets: Mask) -> Optional[int]:
    """The lowest index in ``targets`` outside cl_N(members), or None, for
    N with rank function ``rank``.

    ``targets`` lies inside cl_N(members) exactly when r_N(members |
    targets) = r_N(members), so one rank query beyond r_N(members) settles
    the check; only when the rank goes up are the targets walked in index
    order to name the first one that escapes.
    """
    if not targets:
        return None
    base_rank = rank(members)
    if rank(members | targets) == base_rank:
        return None
    return next((k for k in elements_of(targets) if rank(members | (1 << k)) != base_rank), None)


def _perfect_walk(spec: LiftSpec, max_size: int) -> tuple[bool, Optional[StarWitness]]:
    """The closure requirement over every perfect collection of two to
    ``max_size`` circuits; returns a witness on failure.

    Collections are walked depth-first by size, in index order; every
    subset of a perfect collection is perfect, so branches rooted at a
    non-perfect collection are skipped.  Collection size is bounded by the
    corank of M.  A circuit that spans N alone spans every collection that
    holds it, so no circuit escapes there and only the other circuits join
    collections: for a ``ClassOverlay`` that is the class.  A collection
    carries its union, the circuits inside it and its members' private
    parts, so circuit c extends a perfect collection of k members exactly
    when the new union has at most r(M) + k + 1 elements (its nullity is
    at least its size less r(M)), ``_with_member`` leaves every part
    nonempty (c is not inside the union, and no member lies inside the
    others and c) and the new union has nullity k + 1.  Each distinct
    union is indexed once (``rank_and_circuits``), which gives both its
    rank and the circuits inside it, and each collection costs two overlay
    rank queries (``_first_escape``).  The walk starts from each joinable
    circuit alone, with no query: it is the only circuit inside its union.
    """
    m = spec.base
    circuits = m.circuits
    full = spec.overlay.full_rank
    joinable = [i for i in range(len(circuits)) if spec.overlay_rank(1 << i) < full]
    max_size = min(max_size, m.n - m.full_rank)
    indexed: dict[Mask, tuple[int, Mask]] = {}

    def extend(start: int, chosen: list[int], union: Mask, inside: Mask, parts: list[Mask]) -> Optional[StarWitness]:
        members = mask_of(chosen)
        k = _first_escape(spec.overlay_rank, members, inside & ~members)
        if k is not None:
            return StarWitness(tuple(chosen), k)
        if len(chosen) == max_size:
            return None
        nullity = len(chosen) + 1
        bound = m.full_rank + nullity
        for at in range(start, len(joinable)):
            nxt = joinable[at]
            nunion = union | circuits[nxt]
            size = nunion.bit_count()
            if size > bound:
                continue
            grown = _with_member(parts, union, circuits[nxt])
            if grown is None:
                continue
            got = indexed.get(nunion)
            if got is None:
                got = indexed[nunion] = m.rank_and_circuits(nunion)
            if size - got[0] == nullity:
                chosen.append(nxt)
                bad = extend(at + 1, chosen, nunion, got[1], grown)
                if bad is not None:
                    return bad
                chosen.pop()
        return None

    for at, i in enumerate(joinable):
        witness = extend(at + 1, [i], circuits[i], 1 << i, [circuits[i]])
        if witness is not None:
            return False, witness
    return True, None


def check_star_prime(spec: LiftSpec) -> tuple[bool, Optional[StarWitness]]:
    """Condition (*'): for every modular pair {C1, C2} every circuit of M
    inside C1 | C2 lies in cl_N({C1, C2}).  Returns a witness on failure.
    Two distinct circuits are a perfect collection exactly when they are a
    modular pair, so this is (*) stopped at collections of two, with pairs
    in ``combinations`` order."""
    return _perfect_walk(spec, 2)


def check_star(spec: LiftSpec) -> tuple[bool, Optional[StarWitness]]:
    """Condition (*): the closure requirement over every perfect
    collection.  Returns a witness on failure."""
    return _perfect_walk(spec, len(spec.base.circuits))


def build_lift(spec: LiftSpec) -> Matroid:
    """The lift M^N: ``spec.rank`` materialized as a circuit family.

    Refuses overlays failing (*'); the result is axiom-validated and has
    rank ``spec.full_rank`` = r(M) + r(N).
    """
    ok, witness = check_star_prime(spec)
    if not ok:
        assert witness is not None
        raise LiftConditionError(witness)
    fam = circuits_from_rank_oracle(spec.rank, spec.n)
    return Matroid(spec.n, fam)


def lift_ranks(spec: LiftSpec) -> Iterator[tuple[Mask, int]]:
    """(X, r_M(X) + r_N({circuits of M|X})) for every X, from M's
    ``rank_sweep``: one overlay rank query per set.  Refuses (``ValueError``)
    ground sets above ``MAX_SWEEP_GROUND`` elements."""
    require_sweepable(spec.base.n)
    rank = spec.overlay_rank
    return ((x, r + rank(inside)) for x, r, inside in spec.base.rank_sweep())


def require_sweepable(n: int) -> None:
    """Raise ``ValueError`` when n exceeds ``MAX_SWEEP_GROUND``, the largest
    ground set whose 2^n subsets are checked one by one."""
    if n > MAX_SWEEP_GROUND:
        raise ValueError(f"exhaustive check over all 2^{n} subsets refused; needs at most {MAX_SWEEP_GROUND} elements")


def evaluate_lift_formula(spec: LiftSpec) -> tuple[Optional[Matroid], ValidationReport]:
    """Diagnostic mode: evaluate the lift rank formula without requiring (*').

    Checks unit increase and local submodularity over all subsets and
    reports the first violation, with the masks (X, {e}) or (X, {e}, {f})
    as its witness; when none is found the materialized
    matroid is returned alongside an ok report.  Normalization and
    monotonicity need no check: r(empty) = r_M(empty) + r_N(empty) = 0, and
    both terms of the formula are monotone, since the circuits inside X
    only grow with X.  Exhaustive over 2^n subsets, so ``lift_ranks``
    refuses ground sets above ``MAX_SWEEP_GROUND``.
    """
    n = spec.base.n
    swept = lift_ranks(spec)  # refuses a large n before the table is made
    full = (1 << n) - 1
    ranks = [0] * (full + 1)
    for mask, r in swept:
        ranks[mask] = r
    for mask in range(full + 1):
        rest = full & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if ranks[mask | low] - ranks[mask] > 1:
                return None, ValidationReport(False, "unit-increase", (mask, low))
    # Local submodularity r(X+e) + r(X+f) >= r(X+e+f) + r(X) is equivalent
    # to the global form given the other axioms.
    for mask in range(full + 1):
        outside = [1 << e for e in range(n) if not (mask >> e) & 1]
        for a in range(len(outside)):
            for b in range(a + 1, len(outside)):
                e, f = outside[a], outside[b]
                if ranks[mask | e] + ranks[mask | f] < ranks[mask | e | f] + ranks[mask]:
                    return None, ValidationReport(False, "submodularity", (mask, e, f))
    return Matroid(n, circuits_from_rank_oracle(ranks.__getitem__, n)), ValidationReport(True)
