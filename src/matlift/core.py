"""Circuit-based matroid kernel.

Matroids are stored by their circuit families (minimal dependent sets) over
a ground set {0, ..., n-1} with n <= 64.  Subsets are plain Python ints used
as bit masks; element i corresponds to bit ``1 << i``.  File formats and CLI
surfaces are 1-based, the conversion happens at the I/O boundary.

All operations are pure functions of their inputs.  Every matroid is
immutable after construction and keeps no memo (``lifts.LiftSpec``'s
grow-only overlay memo aside), so values can be shared freely across
threads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb, isqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence

Mask = int

MAX_GROUND = 64

DEFAULT_NODE_BUDGET = 10**7  # isomorphism search nodes before SearchBudgetExceeded


class CircuitAxiomError(ValueError):
    """A would-be circuit family violates the circuit axioms."""

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__(f"invalid circuit family: {report.describe()}")
        self.report = report


class HyperplaneAxiomError(ValueError):
    """A would-be hyperplane family violates the hyperplane axioms."""

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__(f"invalid hyperplane family: {report.describe()}")
        self.report = report


class CheckFailedError(ValueError):
    """A mathematical check on valid input failed; the CLI exits 1 on it."""


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search ran out of its node budget.

    Distinct from a negative answer: the search neither found a witness nor
    proved that none exists.
    """


def mask_of(elements: Iterable[int]) -> Mask:
    """Pack 0-based element indices into a bit mask."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: Mask) -> list[int]:
    """Unpack a bit mask into a sorted list of 0-based elements."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def one_based(mask: Mask) -> list[int]:
    return [e + 1 for e in elements_of(mask)]


def subsets_of_size(universe: Mask, k: int) -> Iterator[Mask]:
    """All k-element submasks of ``universe``."""
    elems = elements_of(universe)
    if k > len(elems):
        return
    for combo in combinations(elems, k):
        m = 0
        for e in combo:
            m |= 1 << e
        yield m


def is_prime(p: int) -> bool:
    """Trial division; shared by GF(p) matrices and the groups Z_p^j."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def canonical_circuits(circuits: Iterable[Mask]) -> tuple[Mask, ...]:
    """Deduplicate and sort by (popcount, numeric value); ties impossible."""
    ordered = sorted(set(circuits))
    ordered.sort(key=int.bit_count)  # stable: numeric order within a size
    return tuple(ordered)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom check: ``ok`` or the first violation found.
    ``witness`` holds bit masks, then the failing element's index for an
    elimination or exchange failure."""

    ok: bool
    kind: str = "ok"
    witness: tuple = ()

    def describe(self) -> str:
        if self.ok:
            return "ok"
        if self.kind in ("elimination", "exchange"):
            a, b, e = self.witness
            return f"{self.kind} fails at ({one_based(a)}, {one_based(b)}) with element {e + 1}"
        sets = ", ".join(str(one_based(w)) for w in self.witness)
        return f"{self.kind} witness={sets}"


def _check_members(members: Sequence[Mask], n: int) -> Optional[ValidationReport]:
    full = (1 << n) - 1
    for m in members:
        if m == 0:
            return ValidationReport(False, "empty-member", (m,))
        if m & ~full:
            return ValidationReport(False, "out-of-range", (m,))
    return None


# _AVOID_CHARS[j] maps a byte to "1" when its bit j is clear, else to "0".
_AVOID_CHARS = [bytes(49 - (v >> j & 1) for v in range(256)) for j in range(8)]


def _avoid_rows(fam: Sequence[Mask], n: int) -> list[Mask]:
    """Per element x of {0..n-1}, the bit mask of the indices k with x not
    in ``fam[k]`` (members must lie inside the ground set).

    Linear time: the members' bytes, last member first, are joined into one
    buffer; element x's row is one strided slice of it, translated to a
    binary numeral.
    """
    if not fam:
        return [0] * n
    width = (n + 7) // 8
    data = b"".join(map(int.to_bytes, reversed(fam), repeat(width), repeat("little")))
    return [int(data[x >> 3 :: width].translate(_AVOID_CHARS[x & 7]), 2) for x in range(n)]


class RankMatroid:
    """A matroid on ground set {0, ..., n-1} known through its rank oracle.

    Subclasses set ``n`` and ``full_rank`` in their constructor, write
    nothing after it but ``lifts.LiftSpec``'s grow-only overlay memo dict,
    and implement ``rank``; everything else here is derived from ``rank``.
    """

    __slots__ = ("n", "full_rank")

    def rank(self, mask: Mask) -> int:
        raise NotImplementedError

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def closure(self, mask: Mask) -> Mask:
        r = self.rank(mask)
        closed = mask
        rest = self.full_mask & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if self.rank(mask | low) == r:
                closed |= low
        return closed

    def is_flat(self, mask: Mask) -> bool:
        return self.closure(mask) == mask

    def parallel_classes(self) -> list[Mask]:
        """Disjoint sets of mutually parallel elements covering every
        non-loop, by least element: singletons unless overridden."""
        return [1 << e for e in range(self.n)]


class Matroid(RankMatroid):
    """A matroid given by its circuit family on ground set {0, ..., n-1}.

    Queries go through one bit-parallel circuit index built at
    construction: ``_avoid[x]`` has bit k set when circuit k misses element
    x and ``_upto[s]`` has the bits of the circuits with at most s elements
    (a prefix, since canonical order sorts by size).  The circuits inside X
    are ``_upto[|X|]`` ANDed with ``_avoid[x]`` for each x outside X.  The
    only circuit with |X| elements inside X is X itself, so X is a circuit
    exactly when one of them has an index at or above the length of
    ``_upto[|X| - 1]``.  The rank oracle keeps one running mask of the
    circuits inside what is left of X and, while it is nonzero, removes
    the largest element of the first of them.  An element of a circuit
    lies in the closure of the rest, so each removal keeps the rank, and
    what is left at the end is independent: r(X) is |X| minus the
    removals.  Query masks must lie inside the ground set, but
    ``is_circuit`` answers False for 0 and for any mask outside it.
    """

    __slots__ = ("circuits", "_avoid", "_upto")

    def __init__(self, n: int, circuits: Iterable[Mask], *, validate: bool = True) -> None:
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside [0, {MAX_GROUND}]")
        fam = canonical_circuits(circuits)
        bad = _check_members(fam, n)
        if bad is not None:
            raise CircuitAxiomError(bad)
        sizes = [c.bit_count() for c in fam]
        self.n = n
        self.circuits = fam
        self._avoid = _avoid_rows(fam, n)
        self._upto = [(1 << bisect_right(sizes, s)) - 1 for s in range(n + 1)]
        self.full_rank = self.rank(self.full_mask)
        if validate:
            report = self._axiom_report(fam)
            if not report.ok:
                raise CircuitAxiomError(report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.circuits == other.circuits

    def __hash__(self) -> int:
        return hash((self.n, self.circuits))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, circuits={len(self.circuits)}, rank={self.full_rank})"

    def is_circuit(self, mask: Mask) -> bool:
        k = mask.bit_count()
        return bool(k and not mask >> self.n and self._within(mask) >> self._upto[k - 1].bit_length())

    def rank(self, mask: Mask) -> int:
        return self.rank_and_circuits(mask)[0]

    def rank_and_circuits(self, mask: Mask) -> tuple[int, Mask]:
        """r(mask) and the circuits inside mask, as a bit mask of circuit
        indices, from one index query."""
        avoid = self._avoid
        inside = alive = self._within(mask)
        r = mask.bit_count()
        while alive:
            first = self.circuits[(alive & -alive).bit_length() - 1]
            alive &= avoid[first.bit_length() - 1]
            r -= 1
        return r, inside

    def rank_sweep(self) -> Iterator[tuple[Mask, int, Mask]]:
        """(X, r(X), the circuits inside X) for every X, in an order
        fixed by n.  X's parent is X + m, m the least element missing from
        X: X keeps the parent's circuits that miss m, and one rank less
        when that is all of them."""
        avoid = self._avoid
        stack = [(self.full_mask, self.full_rank, self._upto[-1], self.n)]
        while stack:
            x, r, inside, low = stack.pop()
            yield x, r, inside
            for m in range(low):
                kept = inside & avoid[m]
                stack.append((x ^ 1 << m, r - (kept == inside), kept, m))

    def parallel_classes(self) -> list[Mask]:
        """The parallel classes, from the 1- and 2-element circuits: parallel
        non-loops form cliques of 2-circuits, so each element joins the
        class of its least partner."""
        head, loops = list(range(self.n)), 0
        for c in self.circuits:
            if c.bit_count() > 2:
                break
            low = c & -c
            if c == low:
                loops |= c
            else:
                e = (c ^ low).bit_length() - 1
                head[e] = min(head[e], low.bit_length() - 1)
        classes: dict[int, Mask] = {}
        for e in elements_of(self.full_mask & ~loops):
            classes[head[e]] = classes.get(head[e], 0) | 1 << e
        return list(classes.values())

    # The circuit axioms over the index, for ``validate=True``,
    # ``validate_circuits`` and ``validate_hyperplanes``.  ``order`` is the
    # indexed family in any order; the union pass names its first failing
    # pair in that order.

    def _within(self, mask: Mask) -> Mask:
        """Bit mask of the indices of the circuits inside ``mask``."""
        bits = self._upto[mask.bit_count()]
        rest = ((1 << self.n) - 1) & ~mask
        avoid = self._avoid
        while rest and bits:
            low = rest & -rest
            rest ^= low
            bits &= avoid[low.bit_length() - 1]
        return bits

    def _flags(self, pivot: Mask, unions: Iterable[Mask]) -> bool:
        """True when some union U (each containing ``pivot``) is a member,
        or some element of ``pivot`` lies in every member inside U."""
        within, upto = self._within, self._upto
        rows = [self._avoid[e] for e in elements_of(pivot)]
        for u in unions:
            inside = within(u)
            if inside >> upto[u.bit_count() - 1].bit_length():
                return True
            for row in rows:
                if not inside & row:
                    return True
        return False

    def _pair_violation(self, a: Mask, b: Mask) -> Optional[tuple[str, tuple]]:
        """Antichain and elimination for one pair of members, reported as
        (kind, witness): one member inside the other, or the lowest e in
        a & b that every member inside a | b contains."""
        union = a | b
        if union == a or union == b:
            return "antichain", (a, b)
        inter = a & b
        if inter:
            inside = self._within(union)
            for e in elements_of(inter):
                if not inside & self._avoid[e]:
                    return "elimination", (a, b, e)
        return None

    def _certifies(self, order: Sequence[Mask], k: int) -> bool:
        """The bounded certificate over ``order``: True only when the family
        satisfies the circuit axioms, and exactly then when k is the rank.

        It checks that no member has more than k+1 elements, then (A) every
        (k+1)-set contains a member, and a member with k+1 elements contains
        no smaller one (C(n, k+1) queries), then (C) that ``_flags`` finds no
        failing pair among the meeting members of at most k elements whose
        union has at most k+1 (one query per distinct union).

        Sound for any k: a member with at most k elements inside another one
        meets it with that member as the union, so (A) and (C) give the
        antichain.  For meeting members C1, C2, e in both and U = C1 | C2:
        when |U| >= k+2, U - e holds a (k+1)-set and so, by (A), a member;
        when |U| <= k+1 neither has k+1 elements (it would equal U and
        contain the other), so (C) covered the pair.  Complete for k = r:
        for the circuits of a matroid of rank r every (r+1)-set is
        dependent and no circuit has more than r+1 elements.
        ``_axiom_report`` passes ``full_rank``, which the removal loop
        makes r on a valid family; on an invalid one it may be any number,
        and the certificate fails all the same.
        """
        if any(c.bit_count() > k + 1 for c in order):
            return False
        within = self._within
        below = self._upto[k]
        for x in subsets_of_size(self.full_mask, k + 1):
            inside = within(x)
            if not inside or (inside & below and inside >> below.bit_length()):
                return False
        small = [c for c in order if c.bit_count() <= k]
        return not any(
            self._flags(c, {c | d for d in small[i + 1 :] if c & d and (c | d).bit_count() <= k + 1})
            for i, c in enumerate(small)
        )

    def _axiom_report(self, order: Sequence[Mask]) -> ValidationReport:
        """The axiom check over ``order``.  ``_certifies`` runs, with k =
        ``full_rank``, when its C(n, k+1) sets plus the pairs of members of
        at most k elements are fewer than the m(m-1)/2 pairs of the union
        pass; the union pass (``_first_violation``) runs otherwise, or when
        the certificate fails, and names the first failing pair."""
        k = self.full_rank
        m, s = self._upto[-1].bit_length(), self._upto[k].bit_length()
        if comb(self.n, k + 1) + s * (s - 1) // 2 < m * (m - 1) // 2 and self._certifies(order, k):
            return ValidationReport(True)
        return self._first_violation(order)

    def _first_violation(self, order: Sequence[Mask]) -> ValidationReport:
        """Antichain and elimination over the pairs of ``order``, reporting
        the first failing pair of the walk row by row (pair i < j, by i
        then j).

        Elimination for (C1, C2, e) depends only on U = C1 | C2: it fails
        exactly when e lies in every member inside U, and that core lies
        inside C1.  So each row i first asks ``_within(U)`` once per
        distinct union U of C_i with a later member it meets, testing only
        C_i's elements, and flags the row when some U fails or is itself a
        member (one member inside another).  A row with a failing pair is
        always flagged, and the first flagged row always holds one, so only
        that row is walked pair by pair.  The cost is one set operation per
        pair plus one ``_within`` query per distinct union of a row, with
        memory linear in the family.
        """
        for i, c in enumerate(order):
            if self._flags(c, {c | d for d in order[i + 1 :] if c & d}):
                for d in order[i + 1 :]:
                    found = self._pair_violation(c, d)
                    if found is not None:
                        return ValidationReport(False, *found)
        return ValidationReport(True)


def validate_circuits(circuits: Sequence[Mask], n: int) -> ValidationReport:
    """Check the circuit axioms: nonempty members, antichain, elimination.

    Elimination: for distinct circuits C1, C2 and e in C1 & C2 there must
    be a circuit inside (C1 | C2) with e removed.  ``Matroid._axiom_report``
    proves a valid family with its bounded certificate (48,621 index
    queries for the 48,485 circuits of K(8,8)), and its union pass names
    the first failing pair of an invalid one, in canonical pair order.
    ``ValueError`` when n is outside [0, 64].
    """
    bad = _check_members(circuits, n)
    if bad is not None:
        return bad
    m = Matroid(n, circuits, validate=False)
    return m._axiom_report(m.circuits)


class SparsePaving(RankMatroid):
    """The sparse paving matroid of rank r on {0, ..., n-1} whose
    circuit-hyperplanes are the given r-sets, no two of which may share r-1
    elements (Oxley, *Matroid Theory*; Pendavingh and van der Pol 2015).

    Its rank is |X| when |X| < r, r-1 when X is a circuit-hyperplane and r
    otherwise: O(1).  Construction raises ``ValueError`` on a
    bad ground size, member or shared face.
    """

    __slots__ = ("r", "circuit_hyperplanes", "_ch_set")

    def __init__(self, n: int, r: int, circuit_hyperplanes: Iterable[Mask]) -> None:
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside [0, {MAX_GROUND}]")
        if not 0 <= r <= n:
            raise ValueError(f"rank {r} outside [0, {n}]")
        chs = canonical_circuits(circuit_hyperplanes)
        for h in chs:
            if h.bit_count() != r or h >> n or not 0 < r < n:
                raise ValueError(f"{one_based(h)} is not a circuit-hyperplane of a rank-{r} matroid on {n} elements")
        shared = _shared_face(chs)
        if shared is not None:
            a, b = shared
            raise ValueError(f"circuit-hyperplanes {one_based(a)} and {one_based(b)} share {r - 1} elements")
        self.n = n
        self.r = r
        self.circuit_hyperplanes = chs
        self._ch_set = frozenset(chs)
        self.full_rank = r

    def rank(self, mask: Mask) -> int:
        k = mask.bit_count()
        if k < self.r:
            return k
        return self.r - 1 if mask in self._ch_set else self.r

    def to_matroid(self) -> Matroid:
        """The circuit family, from ``circuits_from_rank_oracle``."""
        return Matroid(self.n, circuits_from_rank_oracle(self.rank, self.n), validate=False)


def _shared_face(members: Iterable[Mask]) -> Optional[tuple[Mask, Mask]]:
    """Two members of one size sharing all but one element, or None; each
    member files its faces, so O(h*r) for h members of r elements."""
    faces: dict[Mask, Mask] = {}
    for c in members:
        for e in elements_of(c):
            first = faces.setdefault(c ^ (1 << e), c)
            if first != c:
                return first, c
    return None


def circuits_from_rank_oracle(rank_fn: Callable[[Mask], int], n: int) -> list[Mask]:
    """Materialize the minimal dependent sets of a matroid rank function.

    Walks the sets of at most r = rank_fn(full) elements by size.  A k-set
    with a dependent (k-1)-face is dependent, not minimal, and not ranked;
    any other is a circuit iff its rank is below k.  B + f, B a basis and
    f > max(B), is a circuit iff f lies in no cl(B - b), that is, iff no
    B - b + f is a dependent r-set; so no (r+1)-set is scanned or ranked.
    ``rank_fn`` must be a genuine matroid rank function.
    """
    r = rank_fn((1 << n) - 1)
    bits = [1 << e for e in range(n)]
    out: list[Mask] = []
    dependent: set[Mask] = set()
    for k in range(1, r + 1):
        found: set[Mask] = set()
        for combo in combinations(bits, k):
            mask = sum(combo)
            if not (dependent and any(mask ^ b in dependent for b in combo)):
                if rank_fn(mask) >= k:
                    continue
                out.append(mask)
            found.add(mask)
        dependent = found
    closure: dict[Mask, Mask] = {}
    for mask in dependent:
        for b in bits:
            if mask & b:
                closure[mask ^ b] = closure.get(mask ^ b, 0) | b
    for combo in combinations(bits, r):
        basis = sum(combo)
        if basis not in dependent:
            blocked = basis
            for b in combo:
                blocked |= closure.get(basis ^ b, 0)
            out.extend(basis | f for f in bits[combo[-1].bit_length() if combo else 0 :] if not blocked & f)
    return out


def uniform_matroid(r: int, n: int) -> Matroid:
    """U_{r,n}: circuits are all (r+1)-element subsets."""
    if not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    full = (1 << n) - 1
    return Matroid(n, subsets_of_size(full, r + 1), validate=False)


def is_sparse_paving(m: Matroid) -> bool:
    """True iff every rank(M)-element subset is a basis or a circuit-hyperplane.

    Tested as: no circuit has fewer than r = r(M) elements, and no two
    r-element circuits share r-1 elements.  Such a pair spans r+1 elements
    in rank r-1, so neither is a flat.  Conversely, if an r-circuit C is not
    a flat, C+e has rank r-1 for some e outside it, and for f in C the r-set
    C-f+e is dependent, hence (all circuits having r elements or more) a
    second r-circuit meeting C in r-1 elements.  O(h*r) for h r-circuits,
    read from the front of the canonical circuit order.
    """
    r = m.full_rank
    if m.circuits and m.circuits[0].bit_count() < r:
        return False
    return _shared_face(m.circuits[: m._upto[r].bit_length()]) is None


# ---------------------------------------------------------------------------
# isomorphism


def _members_at(fam: Sequence[Mask], n: int) -> list[list[Mask]]:
    """For each element, the members of ``fam`` that contain it, in family order."""
    at: list[list[Mask]] = [[] for _ in range(n)]
    for c in fam:
        for e in elements_of(c):
            at[e].append(c)
    return at


def _element_signatures(at: Sequence[Sequence[Mask]]) -> list[tuple]:
    """Per element: the sorted member sizes through it, then one refinement
    round, the multiset of its co-members' first-round signatures."""
    sig1 = [tuple(sorted(Counter(c.bit_count() for c in cs).items())) for cs in at]
    return [
        (sig1[e], tuple(sorted(sig1[f] for c in cs for f in elements_of(c) if f != e)))
        for e, cs in enumerate(at)
    ]


def find_isomorphism(
    m1: Matroid,
    m2: Matroid,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[list[int]]:
    """A ground-set bijection mapping circuits onto circuits, or None.

    Raises SearchBudgetExceeded past ``node_budget`` search nodes, which is
    an explicitly different outcome from "not isomorphic".
    """
    if m1.n != m2.n or m1.full_rank != m2.full_rank:
        return None
    return find_family_isomorphism(m1.n, m1.circuits, m2.circuits, node_budget=node_budget)


def find_family_isomorphism(
    n: int,
    fam1: Sequence[Mask],
    fam2: Sequence[Mask],
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[list[int]]:
    """A bijection of {0..n-1} mapping the members of ``fam1`` onto those of
    ``fam2`` (families without repeats), or None, by backtracking on element
    images ordered by member-degree signatures."""
    if len(fam1) != len(fam2):
        return None
    at1, at2 = _members_at(fam1, n), _members_at(fam2, n)
    sig1, sig2 = _element_signatures(at1), _element_signatures(at2)
    if sorted(sig1) != sorted(sig2):
        return None

    classes2: dict[tuple, list[int]] = {}
    for f, s in enumerate(sig2):
        classes2.setdefault(s, []).append(f)
    # Most constrained first: small signature classes early.
    order = sorted(range(n), key=lambda e: (len(classes2.get(sig1[e], ())), sig1[e], e))

    circ1_set, circ2_set = frozenset(fam1), frozenset(fam2)
    image = [-1] * n
    preimage = [-1] * n
    nodes = 0

    def apply(mask: Mask, mapping: list[int]) -> Mask:
        out = 0
        for e in elements_of(mask):
            out |= 1 << mapping[e]
        return out

    def maps_into(members: list[Mask], dom: Mask, mapping: list[int], target: frozenset[Mask]) -> bool:
        # every member inside the domain maps onto a member of the target
        return all(apply(c, mapping) in target for c in members if c & ~dom == 0)

    def extend(pos: int, dom_mask: Mask, img_mask: Mask) -> bool:
        nonlocal nodes
        if pos == len(order):
            return True
        e = order[pos]
        for f in classes2[sig1[e]]:
            if (img_mask >> f) & 1:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {node_budget} nodes")
            image[e] = f
            preimage[f] = e
            ndom = dom_mask | (1 << e)
            nimg = img_mask | (1 << f)
            if (
                maps_into(at1[e], ndom, image, circ2_set)
                and maps_into(at2[f], nimg, preimage, circ1_set)
                and extend(pos + 1, ndom, nimg)
            ):
                return True
            image[e] = -1
            preimage[f] = -1
        return False

    if extend(0, 0, 0):
        return list(image)
    return None


# ---------------------------------------------------------------------------
# hyperplane-side construction


def validate_hyperplanes(hyperplanes: Sequence[Mask], n: int) -> ValidationReport:
    """Check the hyperplane axioms: proper antichain plus exchange.

    Exchange: for all distinct H1, H2 and every element e outside H1 | H2
    there is a family member containing (H1 & H2) | {e}.  Unlike circuits,
    the empty set is a legal hyperplane (rank-1 loopless matroids); the full
    ground set is not.

    Exchange is circuit elimination on the complements: it holds for
    (H1, H2, e) iff some complement D inside D1 | D2 misses e.  So the
    check is ``Matroid._axiom_report`` over the complements listed in
    hyperplane canonical order, at the same cost, and the witnesses of
    its union pass are mapped back.
    """
    full = (1 << n) - 1
    fam = canonical_circuits(hyperplanes)
    for h in fam:
        if h & ~full:
            return ValidationReport(False, "out-of-range", (h,))
        if h == full:
            return ValidationReport(False, "improper-member", (h,))
    complements = [full ^ h for h in fam]
    report = Matroid(n, complements, validate=False)._axiom_report(complements)
    if report.ok:
        return report
    kind = "exchange" if report.kind == "elimination" else report.kind
    d1, d2, *e = report.witness
    return ValidationReport(False, kind, (full ^ d1, full ^ d2, *e))


def matroid_from_hyperplanes(hyperplanes: Sequence[Mask], n: int, claimed_rank: int) -> Matroid:
    """Build the matroid whose hyperplane family is the given one.

    Route: complements of hyperplanes are the cocircuits, i.e. the circuits
    of the dual.  Hyperplane exchange is circuit elimination on the
    complements, so the dual matroid is built from them with its one
    circuit-axiom check; only when that fails is ``validate_hyperplanes``
    run, for the hyperplane-side witness of the ``HyperplaneAxiomError``.
    The primal is materialized through r(X) = r*(E-X) - |E-X| + r(E).
    """
    full = (1 << n) - 1
    try:
        dual = Matroid(n, [full ^ h for h in hyperplanes])
    except CircuitAxiomError:
        raise HyperplaneAxiomError(validate_hyperplanes(hyperplanes, n)) from None
    rank = n - dual.full_rank
    if rank != claimed_rank:
        raise ValueError(f"hyperplane family has rank {rank}, expected {claimed_rank}")

    def primal_rank(mask: Mask) -> int:
        co = full & ~mask
        return dual.rank(co) - co.bit_count() + rank

    fam = circuits_from_rank_oracle(primal_rank, n)
    made = Matroid(n, fam, validate=False)
    if made.full_rank != claimed_rank:
        raise ValueError(f"materialized rank {made.full_rank} != claimed {claimed_rank}")
    return made
