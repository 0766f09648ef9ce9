"""The rank-oracle kernel: bit-mask helpers, the ``RankMatroid`` base and
the ``SparsePaving`` oracle.

Matroids live on a ground set {0, ..., n-1} with n <= 64.  Subsets are
plain Python ints used as bit masks; element i corresponds to bit
``1 << i``.  File formats and CLI surfaces are 1-based, the conversion
happens at the I/O boundary.

This module holds what never materializes a circuit family: a matroid
known through its rank alone.  ``matlift.core`` holds what does (the
circuit-family ``Matroid``, the axiom checks, circuit enumeration,
isomorphism search and the hyperplane construction) and re-exports every
name defined here.  The one path from here into ``core`` is
``SparsePaving.to_matroid``, which imports it when called, so a job that
only ranks a ``SparsePaving`` never loads ``core``.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from matlift.core import Matroid

Mask = int

MAX_GROUND = 64


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
        from matlift.core import Matroid, circuits_from_rank_oracle
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
