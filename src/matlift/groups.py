"""Finite groups as Cayley tables, subgroup enumeration, and group partitions.

A group partition splits the non-identity elements into parts A_i such that
each A_i together with the identity is a subgroup; it is nontrivial when
there are at least two parts.  ``group_partitions`` lists them all by exact
cover.  The primitive partition, the nontrivial one refining every other, is
a closure instead: blocks of non-identity elements merged until they are
disjoint subgroups less the identity (``primitive_partition``).
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Iterable, Optional, Sequence

from matlift.oracle import SearchBudgetExceeded, is_prime

MAX_GROUP_ORDER = 64  # the largest order any command takes; z2^5 already exhausts the budget below
# Cover search calls of group_partitions before SearchBudgetExceeded: z2^4
# needs about 6,200, the most of any builtin that finishes.
PARTITION_SEARCH_BUDGET = 10**6


class GroupAxiomError(ValueError):
    """The Cayley table fails associativity, identity, or inverses."""


class FinGroup:
    """A finite group given by its Cayley table over indices 0..k-1.

    ``table[g][h]`` is the product g*h.  Axioms are verified at
    construction; the failing triple is reported otherwise.
    """

    __slots__ = ("order", "table", "names", "identity", "_inverse", "name")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        *,
        name: str = "group",
    ) -> None:
        k = len(table)
        if k == 0:
            raise GroupAxiomError("empty table")
        rows = []
        for i, row in enumerate(table):
            if len(row) != k:
                raise GroupAxiomError(f"row {i} has length {len(row)}, expected {k}")
            for x in row:
                if not 0 <= x < k:
                    raise GroupAxiomError(f"entry {x} in row {i} out of range")
            rows.append(tuple(row))
        self.table: tuple[tuple[int, ...], ...] = tuple(rows)
        self.order = k
        self.name = name
        if names is None:
            names = [f"g{i}" for i in range(k)]
        if len(names) != k or len(set(names)) != k:
            raise GroupAxiomError("element names must be distinct, one per element")
        self.names = tuple(str(x) for x in names)

        identity = next(
            (e for e in range(k) if all(self.table[e][x] == x and self.table[x][e] == x for x in range(k))),
            None,
        )
        if identity is None:
            raise GroupAxiomError("no identity element")
        self.identity = identity

        inverse = []
        for g in range(k):
            inv = next((h for h in range(k) if self.table[g][h] == identity and self.table[h][g] == identity), None)
            if inv is None:
                raise GroupAxiomError(f"element {self.names[g]} has no inverse")
            inverse.append(inv)
        self._inverse = tuple(inverse)

        for a in range(k):
            for b in range(k):
                ab = self.table[a][b]
                for c in range(k):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupAxiomError(
                            f"associativity fails at ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def __repr__(self) -> str:
        return f"FinGroup({self.name}, order={self.order})"

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by ``gens``: the identity closed under right
        multiplication by the generators.  In a finite group each inverse is
        a power (g^-1 = g^(ord g - 1)), so that monoid is the subgroup."""
        gen_list = list(set(gens))
        members = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gen_list:
                    prod = self.mul(a, g)
                    if prod not in members:
                        members.add(prod)
                        nxt.append(prod)
            frontier = nxt
        return frozenset(members)

    def subgroups(self) -> list[frozenset[int]]:
        """All subgroups, found by closing cyclic subgroups under joins."""
        found: set[frozenset[int]] = {frozenset([self.identity])}
        cyclic = {self.subgroup_closure([g]) for g in range(self.order)}
        found |= cyclic
        frontier = set(cyclic)
        while frontier:
            fresh: set[frozenset[int]] = set()
            for h in frontier:
                for c in cyclic:
                    join = self.subgroup_closure(h | c)
                    if join not in found:
                        found.add(join)
                        fresh.add(join)
            frontier = fresh
        return sorted(found, key=lambda s: (len(s), sorted(s)))


class GroupPartition:
    """Disjoint nonempty parts covering the non-identity elements, each part
    plus the identity a subgroup."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[frozenset[int], ...]) -> None:
        self.parts = parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    @staticmethod
    def from_parts(parts: Iterable[Iterable[int]]) -> "GroupPartition":
        canon = tuple(sorted((frozenset(p) for p in parts), key=lambda s: (len(s), sorted(s))))
        return GroupPartition(canon)

    def __len__(self) -> int:
        return len(self.parts)


def group_partitions(group: FinGroup) -> list[GroupPartition]:
    """All nontrivial partitions, by exact cover of the non-identity elements
    with candidate parts {H - identity : H a proper nontrivial subgroup}.
    Raises SearchBudgetExceeded past ``PARTITION_SEARCH_BUDGET`` calls of
    the cover search."""
    if group.order > MAX_GROUP_ORDER:
        raise ValueError(f"partition enumeration supports order <= {MAX_GROUP_ORDER}")
    eps = group.identity
    universe = frozenset(range(group.order)) - {eps}
    candidates = [
        frozenset(h - {eps})
        for h in group.subgroups()
        if 1 < len(h) < group.order
    ]
    candidates = sorted(set(candidates), key=lambda s: (min(s), len(s), sorted(s)))
    by_element: dict[int, list[frozenset[int]]] = {e: [] for e in universe}
    for part in candidates:
        for e in part:
            by_element[e].append(part)

    covers: list[tuple[frozenset[int], ...]] = []
    calls = count(1)

    def search(uncovered: frozenset[int], chosen: list[frozenset[int]]) -> None:
        if next(calls) > PARTITION_SEARCH_BUDGET:
            raise SearchBudgetExceeded(f"partition search exceeded {PARTITION_SEARCH_BUDGET} calls")
        if not uncovered:
            covers.append(tuple(chosen))
            return
        e = min(uncovered)
        for part in by_element[e]:
            if part <= uncovered:
                chosen.append(part)
                search(uncovered - part, chosen)
                chosen.pop()

    search(universe, [])
    partitions = [GroupPartition.from_parts(c) for c in covers if len(c) >= 2]
    return sorted(set(partitions), key=lambda p: (len(p), [sorted(x) for x in p.parts]))


def primitive_partition(group: FinGroup) -> Optional[GroupPartition]:
    """The primitive partition, the nontrivial one refining every other, or
    None when the group has no nontrivial partition.

    Found by forced merges.  Each non-identity element starts a block; a
    block is replaced by the subgroup closure of itself and every block it
    meets, less the identity, until no two blocks meet.  Every merge is
    forced in every partition: a part plus the identity is a subgroup and
    parts are disjoint, so each block lies inside one part, together with
    every block it meets and their closure.  The fixed point is a partition
    refining every other; with one block no nontrivial partition exists.
    It is checked to be closed under conjugation (gamma * A * gamma^-1 is
    again a part), as the theory guarantees; a failure raises.
    """
    eps = group.identity
    blocks: list[frozenset[int]] = []
    for g in range(group.order):
        if g == eps or any(g in b for b in blocks):
            continue
        block = group.subgroup_closure([g]) - {eps}
        met = [b for b in blocks if b & block]
        while met:
            blocks = [b for b in blocks if not b & block]
            block = group.subgroup_closure(block.union(*met)) - {eps}
            met = [b for b in blocks if b & block]
        blocks.append(block)
    if len(blocks) < 2:
        return None
    prim = GroupPartition.from_parts(blocks)
    part_set = set(prim.parts)
    for g in range(group.order):
        for part in prim.parts:
            if frozenset(group.conjugate(g, a) for a in part) not in part_set:
                raise RuntimeError(f"primitive partition not conjugation-closed at g={group.names[g]}")
    return prim


# ---------------------------------------------------------------------------
# builtin groups


def cyclic_group(m: int) -> FinGroup:
    if m < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return FinGroup(table, [str(i) for i in range(m)], name=f"Z{m}")


def elementary_abelian_group(p: int, j: int) -> FinGroup:
    """Z_p^j: the direct sum of j copies of the cyclic group of order p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if j < 1:
        raise ValueError("need at least one factor")
    order = p**j
    digits = [tuple((g // p**i) % p for i in range(j)) for g in range(order)]
    index = {d: i for i, d in enumerate(digits)}

    def add(a: int, b: int) -> int:
        return index[tuple((x + y) % p for x, y in zip(digits[a], digits[b]))]

    table = [[add(a, b) for b in range(order)] for a in range(order)]
    names = ["".join(str(x) for x in reversed(d)) for d in digits]
    return FinGroup(table, names, name=f"Z{p}^{j}")


def dihedral_group(m: int) -> FinGroup:
    """D_m of order 2m: elements r^a and s r^a with s r^a s = r^-a."""
    if m < 2:
        raise ValueError("dihedral group needs m >= 2")
    order = 2 * m

    def mul(x: int, y: int) -> int:
        fx, ax = divmod(x, m)
        fy, ay = divmod(y, m)
        # (s^fx r^ax)(s^fy r^ay) = s^(fx+fy) r^(ay + ax * (-1)^fy)
        f = (fx + fy) % 2
        a = (ay + (ax if fy == 0 else -ax)) % m
        return f * m + a

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    names = [f"r{a}" for a in range(m)] + [f"s*r{a}" for a in range(m)]
    return FinGroup(table, names, name=f"D{m}")


def symmetric_group_3() -> FinGroup:
    g = dihedral_group(3)
    return FinGroup(g.table, ["e", "r", "r2", "s", "sr", "sr2"], name="S3")


def quaternion_group() -> FinGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # Encode x as (sign, axis): 0:+1 1:-1 2:+i 3:-i 4:+j 5:-j 6:+k 7:-k
    def decode(x: int) -> tuple[int, int]:
        return x % 2, x // 2  # sign bit, axis 0=1, 1=i, 2=j, 3=k

    def encode(sign: int, axis: int) -> int:
        return axis * 2 + sign

    # quaternion axis products: table[(a,b)] = (sign, axis)
    prod = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }

    def mul(x: int, y: int) -> int:
        sx, ax = decode(x)
        sy, ay = decode(y)
        sp, axis = prod[(ax, ay)]
        return encode((sx + sy + sp) % 2, axis)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FinGroup(table, names, name="Q8")


def builtin_group(spec: str) -> FinGroup:
    """Parse builtin group names: z<m>, z<p>^<j>, d<m>, s3, q8.  An order
    above ``MAX_GROUP_ORDER`` is refused before the Cayley table is built."""
    s = spec.strip().lower()
    if s == "s3":
        return symmetric_group_3()
    if s == "q8":
        return quaternion_group()
    build = None
    if s.startswith("d") and s[1:].isdigit():
        order, build = 2 * int(s[1:]), partial(dihedral_group, int(s[1:]))
    elif s.startswith("z"):
        p_str, caret, j_str = s[1:].partition("^")
        if p_str.isdigit() and not caret:
            order, build = int(p_str), partial(cyclic_group, int(p_str))
        elif p_str.isdigit() and j_str.isdigit():
            p, j = int(p_str), int(j_str)
            # p**7 > 64 for every p >= 2, so a larger exponent is never raised to.
            order, build = p ** min(j, 7), partial(elementary_abelian_group, p, j)
    if build is None:
        raise ValueError(f"unknown builtin group {spec!r} (try z4, z2^2, d4, s3, q8)")
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"builtin groups are capped at order {MAX_GROUP_ORDER}; {spec!r} is larger")
    return build()
