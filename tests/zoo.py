"""Shared test fixtures: brute-force oracles, reference constructions that
no command runs (minors, duality, flats, relaxation, switching), seeded
random generators, and the curated zoo of every matroid the suite
constructs (used by the axiom acceptance criterion)."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from matlift.core import (
    DEFAULT_NODE_BUDGET,
    Mask,
    Matroid,
    SearchBudgetExceeded,
    ValidationReport,
    _check_members,
    canonical_circuits,
    circuits_from_rank_oracle,
    elements_of,
    find_isomorphism,
    is_sparse_paving,
    mask_of,
    one_based,
    subsets_of_size,
    uniform_matroid,
)
from matlift.gain import GainEdge, GainGraph, graphic_matroid, rank2_lift_k3, zaslavsky_lift
from matlift.gf import GfMatrix, column_matroid, lift_witness
from matlift.groups import FinGroup, GroupPartition, builtin_group, group_partitions
from matlift.krt import IngletonWitness, KrtSpec, VamosLikeMinor, build_krt
from matlift.lifts import (
    LiftSpec,
    StarWitness,
    _first_escape,
    build_lift,
    elementary_lift,
    is_linear_class,
)

# The Cayley table of S3 as a .grp file.
S3_GRP = "group 6\ne r r2 s sr sr2\ne r r2 s sr sr2\nr r2 e sr2 s sr\nr2 e r sr sr2 s\ns sr sr2 e r r2\nsr sr2 s r2 e r\nsr2 s sr r r2 e\n"

# ---------------------------------------------------------------------------
# independent oracles (deliberately dumb)


def submasks(mask: Mask) -> Iterator[Mask]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def rank_bruteforce(m: Matroid, mask: Mask) -> int:
    """Largest subset of ``mask`` containing no circuit, by full enumeration."""
    best = 0
    for sub in submasks(mask):
        if sub.bit_count() <= best:
            continue
        if not any(c & ~sub == 0 for c in m.circuits):
            best = sub.bit_count()
    return best


def closure_bruteforce(m: Matroid, mask: Mask) -> Mask:
    r = rank_bruteforce(m, mask)
    out = mask
    for e in range(m.n):
        bit = 1 << e
        if mask & bit:
            continue
        if rank_bruteforce(m, mask | bit) == r:
            out |= bit
    return out


def circuits_bruteforce(rank_fn: Callable[[Mask], int], n: int) -> list[Mask]:
    """Every subset of {0..n-1} that is dependent while each one-element
    deletion is independent, checked set by set."""
    out = []
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if rank_fn(mask) >= k:
            continue
        if all(rank_fn(mask & ~(1 << e)) == k - 1 for e in range(n) if mask >> e & 1):
            out.append(mask)
    return out


def gf_rref(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of ``rows`` over GF(p) and its pivot
    columns, by plain Gauss-Jordan elimination on a copy."""
    work = [[x % p for x in row] for row in rows]
    width = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        pick = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def gf_kernel_basis(p: int, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """A basis of the right kernel of ``rows`` over GF(p), one vector per
    free column of the reduced row echelon form."""
    red, pivots = gf_rref(p, rows)
    width = len(red[0]) if red else 0
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -red[r][free] % p
        basis.append(tuple(v))
    return basis


def matvec(a: GfMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """The product A v over GF(p), one row at a time."""
    assert len(v) == a.cols, "vector length mismatch"
    return tuple(sum(x * y for x, y in zip(row, v)) % a.p for row in a.data)


def _columns(a: GfMatrix, cols: Sequence[int]) -> list[list[int]]:
    return [[row[c] for c in cols] for row in a.data]


def gf_rank_bruteforce(a: GfMatrix, cols: Sequence[int]) -> int:
    """Rank of the chosen columns of ``a`` by a full Gauss-Jordan pass over
    a fresh copy of them, sharing no code with ``matlift.gf``."""
    return len(gf_rref(a.p, _columns(a, list(cols)))[1]) if cols else 0


def gf_circuit_vector(a: GfMatrix, circuit: Mask) -> tuple[int, ...]:
    """The kernel vector of ``a`` supported on ``circuit``, a circuit of its
    column matroid, scaled so its first nonzero entry is 1."""
    cols = elements_of(circuit)
    (small,) = gf_kernel_basis(a.p, _columns(a, cols))
    inv = pow(small[0], a.p - 2, a.p)
    v = [0] * a.cols
    for c, x in zip(cols, small):
        v[c] = x * inv % a.p
    return tuple(v)


def gf_circuits_from_kernel(a: GfMatrix) -> list[Mask]:
    """The circuits of the column matroid of ``a`` as the minimal nonempty
    supports of its kernel vectors, every vector of the kernel listed from
    a basis (p ** nullity of them)."""
    basis = gf_kernel_basis(a.p, a.data)
    supports = set()
    for coeffs in product(range(a.p), repeat=len(basis)):
        v = [sum(c * b[j] for c, b in zip(coeffs, basis)) % a.p for j in range(a.cols)]
        supports.add(mask_of(j for j, x in enumerate(v) if x))
    supports.discard(0)
    return _minimal_sets(supports)


def parallel_classes_bruteforce(rank_fn: Callable[[Mask], int], n: int) -> list[Mask]:
    """The parallel classes of the non-loops of {0..n-1}, in order of least
    element: e and f share a class when r({e}) = r({f}) = r({e, f}) = 1,
    with every pair asked."""
    nonloops = [e for e in range(n) if rank_fn(1 << e) == 1]
    classes: list[Mask] = []
    for e in nonloops:
        mates = mask_of(f for f in nonloops if rank_fn(1 << e | 1 << f) == 1)
        if mates & -mates == 1 << e:
            classes.append(mates)
    return classes


def parse_matroid_text_per_element(text: str, *, path: str = "<string>") -> Matroid:
    """A .ckt body parsed as ``matlift.io`` did before its one-pass line
    reader: each token through ``int``, then a range check per element,
    then a repeat check by set size; the same errors, messages and line
    numbers."""
    from matlift.io import ParseError, _content_lines

    lines = _content_lines(text)
    if not lines:
        raise ParseError(path, 1, "empty matroid file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "matroid" or parts[2] != "circuits":
        raise ParseError(path, lineno, f"expected header 'matroid <n> circuits', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(path, lineno, f"bad ground set size {parts[1]!r}") from None
    if not 1 <= n <= 64:
        raise ParseError(path, lineno, f"ground set size {n} outside [1, 64]")
    circuits = []
    for lineno, body in lines[1:]:
        try:
            elems = [int(tok) for tok in body.split()]
        except ValueError:
            raise ParseError(path, lineno, f"non-integer element in {body!r}") from None
        for e in elems:
            if not 1 <= e <= n:
                raise ParseError(path, lineno, f"element {e} outside [1, {n}]")
        if len(set(elems)) != len(elems):
            raise ParseError(path, lineno, f"repeated element in circuit {body!r}")
        circuits.append(mask_of(e - 1 for e in elems))
    return Matroid(n, circuits)


def validate_circuits_bruteforce(circuits: Sequence[Mask], n: int) -> ValidationReport:
    """The circuit axioms by scanning: for each pair i < j (by i, then j)
    the family is rescanned for the circuits inside the union, and the
    lowest element of the intersection that all of them contain is the
    elimination failure."""
    bad = _check_members(circuits, n)
    if bad is not None:
        return bad
    fam = canonical_circuits(circuits)
    sizes = [c.bit_count() for c in fam]
    for ci, cj in combinations(fam, 2):
        if ci & ~cj == 0:
            return ValidationReport(False, "antichain", (ci, cj))
        inter = ci & cj
        if inter == 0:
            continue
        union = ci | cj
        usize = union.bit_count()
        remaining = inter
        for k, c in enumerate(fam):
            if sizes[k] > usize:
                break
            if c & ~union == 0:
                remaining &= c
                if remaining == 0:
                    break
        if remaining:
            e = (remaining & -remaining).bit_length() - 1
            return ValidationReport(False, "elimination", (ci, cj, e))
    return ValidationReport(True)


def validate_circuits_pairwise(circuits: Sequence[Mask], n: int) -> ValidationReport:
    """The circuit axioms pair by pair over the bit-parallel circuit index:
    one ``within`` query for the union of each pair i < j of meeting
    circuits, by i, then j."""
    bad = _check_members(circuits, n)
    if bad is not None:
        return bad
    fam = canonical_circuits(circuits)
    index = Matroid(n, fam, validate=False)
    avoid = index._avoid
    for ci, cj in combinations(fam, 2):
        # Canonical order makes ci the smaller set, so one test covers
        # both containment directions.
        if ci & ~cj == 0:
            return ValidationReport(False, "antichain", (ci, cj))
        inter = ci & cj
        if inter == 0:
            continue
        inside = index._within(ci | cj)
        while inter:
            low = inter & -inter
            inter ^= low
            e = low.bit_length() - 1
            if not inside & avoid[e]:
                return ValidationReport(False, "elimination", (ci, cj, e))
    return ValidationReport(True)


def modular_pairs_unbounded(m: Matroid) -> Iterator[tuple[int, int, Mask]]:
    """Every modular pair i < j of circuit indices, with the bit mask of the
    circuits inside the union: each pair's union is ranked, with no size
    bound to skip it."""
    for i, j in combinations(range(len(m.circuits)), 2):
        union = m.circuits[i] | m.circuits[j]
        if union.bit_count() - m.rank(union) == 2:
            yield i, j, m.rank_and_circuits(union)[1]


def check_star_prime_per_member(spec: LiftSpec) -> tuple[bool, Optional[StarWitness]]:
    """Condition (*') with one overlay rank query per circuit inside the
    union of each modular pair, in index order, asked of the overlay
    itself."""
    m, n = spec.base, spec.overlay
    for i, j, inside in modular_pairs_unbounded(m):
        pair_mask = (1 << i) | (1 << j)
        pair_rank = n.rank(pair_mask)
        for k in elements_of(inside & ~pair_mask):
            if n.rank(pair_mask | (1 << k)) != pair_rank:
                return False, StarWitness((i, j), k)
    return True, None


def perfect_rebuild(m: Matroid, col: Sequence[Mask], union: Mask) -> bool:
    """Perfect collection test for distinct circuits ``col`` with the given
    union, from scratch: nullity of the union equals the collection size
    and no member lies inside the union of the others."""
    if union.bit_count() - m.rank(union) != len(col):
        return False
    for i, c in enumerate(col):
        rest = 0
        for j, d in enumerate(col):
            if j != i:
                rest |= d
        if c & ~rest == 0:
            return False
    return True


def check_star_rebuild(spec: LiftSpec) -> tuple[bool, Optional[StarWitness]]:
    """Condition (*) over the perfect collections, depth-first by size,
    with ``perfect_rebuild`` run on every candidate collection and each
    closure decided by ``lifts._first_escape`` on the overlay's own rank."""
    m = spec.base
    circuits = m.circuits
    max_size = min(len(circuits), m.n - m.full_rank)

    def extend(chosen: list[int], union: Mask) -> Optional[StarWitness]:
        if len(chosen) >= 2:
            members = mask_of(chosen)
            k = _first_escape(spec.overlay.rank, members, m.rank_and_circuits(union)[1] & ~members)
            if k is not None:
                return StarWitness(tuple(chosen), k)
        if len(chosen) == max_size:
            return None
        for nxt in range(chosen[-1] + 1 if chosen else 0, len(circuits)):
            chosen.append(nxt)
            if perfect_rebuild(m, [circuits[i] for i in chosen], union | circuits[nxt]):
                bad = extend(chosen, union | circuits[nxt])
                if bad is not None:
                    return bad
            chosen.pop()
        return None

    witness = extend([], 0)
    return witness is None, witness


def verify_witness_per_subset(spec: LiftSpec, l: Matroid) -> bool:
    """``spec.rank`` against L's rank on X = 0, 1, ..., 2^n - 1, each set
    queried cold."""
    if spec.base.n != l.n:
        raise ValueError("ground set mismatch")
    return all(spec.rank(mask) == l.rank(mask) for mask in range(1 << l.n))


def check_star_per_member(spec: LiftSpec) -> tuple[bool, Optional[StarWitness]]:
    """Condition (*) over the perfect collections, depth-first by size, with
    one overlay rank query per circuit inside each collection's union."""
    m, n = spec.base, spec.overlay
    circuits = m.circuits
    max_size = min(len(circuits), m.n - m.full_rank)

    def extend(chosen: list[int], union: Mask) -> Optional[StarWitness]:
        if len(chosen) >= 2:
            members = mask_of(chosen)
            members_rank = n.rank(members)
            for k in elements_of(m.rank_and_circuits(union)[1] & ~members):
                if n.rank(members | (1 << k)) != members_rank:
                    return StarWitness(tuple(chosen), k)
        if len(chosen) == max_size:
            return None
        for nxt in range(chosen[-1] + 1 if chosen else 0, len(circuits)):
            chosen.append(nxt)
            if perfect_rebuild(m, [circuits[i] for i in chosen], union | circuits[nxt]):
                bad = extend(chosen, union | circuits[nxt])
                if bad is not None:
                    return bad
            chosen.pop()
        return None

    witness = extend([], 0)
    return witness is None, witness


def validate_hyperplanes_bruteforce(hyperplanes: Sequence[Mask], n: int) -> ValidationReport:
    """The hyperplane axioms by scanning: for each pair the family is
    rescanned for the members containing the intersection, and the lowest
    element outside the union that none of them covers is the exchange
    failure."""
    full = (1 << n) - 1
    fam = canonical_circuits(hyperplanes)
    for h in fam:
        if h & ~full:
            return ValidationReport(False, "out-of-range", (h,))
        if h == full:
            return ValidationReport(False, "improper-member", (h,))
    for h1, h2 in combinations(fam, 2):
        if h1 & ~h2 == 0:
            return ValidationReport(False, "antichain", (h1, h2))
        outside = full & ~(h1 | h2)
        if outside == 0:
            continue
        inter = h1 & h2
        covered = 0
        for h in fam:
            if inter & ~h == 0:
                covered |= h
                if outside & ~covered == 0:
                    break
        if outside & ~covered:
            e = ((outside & ~covered) & -(outside & ~covered)).bit_length() - 1
            return ValidationReport(False, "exchange", (h1, h2, e))
    return ValidationReport(True)


def is_sparse_paving_bruteforce(m: Matroid) -> bool:
    """Every rank(M)-element subset, walked one by one, is a basis or a
    circuit-hyperplane."""
    r = m.full_rank
    if r == 0:
        return m.n == 0 or all(c.bit_count() == 1 for c in m.circuits)
    for mask in subsets_of_size(m.full_mask, r):
        if m.is_circuit(mask):
            if m.closure(mask) != mask:
                return False
        elif any(c & ~mask == 0 for c in m.circuits):
            return False
    return True


def minors_with_shape(
    m: Matroid,
    target_rank: int,
    target_size: int,
) -> Iterator[tuple[Mask, Mask, Matroid]]:
    """All minors of given rank and size as (contracted, deleted, minor),
    each materialized.

    Enumerates independent contraction sets and coindependent deletion sets;
    every minor of that shape arises this way.
    """
    c_size = m.full_rank - target_rank
    d_size = (m.n - target_size) - c_size
    if c_size < 0 or d_size < 0:
        return
    for cmask in subsets_of_size(m.full_mask, c_size):
        if m.rank(cmask) != c_size:
            continue
        contracted = contract(m, cmask)
        kept, _ = _relabel_map(m.n, cmask)
        r = contracted.full_rank
        for dmask_small in subsets_of_size(contracted.full_mask, d_size):
            if contracted.rank(contracted.full_mask & ~dmask_small) != r:
                continue
            dmask = mask_of(kept[e] for e in elements_of(dmask_small))
            yield cmask, dmask, delete(contracted, dmask_small)


def has_minor_isomorphic_to(m: Matroid, target: Matroid, *, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff some contract-then-delete sequence yields a matroid isomorphic to target."""
    if target.n > m.n or target.full_rank > m.full_rank:
        return False
    if (target.n - target.full_rank) > (m.n - m.full_rank):
        return False
    for _, _, minor in minors_with_shape(m, target.full_rank, target.n):
        if find_isomorphism(minor, target, node_budget=node_budget) is not None:
            return True
    return False


def element_signatures_by_family(fam: Sequence[Mask], n: int) -> list[tuple]:
    """``core._element_signatures`` as it was before the per-element member
    lists: each round walks the family itself."""
    by_size: list[dict[int, int]] = [dict() for _ in range(n)]
    for c in fam:
        size = c.bit_count()
        for e in elements_of(c):
            by_size[e][size] = by_size[e].get(size, 0) + 1
    sig1 = [tuple(sorted(d.items())) for d in by_size]
    neigh: list[list[tuple]] = [[] for _ in range(n)]
    for c in fam:
        elems = elements_of(c)
        for e in elems:
            neigh[e].extend(sig1[f] for f in elems if f != e)
    return [(sig1[e], tuple(sorted(neigh[e]))) for e in range(n)]


def find_family_isomorphism_per_direction(
    n: int,
    fam1: Sequence[Mask],
    fam2: Sequence[Mask],
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[list[int]]:
    """``core.find_family_isomorphism`` as it was before the per-element
    member lists: signatures from the families, one member index per family
    built apart, and one loop per direction.  The same permutation, None or
    budget node as the search in core."""
    if len(fam1) != len(fam2):
        return None
    sig1 = element_signatures_by_family(fam1, n)
    sig2 = element_signatures_by_family(fam2, n)
    if sorted(sig1) != sorted(sig2):
        return None
    classes2: dict[tuple, list[int]] = {}
    for f, s in enumerate(sig2):
        classes2.setdefault(s, []).append(f)
    order = sorted(range(n), key=lambda e: (len(classes2.get(sig1[e], ())), sig1[e], e))
    circ1_set = frozenset(fam1)
    circ2_set = frozenset(fam2)
    circs1_at: list[list[Mask]] = [[] for _ in range(n)]
    for c in fam1:
        for e in elements_of(c):
            circs1_at[e].append(c)
    circs2_at: list[list[Mask]] = [[] for _ in range(n)]
    for c in fam2:
        for e in elements_of(c):
            circs2_at[e].append(c)
    image = [-1] * n
    preimage = [-1] * n
    nodes = 0

    def apply(mask: Mask, mapping: list[int]) -> Mask:
        return mask_of(mapping[e] for e in elements_of(mask))

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
            ok = True
            for c in circs1_at[e]:
                if c & ~ndom == 0 and apply(c, image) not in circ2_set:
                    ok = False
                    break
            if ok:
                for c in circs2_at[f]:
                    if c & ~nimg == 0 and apply(c, preimage) not in circ1_set:
                        ok = False
                        break
            if ok and extend(pos + 1, ndom, nimg):
                return True
            image[e] = -1
            preimage[f] = -1
        return False

    if extend(0, 0, 0):
        return list(image)
    return None


def antichain_bruteforce(big: KrtSpec, small: KrtSpec) -> bool:
    """True iff no proper minor of K(big) is isomorphic to K(small), by
    materializing every minor of the right shape and comparing circuit
    families."""
    m_big = build_krt(big).to_matroid()
    m_small = build_krt(small).to_matroid()
    if m_big.n == m_small.n and m_big.full_rank == m_small.full_rank:
        return True
    return not has_minor_isomorphic_to(m_big, m_small)


def pairings_bruteforce(elems: list[int]) -> Iterator[list[Mask]]:
    """All perfect matchings of an even element list, as pair masks, the
    partner of the first element varying slowest."""
    if not elems:
        yield []
        return
    first = elems[0]
    for k in range(1, len(elems)):
        rest = elems[1:k] + elems[k + 1 :]
        for sub in pairings_bruteforce(rest):
            yield [mask_of([first, elems[k]])] + sub


def ingleton_bruteforce(m: Matroid) -> tuple[bool, Optional[IngletonWitness]]:
    """The sparse-paving Ingleton criterion by exhaustion: every
    (r-4)-subset in increasing mask order as a core (skipping those in fewer
    than five circuit-hyperplanes), every 8-subset outside it, every pairing
    of those 8 elements; the witness is the first hit, in the criterion's
    role order."""
    r = m.full_rank
    if r < 4:
        return True, None
    ch_set = {c for c in m.circuits if c.bit_count() == r}
    for core in sorted(subsets_of_size(m.full_mask, r - 4)):
        if sum(core & ~ch == 0 for ch in ch_set) < 5:
            continue
        for eight in subsets_of_size(m.full_mask & ~core, 8):
            for pairs in pairings_bruteforce(elements_of(eight)):
                unions = {(i, j): core | pairs[i] | pairs[j] for i, j in combinations(range(4), 2)}
                missing = [key for key, u in unions.items() if u not in ch_set]
                if len(missing) != 1 or m.rank(unions[missing[0]]) != r:
                    continue
                i, j = missing[0]
                others = [k for k in range(4) if k not in (i, j)]
                return False, IngletonWitness(core, (pairs[others[0]], pairs[others[1]], pairs[i], pairs[j]))
    return True, None


def vamos_scan_bruteforce(m: Matroid) -> list[VamosLikeMinor]:
    """Every rank-4, 8-element minor, materialized, whose sparse-paving
    check passes and whose elements split into four pairs with exactly five
    of the six pair unions circuits (the first such pairing, sorted)."""
    pairings = list(pairings_bruteforce(list(range(8))))
    unions = [frozenset(a | b for a, b in combinations(pairs, 2)) for pairs in pairings]
    out = []
    for cmask, dmask, minor in minors_with_shape(m, 4, 8):
        if minor.full_rank != 4 or not is_sparse_paving(minor):
            continue
        quads = {c for c in minor.circuits if c.bit_count() == 4}
        for pairs, six in zip(pairings, unions):
            if len(quads & six) == 5:
                out.append(VamosLikeMinor(cmask, dmask, tuple(sorted(pairs))))
                break
    return out


def refines(fine: GroupPartition, coarse: GroupPartition) -> bool:
    """True iff every part of ``coarse`` is a union of parts of ``fine``."""
    for big in coarse.parts:
        covered: set[int] = set()
        for small in fine.parts:
            if small <= big:
                covered |= small
        if covered != set(big):
            return False
    return True


def primitive_partition_filtered(group: FinGroup) -> Optional[GroupPartition]:
    """The nontrivial partition refining every other, filtered from all of
    them (``group_partitions``), or None when there is none to filter."""
    partitions = group_partitions(group)
    universal = [p for p in partitions if all(refines(p, q) for q in partitions)]
    assert len(universal) == (1 if partitions else 0), universal
    return universal[0] if universal else None


# ---------------------------------------------------------------------------
# reference constructions: minors, duality, flats, relaxation, switching


def _relabel_map(n: int, removed: Mask) -> tuple[list[int], dict[int, int]]:
    kept = [e for e in range(n) if not (removed >> e) & 1]
    return kept, {e: i for i, e in enumerate(kept)}


def _compress(mask: Mask, relabel: dict[int, int]) -> Mask:
    return mask_of(relabel[e] for e in elements_of(mask))


def _minimal_sets(sets: Iterable[Mask]) -> list[Mask]:
    """Subset-minimal members of a family of masks."""
    minimal: list[Mask] = []
    for cand in sorted(set(sets), key=lambda m: (m.bit_count(), m)):
        if not any(c & ~cand == 0 for c in minimal):
            minimal.append(cand)
    return minimal


def delete(m: Matroid, removed: Mask) -> Matroid:
    """M \\ removed, with survivors relabeled to 0..n'-1 preserving order."""
    kept, relabel = _relabel_map(m.n, removed)
    return Matroid(len(kept), [_compress(c, relabel) for c in m.circuits if c & removed == 0], validate=False)


def contract(m: Matroid, removed: Mask) -> Matroid:
    """M / removed, with survivors relabeled to 0..n'-1 preserving order."""
    kept, relabel = _relabel_map(m.n, removed)
    reduced = {c & ~removed for c in m.circuits} - {0}
    return Matroid(len(kept), [_compress(c, relabel) for c in _minimal_sets(reduced)], validate=False)


def dual(m: Matroid) -> Matroid:
    full, r = m.full_mask, m.full_rank
    return Matroid(m.n, circuits_from_rank_oracle(lambda x: x.bit_count() + m.rank(full & ~x) - r, m.n), validate=False)


def flats(m: Matroid) -> list[Mask]:
    """All flats (closure-fixed sets), by lattice walk from cl(empty),
    ordered by size, then value."""
    bottom = m.closure(0)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for f in frontier:
            for e in elements_of(m.full_mask & ~f):
                g = m.closure(f | 1 << e)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return sorted(seen, key=lambda x: (x.bit_count(), x))


def hyperplanes(m: Matroid) -> list[Mask]:
    return [f for f in flats(m) if m.rank(f) == m.full_rank - 1]


def is_circuit_hyperplane(m: Matroid, mask: Mask) -> bool:
    return m.is_circuit(mask) and m.rank(mask) == m.full_rank - 1 and m.is_flat(mask)


def is_quotient(quotient: Matroid, lift: Matroid) -> bool:
    """True iff every flat of ``quotient`` is a flat of ``lift``: ``lift``
    is a lift of ``quotient`` exactly when this holds."""
    if quotient.n != lift.n:
        raise ValueError("is_quotient needs a common ground set")
    return all(lift.is_flat(f) for f in flats(quotient))


def relax(m: Matroid, hyperplane: Mask) -> Matroid:
    """Relax a circuit-hyperplane into a basis: the circuit family of the
    relaxed rank function, re-validated."""
    if not is_circuit_hyperplane(m, hyperplane):
        raise ValueError(f"{one_based(hyperplane)} is not a circuit-hyperplane")
    r = m.full_rank
    return Matroid(m.n, circuits_from_rank_oracle(lambda x: r if x == hyperplane else m.rank(x), m.n))


def rank_one_overlay(count: int, loop_indices: Iterable[int]) -> Matroid:
    """Rank-1 matroid on ``count`` circuit indices: given indices are loops,
    the rest are parallel non-loops (rank 0 when everything is a loop)."""
    loops = set(loop_indices)
    fam: list[Mask] = [1 << i for i in sorted(loops)]
    nonloops = [i for i in range(count) if i not in loops]
    fam.extend((1 << i) | (1 << j) for i, j in combinations(nonloops, 2))
    return Matroid(count, fam, validate=False)


def lift_agrees_with_elementary(m: Matroid, members: Iterable[int]) -> bool:
    """The M^N lift with the rank-1 overlay whose loops are a linear class
    equals the elementary lift from that class."""
    s = frozenset(members)
    if not is_linear_class(m, s):
        raise ValueError("circuit set is not a linear class")
    return build_lift(LiftSpec(m, rank_one_overlay(len(m.circuits), s))) == elementary_lift(m, s)


def linear_class_closure(m: Matroid, seed: Iterable[int]) -> frozenset[int]:
    """Smallest linear class containing the given circuit indices: each
    modular pair inside the class adds the circuits inside its union, with
    every pair's union ranked, until no pair adds one."""
    smask = mask_of(seed)
    changed = True
    while changed:
        changed = False
        for i, j in combinations(elements_of(smask), 2):
            union = m.circuits[i] | m.circuits[j]
            if union.bit_count() - m.rank(union) == 2:
                inside = m.rank_and_circuits(union)[1]
                if inside & ~smask:
                    smask |= inside
                    changed = True
    return frozenset(elements_of(smask))


def switch_edge(gg: GainGraph, edge: GainEdge, k: int, beta: int) -> GainEdge:
    """Switching at vertex k with value beta: label alpha becomes
    beta^-1 * alpha when i = k, alpha * beta when j = k."""
    g = gg.group
    if edge.i == k:
        return GainEdge(edge.i, edge.j, g.mul(g.inv(beta), edge.label))
    if edge.j == k:
        return GainEdge(edge.i, edge.j, g.mul(edge.label, beta))
    return edge


def switch_mask(gg: GainGraph, mask: Mask, k: int, beta: int) -> Mask:
    out = 0
    for idx in elements_of(mask):
        e = switch_edge(gg, gg.edges[idx], k, beta)
        out |= 1 << gg.edge_index(e.i, e.j, e.label)
    return out


# ---------------------------------------------------------------------------
# seeded random generators


def random_gf_matrix(rng: random.Random, p: int | None = None, max_rows: int = 4, max_cols: int = 9) -> GfMatrix:
    if p is None:
        p = rng.choice([2, 3, 5, 7])
    rows = rng.randint(1, max_rows)
    cols = rng.randint(max(2, rows), max_cols)
    data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return GfMatrix(p, data)


def random_gf_matrix_with_parallels(rng: random.Random, p: int, max_rows: int = 3, max_cols: int = 10) -> GfMatrix:
    """A seeded GF(p) matrix whose columns are random ones mixed with zero
    columns, repeats and nonzero multiples of earlier columns, shuffled."""
    rows = rng.randint(1, max_rows)
    cols = [[rng.randrange(p) for _ in range(rows)] for _ in range(rng.randint(1, 4))]
    target = rng.randint(len(cols) + 2, max_cols)
    while len(cols) < target:
        roll = rng.random()
        if roll < 0.15:
            cols.append([0] * rows)
        elif roll < 0.4:
            cols.append(list(rng.choice(cols)))
        elif roll < 0.8:
            scale = rng.randrange(1, p)
            cols.append([x * scale % p for x in rng.choice(cols)])
        else:
            cols.append([rng.randrange(p) for _ in range(rows)])
    rng.shuffle(cols)
    return GfMatrix(p, [[col[i] for col in cols] for i in range(rows)])


def rep_witness_specs() -> list[LiftSpec]:
    """Witness specs of the two ``rep witness`` shapes of the benchmark, a
    7x15 matrix over GF(3) and a 7x16 one over GF(2), each seeded with
    rank 7 and X two independent columns: overlays on hundreds of circuits
    with rank 2, so a few parallel classes."""
    specs = []
    for seed, (p, rows, cols) in enumerate([(3, 7, 15), (2, 7, 16)]):
        rng = random.Random(f"rep-witness:{seed}")
        while True:
            a = GfMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            if gf_rank_bruteforce(a, range(cols)) == rows and gf_rank_bruteforce(a, (0, 1)) == 2:
                break
        specs.append(lift_witness(a, (0, 1)).spec)
    return specs


def relabel(m: Matroid, rng: random.Random) -> Matroid:
    """``m`` with its elements permuted by ``rng``."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    return Matroid(m.n, [mask_of(perm[e] for e in elements_of(c)) for c in m.circuits])


def sparse_paving_from(n: int, r: int, chs: list[Mask], *, validate: bool = True) -> Matroid:
    """The sparse paving matroid with the given circuit-hyperplanes (pairwise
    meeting in at most r-2 elements): they and every (r+1)-set containing
    none of them are its circuits."""
    full = (1 << n) - 1
    fam = list(chs) + [
        mask for mask in subsets_of_size(full, r + 1)
        if not any(ch & ~mask == 0 for ch in chs)
    ]
    return Matroid(n, fam, validate=validate)


def random_circuit_hyperplanes(
    rng: random.Random, n: int, r: int, tries: tuple[int, int], start: Iterable[Mask] = ()
) -> list[Mask]:
    """``start`` plus, in turn, each of a random number (in ``tries``) of
    random r-sets that meets every set kept so far in at most r-2 elements."""
    candidates = list(subsets_of_size((1 << n) - 1, r))
    rng.shuffle(candidates)
    chs = list(start)
    for cand in candidates[: rng.randint(*tries)]:
        if all((cand & d).bit_count() <= r - 2 for d in chs):
            chs.append(cand)
    return chs


def random_sparse_paving(rng: random.Random, max_elems: int = 8) -> Matroid:
    n = rng.randint(4, max_elems)
    r = rng.randint(2, n - 2)
    return sparse_paving_from(n, r, random_circuit_hyperplanes(rng, n, r, (0, 8)))


def random_base_matroid(rng: random.Random, max_elems: int = 8, max_circuits: int = 12) -> Matroid:
    """A small matroid with at least one circuit and a bounded circuit count."""
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            a = random_gf_matrix(rng, max_rows=3, max_cols=max_elems)
            m = column_matroid(a.p, a.columns())
        elif roll < 0.75:
            n = rng.randint(2, max_elems)
            m = uniform_matroid(rng.randint(0, n - 1), n)
        else:
            m = random_sparse_paving(rng, max_elems)
        if 1 <= len(m.circuits) <= max_circuits:
            return m
    return uniform_matroid(1, 3)


def random_overlay(rng: random.Random, count: int):
    """A matroid on ``count`` circuit indices; mixes overlays that satisfy
    the lift condition with ones that usually fail it."""
    roll = rng.random()
    if roll < 0.15:
        return uniform_matroid(0, count)  # all loops
    if roll < 0.35 and count >= 2:
        return uniform_matroid(2, count)
    if roll < 0.55:
        loops = [i for i in range(count) if rng.random() < 0.4]
        return rank_one_overlay(count, loops)
    if roll < 0.8:
        rows = rng.randint(1, 3)
        data = [[rng.randrange(3) for _ in range(count)] for _ in range(rows)]
        return column_matroid(3, GfMatrix(3, data).columns())
    return uniform_matroid(rng.randint(0, count), count)


def random_linear_class(rng: random.Random, m: Matroid) -> frozenset[int]:
    count = len(m.circuits)
    seed = [i for i in range(count) if rng.random() < 0.3]
    return linear_class_closure(m, seed)


def random_witness_instance(rng: random.Random) -> tuple[GfMatrix, tuple[int, ...]]:
    """A random (A, X) with p in {2,3,5,7}, at most 4x9, X independent of
    size at most 2."""
    while True:
        a = random_gf_matrix(rng, p=rng.choice([2, 3, 5, 7]), max_rows=4, max_cols=9)
        cols = list(range(a.cols))
        rng.shuffle(cols)
        x = tuple(sorted(cols[: rng.randint(0, 2)]))
        if gf_rank_bruteforce(a, x) == len(x):
            return a, x


# ---------------------------------------------------------------------------
# the matroid zoo: every construction exercised by the suite


@lru_cache(maxsize=1)
def zoo() -> tuple[tuple[str, Matroid], ...]:
    entries: list[tuple[str, Matroid]] = []

    def add(name: str, m: Matroid) -> Matroid:
        entries.append((name, m))
        return m

    add("U_{0,3}", uniform_matroid(0, 3))
    u13 = add("U_{1,3}", uniform_matroid(1, 3))
    add("U_{2,3}", uniform_matroid(2, 3))
    u24 = add("U_{2,4}", uniform_matroid(2, 4))
    add("U_{3,4}", uniform_matroid(3, 4))
    add("U_{1,4}", uniform_matroid(1, 4))
    add("U_{4,8}", uniform_matroid(4, 8))

    krt_specs = [(4, 3), (5, 4), (6, 4), (5, 5), (6, 5), (7, 5)]
    krt = {}
    for r, t in krt_specs:
        krt[(r, t)] = add(f"K({r},{t})", build_krt(KrtSpec(r, t)).to_matroid())

    k43 = krt[(4, 3)]
    x = KrtSpec(4, 3).x_mask
    add("K(4,3)/X", contract(k43, x))
    add("K(4,3)\\X", delete(k43, x))
    add("dual(U_{2,4})", dual(u24))
    add("dual(K(4,3))", dual(k43))
    add("relax(K(4,3),1234)", relax(k43, mask_of([0, 1, 2, 3])))
    add("relax(K(4,3),3456)", relax(k43, mask_of([2, 3, 4, 5])))

    add("elift(U_{2,4},empty)", elementary_lift(u24, []))
    add("U_{1,3}^U_{2,3}", build_lift(LiftSpec(u13, uniform_matroid(2, 3))))
    add("U_{1,3}^rank1", build_lift(LiftSpec(u13, rank_one_overlay(len(u13.circuits), []))))

    a = GfMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    witness = lift_witness(a, (0,))
    add("witness M (U_{2,4}/col1)", witness.spec.base)
    add("witness L (U_{2,4}\\col1)", witness.l)
    add("witness lift", build_lift(witness.spec))

    z2 = builtin_group("z2")
    z3 = builtin_group("z3")
    gg_z2 = GainGraph(z2, 3)
    gg_z3 = GainGraph(z3, 3)
    gg_z2_4 = GainGraph(z2, 4)
    add("M(K_3^{Z2})", graphic_matroid(gg_z2))
    add("M(K_3^{Z3})", graphic_matroid(gg_z3))
    add("M(K_4^{Z2})", graphic_matroid(gg_z2_4))
    add("zaslavsky(Z2,3)", zaslavsky_lift(gg_z2))
    add("zaslavsky(Z3,3)", zaslavsky_lift(gg_z3))
    add("zaslavsky(Z2,4)", zaslavsky_lift(gg_z2_4))

    add("lift3(Z2^2)", rank2_lift_k3(builtin_group("z2^2")).matroid)
    add("lift3(S3)", rank2_lift_k3(builtin_group("s3")).matroid)

    rng = random.Random(20240817)
    for k in range(4):
        add(f"random sparse paving #{k}", random_sparse_paving(rng))
    for k in range(4):
        a = random_gf_matrix(rng, max_rows=3, max_cols=7)
        add(f"random column matroid #{k}", column_matroid(a.p, a.columns()))

    return tuple(entries)
