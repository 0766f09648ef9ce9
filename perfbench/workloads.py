"""Seeded job lists for the three benchmark workloads, and the checks that
decide whether a job's output is correct.

Everything here is stdlib-only and independent of ``matlift``: the inputs
(K(r,t) circuit files, GF(p) matrices, lift specs) and the values a correct
run must report are computed by the small routines below, so a wrong
certificate counts as a failure and never as a speed-up.

A job is a dict:

    id      stable name inside the job list, e.g. ``rep-1``
    kind    certify | ingleton | vamos | rep | lift | gain | check | iso
    argv    CLI arguments after ``matlift``; paths are relative to the
            work directory the job runs in
    inputs  the input files it reads, relative to the work directory
    expect  what a correct run reports (see ``check_job``)
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("certify", "scan", "construct")

# Parameter points.  Every pass of a workload runs every point below; the
# seed draws the job order and the seeded inputs, never which points run,
# so the cost of a pass does not depend on the seed.  Passes are kept to
# 5-8 s so that a 36 s run takes each job's median over 4 to 7 passes;
# longer jobs are hit more often by slow spells of a shared machine.
#
# certify: contract-bound K(r,t) with r >= t at n = 16 and 18.  Left out:
# K(8,8) (7 s, where the Ingleton search outweighs the contraction) and
# K(9,8) (5.5 s, the same n = 18 shape as K(10,8)).
CERTIFY_POINTS = [(8, 7), (9, 7), (10, 8)]
# scan: Ingleton-regime points (r < t) for ``krt ingleton``.  Left out:
# K(5,7) and K(7,8) (6 s and 8 s).
INGLETON_POINTS = [(5, 6), (6, 7)]
# scan: ``krt vamos-scan`` at n = 12.  K(4,t) has Vamos-like minors and
# exits 1 with witnesses; the others exit 0.  Left out: K(7,5), the same
# shape as K(6,5), and the n = 14 point K(5,6) (7.2 s, longer than the
# rest of the pass together).
VAMOS_POINTS = [(5, 5), (6, 5), (4, 5)]
# construct: seeded GF(p) matrices for ``rep witness``, as (p, rows, cols).
REP_SHAPES = [(3, 7, 15), (2, 7, 16)]
# construct: seeded lift specs, as (p, rows, cols) of the base matrix.
LIFT_SHAPES = [(2, 4, 10), (2, 4, 10)]
LIFT_CIRCUIT_RANGE = (33, 35)
# construct: builtin groups for ``gain lift3``, with their orders.
GAIN_GROUPS = {"s3": 6, "d4": 8, "z2^3": 8}
# construct: relabeled K(r,t) at n = 12 for ``check`` and ``iso``.  Parse
# time validation is cubic in the circuit count (K(5,5) has 870 circuits,
# K(7,5) has 459), so n stays at 12.
CHECK_POINTS = [(5, 5)]
ISO_POINTS = [(7, 5)]


# ---------------------------------------------------------------------------
# independent reference computations


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elements(mask: int) -> list[int]:
    """0-based elements of a mask."""
    return [e for e in range(mask.bit_length()) if (mask >> e) & 1]


def one_based(mask: int) -> list[int]:
    return [e + 1 for e in elements(mask)]


def relabel(circuits, perm: list[int]) -> list[int]:
    """Each circuit's image under the element map ``perm``."""
    return [mask_of(perm[e] for e in elements(c)) for c in circuits]


def krt_circuits(r: int, t: int) -> tuple[int, list[int]]:
    """Ground size and circuit family of K(r,t), built from its definition:
    blocks C_i are cyclic intervals of length r-2 in [2t] starting at 2i-1;
    the circuit-hyperplanes are C_i + X and C_i + C_{i+1}; every other
    (r+1)-set that contains none of them is a circuit."""
    n = 2 * t + 2
    blocks = [mask_of((2 * i + k) % (2 * t) for k in range(r - 2)) for i in range(t)]
    x = mask_of([2 * t, 2 * t + 1])
    chs = [b | x for b in blocks] + [blocks[i] | blocks[i + 1] for i in range(t - 1)]
    fam = list(chs)
    for combo in combinations(range(n), r + 1):
        m = mask_of(combo)
        if not any(ch & ~m == 0 for ch in chs):
            fam.append(m)
    return n, fam


def gf_rank(rows: list[list[int]], p: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def column_rank(rows: list[list[int]], cols, p: int) -> int:
    cols = list(cols)
    if not cols:
        return 0
    return gf_rank([[row[c] for c in cols] for row in rows], p)


def column_circuits(rows: list[list[int]], p: int) -> list[int]:
    """Minimal dependent column sets, in (size, value) order."""
    ncols = len(rows[0])
    found: list[int] = []
    for k in range(1, ncols + 1):
        for combo in combinations(range(ncols), k):
            m = mask_of(combo)
            if any(c & ~m == 0 for c in found):
                continue
            if column_rank(rows, combo, p) < k:
                found.append(m)
    return sorted(found, key=lambda c: (c.bit_count(), c))


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> list[list[int]]:
    while True:
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        if gf_rank(data, p) == rows:
            return data


def linear_class_closure(rows, p, circuits: list[int], seed_idx: set[int]) -> set[int]:
    """Smallest set of circuit indices containing ``seed_idx`` that is closed
    under modular pairs (|C1 u C2| - r(C1 u C2) = 2)."""
    s = set(seed_idx)
    changed = True
    while changed:
        changed = False
        for i, j in combinations(sorted(s), 2):
            union = circuits[i] | circuits[j]
            nullity = union.bit_count() - column_rank(rows, elements(union), p)
            if nullity != 2:
                continue
            for k, c in enumerate(circuits):
                if c & ~union == 0 and k not in s:
                    s.add(k)
                    changed = True
    return s


# ---------------------------------------------------------------------------
# file writers (the formats of matlift.io)


def ckt_text(n: int, circuits: list[int]) -> str:
    lines = [f"matroid {n} circuits"]
    lines += [" ".join(map(str, one_based(c))) for c in circuits]
    return "\n".join(lines) + "\n"


def gfm_text(p: int, rows: list[list[int]]) -> str:
    lines = [f"gf {p} {len(rows)} {len(rows[0])}"]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def lift_text(n: int, base: list[int], overlay: list[int]) -> str:
    return "base\n" + ckt_text(n, base) + "overlay\n" + ckt_text(len(base), overlay)


# ---------------------------------------------------------------------------
# job lists


def make_jobs(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's seeded inputs under ``work`` and return one pass
    of its job list, in seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _JOB_LISTS[workload](rng, work)
    rng.shuffle(jobs)
    return jobs


def _job(jid: str, kind: str, argv: list[str], expect: dict, inputs=()) -> dict:
    return {"id": jid, "kind": kind, "argv": argv, "inputs": list(inputs), "expect": expect}


def _jobs_certify(rng: random.Random, work: Path) -> list[dict]:
    return [
        _job(f"certify-{r}-{t}", "certify", ["krt", "certify", str(r), str(t)],
             {"exit": 0, "ground_size": 2 * t + 2})
        for r, t in CERTIFY_POINTS
    ]


def _jobs_scan(rng: random.Random, work: Path) -> list[dict]:
    jobs = [
        _job(f"ingleton-{r}-{t}", "ingleton", ["krt", "ingleton", str(r), str(t)],
             {"exit": 0})
        for r, t in INGLETON_POINTS
    ]
    jobs += [
        # K(4,t) contains Vamos-like minors (it is V8 for t = 3); the other
        # points have none.
        _job(f"vamos-{r}-{t}", "vamos", ["krt", "vamos-scan", str(r), str(t)],
             {"exit": 1 if r == 4 else 0})
        for r, t in VAMOS_POINTS
    ]
    return jobs


def _jobs_construct(rng: random.Random, work: Path) -> list[dict]:
    jobs = []
    for k, (p, rows, cols) in enumerate(REP_SHAPES, start=1):
        pool, x_old = _rep_pool(k, p, rows, cols)
        data, inv = _disguise(rng, pool, p)
        x = sorted(inv[c] for c in x_old)
        rest = [c for c in range(cols) if c not in x]
        name = f"rep{k}.gfm"
        (work / name).write_text(gfm_text(p, data))
        jobs.append(_job(
            f"rep-{k}", "rep",
            ["rep", "witness", name, "--x", ",".join(str(c + 1) for c in x)],
            {"exit": 0, "quotient_rank": rows - 2,
             "deletion_rank": column_rank(data, rest, p)},
            [name],
        ))
    for k, (p, rows, cols) in enumerate(LIFT_SHAPES, start=1):
        pool, base_old, linear_old = _lift_pool(k, p, rows, cols)
        _, inv = _disguise(rng, pool, p)
        base = sorted(relabel(base_old, inv), key=lambda c: (c.bit_count(), c))
        linear = set(relabel(linear_old, inv))
        loops = [i for i, c in enumerate(base) if c in linear]
        nonloops = [i for i, c in enumerate(base) if c not in linear]
        overlay = [1 << i for i in loops]
        overlay += [(1 << i) | (1 << j) for i, j in combinations(nonloops, 2)]
        name = f"lift{k}.lift"
        (work / name).write_text(lift_text(cols, base, overlay))
        jobs.append(_job(
            f"lift-{k}", "lift", ["lift", "general", name, "--check-star"],
            {"exit": 0, "rank": rows + (1 if nonloops else 0)},
            [name],
        ))
    for g, order in GAIN_GROUPS.items():
        jobs.append(_job(f"gain-{g}", "gain", ["gain", "lift3", f"builtin:{g}"],
                         {"exit": 0, "ground_size": 3 * order}))
    for k, (r, t) in enumerate(CHECK_POINTS, start=1):
        n, fam = krt_circuits(r, t)
        name = f"check{k}.ckt"
        (work / name).write_text(ckt_text(n, _shuffled(rng, n, fam)))
        jobs.append(_job(f"check-{k}", "check", ["check", name],
                         {"exit": 0, "n": n, "circuits": len(fam), "rank": r}, [name]))
    for k, (r, t) in enumerate(ISO_POINTS, start=1):
        n, fam = krt_circuits(r, t)
        a, b = f"iso{k}a.ckt", f"iso{k}b.ckt"
        (work / a).write_text(ckt_text(n, _shuffled(rng, n, fam)))
        (work / b).write_text(ckt_text(n, _shuffled(rng, n, fam)))
        jobs.append(_job(f"iso-{k}", "iso", ["iso", a, b], {"exit": 0}, [a, b]))
    return jobs


# The matrices come from fixed pools, and the workload seed draws a disguise
# of each: a column permutation, column scalings and an invertible row
# transform.  The column matroid, and so the work a job does, stays the
# same up to relabeling, while the bytes and labels the program sees change
# with the seed.  Drawing unrelated random matrices instead made a pass's
# cost vary by about 9% between seeds.


def _rep_pool(k: int, p: int, rows: int, cols: int) -> tuple[list[list[int]], list[int]]:
    rng = random.Random(f"rep-pool:{k}")
    data = random_matrix(rng, p, rows, cols)
    while True:
        x = rng.sample(range(cols), 2)
        if column_rank(data, x, p) == 2:
            return data, x


def _lift_pool(k: int, p: int, rows: int, cols: int):
    """A base matrix whose column matroid is loopless with a circuit count in
    LIFT_CIRCUIT_RANGE, its circuits, and a linear class of them."""
    rng = random.Random(f"lift-pool:{k}")
    lo, hi = LIFT_CIRCUIT_RANGE
    while True:
        data = random_matrix(rng, p, rows, cols)
        base = column_circuits(data, p)
        if lo <= len(base) <= hi and not any(c.bit_count() == 1 for c in base):
            break
    linear = _linear_class(rng, data, p, base)
    return data, base, [base[i] for i in linear]


def _linear_class(rng: random.Random, rows, p: int, base: list[int]) -> set[int]:
    """The linear class generated by a random modular pair of circuits, when
    one gives a proper class; otherwise a single circuit (always linear)."""
    pairs = list(combinations(range(len(base)), 2))
    rng.shuffle(pairs)
    for i, j in pairs[:50]:
        union = base[i] | base[j]
        if union.bit_count() - column_rank(rows, elements(union), p) == 2:
            linear = linear_class_closure(rows, p, base, {i, j})
            if len(linear) < len(base):
                return linear
    return {rng.randrange(len(base))}


def _disguise(rng: random.Random, data: list[list[int]], p: int):
    """Same column matroid, new labels: returns the new matrix and the map
    from old column index to new column index."""
    rows, cols = len(data), len(data[0])
    perm = list(range(cols))
    rng.shuffle(perm)
    scale = [rng.randrange(1, p) for _ in range(cols)]
    t = random_matrix(rng, p, rows, rows)
    out = [
        [sum(t[i][k] * data[k][perm[j]] for k in range(rows)) * scale[j] % p for j in range(cols)]
        for i in range(rows)
    ]
    inv = [0] * cols
    for j, old in enumerate(perm):
        inv[old] = j
    return out, inv


_JOB_LISTS = {"certify": _jobs_certify, "scan": _jobs_scan, "construct": _jobs_construct}


def _shuffled(rng: random.Random, n: int, fam: list[int]) -> list[int]:
    """A seeded relabeling of the ground set, with circuit lines shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = relabel(fam, perm)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# output checks


def read_circuits(path: Path) -> set[int]:
    """The circuits of a .ckt file written by ``ckt_text``."""
    lines = path.read_text().splitlines()[1:]
    return {mask_of(int(e) - 1 for e in ln.split()) for ln in lines}


def _checks_pass(report: dict, names) -> list[str]:
    got = {c["name"]: c["pass"] for c in report.get("checks", [])}
    return [f"check {nm} is {got.get(nm)}" for nm in names if got.get(nm) is not True]


def check_job(job: dict, code: int, report, work: Path) -> list[str]:
    """Compare a finished job with its expected outcome; returns the list of
    mismatches (empty when the job is correct).  ``report`` is the parsed
    ``--json`` certificate, or None when none was written."""
    exp = job["expect"]
    errs = []
    if code != exp["exit"]:
        errs.append(f"exit {code}, expected {exp['exit']}")
    if report is None:
        return errs + ["no JSON report"]
    kind = job["kind"]
    if kind == "certify":
        facts = report.get("facts", {})
        errs += [f"fact {f} fails" for f in "abcd" if facts.get(f, {}).get("pass") is not True]
        if report.get("sparse_paving") is not True:
            errs.append("sparse_paving is not true")
        if report.get("conclusion") != "non-representable over every field":
            errs.append(f"conclusion {report.get('conclusion')!r}")
        if report.get("params", {}).get("ground_size") != exp["ground_size"]:
            errs.append("wrong ground size")
    elif kind == "ingleton":
        errs += _checks_pass(report, ["is_ingleton"])
    elif kind == "vamos":
        witnesses = report.get("witnesses", [])
        if bool(witnesses) != (exp["exit"] == 1):
            errs.append(f"{len(witnesses)} witnesses with expected exit {exp['exit']}")
    elif kind == "rep":
        errs += _checks_pass(report, ["star_prime", "witness_verifies"])
        w = report.get("witness", {})
        if w.get("quotient_rank") != exp["quotient_rank"]:
            errs.append(f"quotient rank {w.get('quotient_rank')}, expected {exp['quotient_rank']}")
        if w.get("deletion_rank") != exp["deletion_rank"]:
            errs.append(f"deletion rank {w.get('deletion_rank')}, expected {exp['deletion_rank']}")
    elif kind == "lift":
        errs += _checks_pass(report, ["star_prime", "star", "lift_rank"])
        if report.get("lift", {}).get("rank") != exp["rank"]:
            errs.append(f"lift rank {report.get('lift', {}).get('rank')}, expected {exp['rank']}")
    elif kind == "gain":
        errs += [f"check {c['name']} fails" for c in report.get("checks", []) if not c["pass"]]
        lift = report.get("lift", {})
        if lift.get("rank") != 4 or lift.get("ground_size") != exp["ground_size"]:
            errs.append(f"lift shape {lift.get('rank')}/{lift.get('ground_size')}")
    elif kind == "check":
        errs += _checks_pass(report, ["circuit_axioms"])
        want = f"valid matroid: n={exp['n']}, {exp['circuits']} circuits, rank {exp['rank']}"
        if report.get("conclusion") != want:
            errs.append(f"conclusion {report.get('conclusion')!r}, expected {want!r}")
    elif kind == "iso":
        c1, c2 = (read_circuits(work / name) for name in job["inputs"])
        perm = [p - 1 for p in report.get("permutation", [])]
        if sorted(perm) != list(range(len(perm))) or not perm:
            errs.append("returned map is not a permutation")
        elif set(relabel(c1, perm)) != c2:
            errs.append("returned permutation does not map circuits onto circuits")
    return errs
