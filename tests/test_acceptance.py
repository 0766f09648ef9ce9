"""Acceptance suite: eleven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the pass/fail lines print
through the capture so they are always visible.
Each criterion pins its stated tolerance (exact values, percentage, wall
time) directly from the project contract.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from matlift.cli import main
from matlift.core import mask_of, validate_circuits
from matlift.gain import GainGraph, balanced_circuit_audit, zaslavsky_lift
from matlift.gf import lift_witness, verify_witness
from matlift.groups import builtin_group, elementary_abelian_group, group_partitions, primitive_partition, symmetric_group_3
from matlift.krt import (
    KrtSpec,
    antichain_check,
    build_krt,
    ingleton_inequality,
    is_ingleton_sparse_paving,
    scan_vamos_like_minors,
)
from matlift.lifts import LiftSpec, check_star, check_star_prime

from zoo import (
    lift_agrees_with_elementary,
    random_base_matroid,
    random_linear_class,
    random_overlay,
    random_witness_instance,
    refines,
    zoo,
)

TESTDATA = Path(__file__).parent / "testdata"


@contextmanager
def criterion(echo, num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        echo(f"ACCEPTANCE {num} ({label}): FAIL [{time.perf_counter() - t0:.1f}s]")
        raise
    elapsed = time.perf_counter() - t0
    echo(f"ACCEPTANCE {num} ({label}): PASS [{elapsed:.1f}s / budget {budget_s:g}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_k43_reproduction(announce, capsys, tmp_path):
    with criterion(announce, 1, "K(4,3) reproduction and V8 isomorphism", 1.0):
        code = main(["krt", "build", "4", "3", "--out", str(tmp_path / "k43.ckt")])
        out = capsys.readouterr().out
        assert code == 0
        emitted = {tuple(int(x) for x in line.split()) for line in out.splitlines() if line.strip()}
        assert emitted == {
            (1, 2, 7, 8),
            (3, 4, 7, 8),
            (5, 6, 7, 8),
            (1, 2, 3, 4),
            (3, 4, 5, 6),
        }
        code = main(["iso", str(tmp_path / "k43.ckt"), str(TESTDATA / "v8.ckt")])
        iso_out = capsys.readouterr().out
        assert code == 0
        perm = [int(tok) for tok in iso_out.split()]
        assert sorted(perm) == list(range(1, 9))


def test_criterion_02_obstruction_certificates(announce, capsys, tmp_path):
    with criterion(announce, 2, "facts (a)-(d) for six parameter pairs", 10.0):
        for r, t in [(4, 3), (5, 4), (6, 4), (5, 5), (6, 5), (7, 5)]:
            json_path = tmp_path / f"cert_{r}_{t}.json"
            code = main(["--json", str(json_path), "krt", "certify", str(r), str(t)])
            capsys.readouterr()
            assert code == 0, f"certify {r} {t} exited {code}"
            body = json.loads(json_path.read_text())
            facts = body["facts"]
            assert all(facts[key]["pass"] is True for key in "abcd"), (r, t)
            assert body["conclusion"] == "non-representable over every field"


def test_criterion_03_representable_witness_suite(announce):
    with criterion(announce, 3, "witness construction on 200 random instances", 30.0):
        rng = random.Random(20240803)
        for _ in range(200):
            a, x = random_witness_instance(rng)
            w = lift_witness(a, x)
            ok, witness = check_star_prime(w.spec)
            assert ok, f"(*') failed: {witness}"
            assert verify_witness(w.spec, w.l)


def test_criterion_04_star_equivalence_suite(announce):
    with criterion(announce, 4, "(*) equals (*') on 500 random specs", 60.0):
        rng = random.Random(20240804)
        for _ in range(500):
            m = random_base_matroid(rng, max_elems=8, max_circuits=12)
            overlay = random_overlay(rng, len(m.circuits))
            spec = LiftSpec(m, overlay)
            assert check_star(spec)[0] == check_star_prime(spec)[0]


def test_criterion_05_ingleton_suite(announce):
    with criterion(announce, 5, "Ingleton criterion values and direct violation", 5.0):
        ok54, _ = is_ingleton_sparse_paving(build_krt(KrtSpec(5, 4)))
        assert ok54 is True
        ok55, _ = is_ingleton_sparse_paving(build_krt(KrtSpec(5, 5)))
        assert ok55 is True
        k43 = build_krt(KrtSpec(4, 3))
        ok43, witness = is_ingleton_sparse_paving(k43)
        assert ok43 is False and witness is not None
        assert witness.core == 0
        assert sorted(witness.pairs) == sorted(
            [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]), mask_of([6, 7])]
        )
        sat, lhs, rhs = ingleton_inequality(k43, *witness.pairs)
        assert not sat and lhs < rhs


def test_criterion_06_vamos_scan_k54(announce):
    with criterion(announce, 6, "no Vamos-like minor in K(5,4)", 60.0):
        assert scan_vamos_like_minors(build_krt(KrtSpec(5, 4))) == []


def test_criterion_07_rank2_lift_construction(announce, capsys, tmp_path):
    with criterion(announce, 7, "rank-2 lift on S3 and Z2^2, refusals for Z4 and Z6", 120.0):
        for name, edges in [("s3", 18), ("z2^2", 12)]:
            json_path = tmp_path / f"lift_{name.replace('^', '')}.json"
            code = main(["--json", str(json_path), "gain", "lift3", f"builtin:{name}"])
            capsys.readouterr()
            assert code == 0, f"lift3 {name} exited {code}"
            body = json.loads(json_path.read_text())
            checks = {c["name"]: c["pass"] for c in body["checks"]}
            assert checks["hyperplane_axioms"] is True
            assert checks["rank_is_4"] is True
            assert checks["balanced_circuit_audit"] is True
            assert checks["graphic_is_quotient"] is True
            assert body["lift"]["ground_size"] == edges
        for name in ("z4", "z6"):
            code = main(["gain", "lift3", f"builtin:{name}"])
            out = capsys.readouterr().out
            assert code == 1
            assert "no nontrivial partition" in out


def test_criterion_08_elementary_lift_consistency(announce):
    with criterion(announce, 8, "general lift agrees with elementary on 100 instances", 30.0):
        rng = random.Random(20240808)
        for _ in range(100):
            m = random_base_matroid(rng, max_elems=8, max_circuits=12)
            cls = random_linear_class(rng, m)
            assert lift_agrees_with_elementary(m, cls)
        gg = GainGraph(builtin_group("z2"), 3)
        assert balanced_circuit_audit(zaslavsky_lift(gg), gg) is None


def test_criterion_09_axiom_property_suite(announce):
    # Exhaustive rank axioms for n <= 10; deterministic samples above, per
    # the kernel's stated testability bound.
    with criterion(announce, 9, "axiom suite over every constructed matroid", 300.0):
        for name, m in zoo():
            report = validate_circuits(m.circuits, m.n)
            assert report.ok, f"{name}: {report.describe()}"
            assert m.rank(0) == 0, name
            if m.n <= 10:
                full = m.full_mask
                ranks = [m.rank(x) for x in range(full + 1)]
                for x in range(full + 1):
                    rest = full & ~x
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        gain = ranks[x | low] - ranks[x]
                        assert 0 <= gain <= 1, f"{name}: unit increase at {x}"
                for x in range(full + 1):
                    for y in range(x, full + 1):
                        assert ranks[x | y] + ranks[x & y] <= ranks[x] + ranks[y], (
                            f"{name}: submodularity at ({x}, {y})"
                        )
            else:
                rng = random.Random(hash(name) & 0xFFFF)
                full = m.full_mask
                for _ in range(4000):
                    x = rng.getrandbits(m.n)
                    e = 1 << rng.randrange(m.n)
                    if x & e:
                        continue
                    gain = m.rank(x | e) - m.rank(x)
                    assert 0 <= gain <= 1, f"{name}: unit increase (sampled)"
                for _ in range(4000):
                    x = rng.getrandbits(m.n)
                    y = rng.getrandbits(m.n)
                    assert m.rank(x | y) + m.rank(x & y) <= m.rank(x) + m.rank(y), (
                        f"{name}: submodularity (sampled)"
                    )


def test_criterion_10_antichain_desk_check(announce):
    with criterion(announce, 10, "K(7,5) has no proper K(5,4) minor", 600.0):
        assert antichain_check(KrtSpec(7, 5), KrtSpec(5, 4)) is True


def test_criterion_11_group_theory_suite(announce):
    with criterion(announce, 11, "primitive partitions and their properties", 5.0):
        s3 = symmetric_group_3()
        prim = primitive_partition(s3)
        assert prim is not None and len(prim) == 4
        part_set = set(prim.parts)
        for gamma in range(s3.order):
            for part in prim.parts:
                assert frozenset(s3.conjugate(gamma, a) for a in part) in part_set
        for p in (2, 3):
            g = elementary_abelian_group(p, 2)
            prim_p = primitive_partition(g)
            assert prim_p is not None and len(prim_p) == p + 1
            for other in group_partitions(g):
                assert refines(prim_p, other)
        for other in group_partitions(s3):
            assert refines(prim, other)
