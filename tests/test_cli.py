"""CLI surface: commands, exit codes, JSON determinism, golden certificates."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import matlift
import matlift.core as core
from matlift.cli import main
from matlift.core import elements_of, mask_of, validate_circuits

from zoo import S3_GRP

TESTDATA = Path(__file__).parent / "testdata"
GOLDEN = Path(__file__).parent / "golden"

# The five Vamos-like minors of K(4,7): X = {15, 16} with three consecutive
# blocks C_i, C_{i+1}, C_{i+2}, each a copy of K(4,3) (the brute-force
# minor scan finds the same list).
K47_VAMOS_WITNESSES = [
    {"contracted": [], "deleted": deleted, "partition": [[1, 2], [3, 4], [5, 6], [7, 8]]}
    for deleted in [
        [1, 2, 3, 4, 5, 6, 7, 8],
        [1, 2, 3, 4, 5, 6, 13, 14],
        [1, 2, 3, 4, 11, 12, 13, 14],
        [1, 2, 9, 10, 11, 12, 13, 14],
        [7, 8, 9, 10, 11, 12, 13, 14],
    ]
]


def run(argv: list[str], capsys) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def load_report(path: Path) -> dict:
    body = json.loads(path.read_text())
    body.pop("wall_time_s", None)
    return body


class TestCheckAndRank:
    def test_check_valid(self, capsys, tmp_path):
        code, out = run(["check", str(TESTDATA / "v8.ckt")], capsys)
        assert code == 0
        assert "valid matroid" in out

    def test_check_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckt"
        bad.write_text("matroid 4 circuits\n1 2\n1 2 3\n")
        code, out = run(["check", str(bad)], capsys)
        assert code == 1
        assert "antichain" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckt"
        bad.write_text("matroid x circuits\n")
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "/nonexistent/foo.ckt"]) == 2

    def test_rank_paper_value(self, capsys):
        code, out = run(["rank", str(TESTDATA / "v8.ckt"), "1,2,7,8"], capsys)
        assert code == 0
        assert "= 3" in out

    def test_rank_full_set(self, capsys):
        code, out = run(["rank", str(TESTDATA / "v8.ckt"), "1,2,3,4,5,6,7,8"], capsys)
        assert code == 0 and "= 4" in out


class TestKrt:
    def test_build_emits_paper_hyperplanes(self, capsys):
        code, out = run(["krt", "build", "4", "3"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines == ["1 2 3 4", "3 4 5 6", "1 2 7 8", "3 4 7 8", "5 6 7 8"]

    def test_build_json_reports_sparse_paving(self, capsys, tmp_path):
        json_path = tmp_path / "build.json"
        code, _ = run(["--json", str(json_path), "krt", "build", "4", "3"], capsys)
        assert code == 0
        assert load_report(json_path)["checks"] == [{"name": "sparse_paving", "pass": True}]

    def test_build_out_matches_v8_via_iso(self, capsys, tmp_path):
        out_path = tmp_path / "k43.ckt"
        code, _ = run(["krt", "build", "4", "3", "--out", str(out_path)], capsys)
        assert code == 0
        code, out = run(["iso", str(out_path), str(TESTDATA / "v8.ckt")], capsys)
        assert code == 0
        perm = [int(tok) for tok in out.split()]
        assert sorted(perm) == list(range(1, 9))

    def test_certify_golden(self, capsys, tmp_path):
        for r, t in [(4, 3), (7, 5)]:
            json_path = tmp_path / f"cert_{r}_{t}.json"
            code, out = run(["--json", str(json_path), "krt", "certify", str(r), str(t)], capsys)
            assert code == 0
            assert "non-representable over every field" in out
            got = load_report(json_path)
            expected = json.loads((GOLDEN / f"krt_certify_{r}_{t}.json").read_text())
            expected.pop("wall_time_s", None)
            assert got == expected

    def test_certify_reports_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["--json", str(p1), "krt", "certify", "5", "4"], capsys)
        run(["--json", str(p2), "krt", "certify", "5", "4"], capsys)
        a = json.loads(p1.read_text())
        b = json.loads(p2.read_text())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_certify_out_of_range_params(self, capsys):
        assert main(["krt", "certify", "3", "3"]) == 2

    def test_ingleton_command(self, capsys):
        code, out = run(["krt", "ingleton", "5", "4"], capsys)
        assert code == 0 and "is Ingleton" in out
        code, out = run(["krt", "ingleton", "4", "3"], capsys)
        assert code == 1 and "violates Ingleton" in out

    def test_ingleton_golden(self, capsys, tmp_path):
        json_path = tmp_path / "ing.json"
        run(["--json", str(json_path), "krt", "ingleton", "5", "4"], capsys)
        expected = json.loads((GOLDEN / "krt_ingleton_5_4.json").read_text())
        expected.pop("wall_time_s", None)
        assert load_report(json_path) == expected

    def test_vamos_scan(self, capsys):
        code, out = run(["krt", "vamos-scan", "5", "4"], capsys)
        assert code == 0 and "no Vamos-like minor" in out

    def test_certify_large_skips_scan(self, capsys, tmp_path):
        json_path = tmp_path / "cert.json"
        code, _ = run(["--json", str(json_path), "krt", "certify", "5", "5"], capsys)
        assert code == 0
        body = load_report(json_path)
        assert body["vamos_like_minors"]["scanned"] is False

    def test_certify_deep_forces_scan(self, capsys, tmp_path):
        json_path = tmp_path / "cert.json"
        code, _ = run(["--json", str(json_path), "krt", "certify", "5", "5", "--deep"], capsys)
        assert code == 0
        body = load_report(json_path)
        assert body["vamos_like_minors"]["scanned"] is True
        assert body["vamos_like_minors"]["witnesses"] == []

    def test_certify_deep_scans_k47(self, capsys, tmp_path):
        # n = 16: the scan runs, finds the Vamos-like minors, and the exit
        # code still follows facts a-d.
        json_path = tmp_path / "cert.json"
        code, _ = run(["--json", str(json_path), "krt", "certify", "4", "7", "--deep"], capsys)
        assert code == 0
        body = load_report(json_path)
        assert body["conclusion"] == "non-representable over every field"
        assert body["vamos_like_minors"] == {"scanned": True, "witnesses": K47_VAMOS_WITNESSES}

    def test_vamos_scan_k47_finds_witnesses(self, capsys, tmp_path):
        json_path = tmp_path / "scan.json"
        code, out = run(["--json", str(json_path), "krt", "vamos-scan", "4", "7"], capsys)
        assert code == 1 and "5 Vamos-like minor(s) found" in out
        assert load_report(json_path)["witnesses"] == K47_VAMOS_WITNESSES

    def test_ingleton_k5_10(self, capsys):
        # n = 22, inside the Ingleton guarantee regime.
        code, out = run(["krt", "ingleton", "5", "10"], capsys)
        assert code == 0 and "K(5,10) is Ingleton" in out

    def test_vamos_scan_k5_10(self, capsys):
        # n = 22, inside the antichain guarantee regime.
        code, out = run(["krt", "vamos-scan", "5", "10"], capsys)
        assert code == 0 and "no Vamos-like minor in K(5,10)" in out

    def test_krt_build_roundtrip_through_file(self, capsys, tmp_path):
        from matlift.io import parse_matroid
        from matlift.krt import KrtSpec, build_krt

        for r, t in [(4, 3), (5, 4)]:
            path = tmp_path / f"k{r}{t}.ckt"
            code, _ = run(["krt", "build", str(r), str(t), "--out", str(path)], capsys)
            assert code == 0
            assert parse_matroid(path) == build_krt(KrtSpec(r, t)).to_matroid()

    def test_above_max_ground_exits_2_fast(self, capsys):
        # K(40,40) has 82 elements and K(4,30000) 60002; every krt command
        # refuses both at once, without listing a block.
        for r, t, n in [("40", "40", 82), ("4", "30000", 60002)]:
            for command in ["build", "certify", "ingleton", "vamos-scan"]:
                t0 = time.perf_counter()
                code = main(["krt", command, r, t])
                elapsed = time.perf_counter() - t0
                assert code == 2, (command, t)
                assert f"ground set size {n} outside [0, 64]" in capsys.readouterr().err
                assert elapsed < 0.2, (command, t, elapsed)

    def test_build_out_above_cap_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "k10_10.ckt"
        code = main(["krt", "build", "10", "10", "--out", str(out_path)])
        assert code == 2
        assert "--out writes circuit families up to 20 elements" in capsys.readouterr().err
        assert not out_path.exists()


class TestJsonFlag:
    def test_every_position_writes_the_same_report(self, capsys, tmp_path):
        for argv in [["krt", "certify", "4", "3"], ["check", str(TESTDATA / "v8.ckt")]]:
            texts = []
            for k, pos in enumerate([0, 1, len(argv)]):
                json_path = tmp_path / f"{argv[0]}_{k}.json"
                assert main(argv[:pos] + ["--json", str(json_path)] + argv[pos:]) == 0
                capsys.readouterr()
                lines = json_path.read_text().splitlines(keepends=True)
                texts.append("".join(ln for ln in lines if '"wall_time_s"' not in ln))
            assert texts[0] == texts[1] == texts[2]

    def test_abbreviations_are_refused(self, capsys, tmp_path):
        # an abbreviation the command echo would keep, so no spelling
        # other than --json (or --json=PATH) may select the option
        v8 = str(TESTDATA / "v8.ckt")
        json_path = tmp_path / "r.json"
        for argv in [["--js", str(json_path), "check", v8], ["check", v8, f"--jso={json_path}"],
                     ["lift", "general", str(TESTDATA / "u13.lift"), "--check", "--json", str(json_path)]]:
            assert main(argv) == 2, argv
            assert not json_path.exists()
        capsys.readouterr()


class TestGain:
    def test_lift3_s3(self, capsys, tmp_path):
        json_path = tmp_path / "lift.json"
        code, out = run(["--json", str(json_path), "gain", "lift3", "builtin:s3"], capsys)
        assert code == 0
        assert "rank 4 on 18 edges" in out
        body = load_report(json_path)
        names = {c["name"]: c["pass"] for c in body["checks"]}
        assert names == {
            "nontrivial_partition": True,
            "hyperplane_axioms": True,
            "rank_is_4": True,
            "balanced_circuit_audit": True,
            "graphic_is_quotient": True,
        }

    def test_lift3_s3_golden(self, capsys, tmp_path):
        json_path = tmp_path / "lift.json"
        run(["--json", str(json_path), "gain", "lift3", "builtin:s3"], capsys)
        expected = json.loads((GOLDEN / "gain_lift3_s3.json").read_text())
        expected.pop("wall_time_s", None)
        assert load_report(json_path) == expected

    def test_internal_error_is_inconclusive(self, capsys, monkeypatch):
        def broken(group):
            raise AssertionError("hyperplane family is not a matroid")

        monkeypatch.setattr("matlift.gain.rank2_lift_k3", broken)
        code = main(["gain", "lift3", "builtin:s3"])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_lift3_large_builtin_group_refused_fast(self, capsys):
        t0 = time.perf_counter()
        assert main(["gain", "lift3", "builtin:z2^10"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "capped at order 64" in capsys.readouterr().err

    def test_lift3_z4_refused(self, capsys):
        code, out = run(["gain", "lift3", "builtin:z4"], capsys)
        assert code == 1
        assert "no nontrivial partition" in out

    def test_partitions_s3(self, capsys):
        code, out = run(["gain", "partitions", "builtin:s3"], capsys)
        assert code == 0
        assert "1 nontrivial partition" in out

    def test_partitions_z6_exit_code(self, capsys):
        code, out = run(["gain", "partitions", "builtin:z6"], capsys)
        assert code == 1

    def test_partitions_budget_exhausted_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("matlift.groups.PARTITION_SEARCH_BUDGET", 1000)
        json_path = tmp_path / "partitions.json"
        code, out = run(["--json", str(json_path), "gain", "partitions", "builtin:z2^4"], capsys)
        assert code == 3
        assert "inconclusive" in out
        report = load_report(json_path)
        (check,) = report["checks"]
        assert check["name"] == "has_nontrivial_partition" and check["pass"] is False
        assert check["witness"]["search_budget"] == 1000
        assert report["conclusion"].startswith("inconclusive:") and "partitions" not in report
        assert "error" not in report

    def test_build_lists_edges(self, capsys):
        code, out = run(["gain", "build", "builtin:z2", "3"], capsys)
        assert code == 0
        assert out.splitlines()[:2] == ["1 2 0", "1 2 1"]

    def test_group_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "s3.grp"
        path.write_text(S3_GRP)
        code, out = run(["gain", "partitions", str(path)], capsys)
        assert code == 0 and "1 nontrivial partition" in out

    def test_group_file_with_an_extra_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "z2.grp"
        path.write_text("group 2\ne a\ne a\na e\njunk row here\n")
        assert main(["gain", "partitions", str(path)]) == 2
        assert f"{path}:5:" in capsys.readouterr().err


class TestLiftCommands:
    def test_elementary_lift_stdout(self, capsys, tmp_path):
        m_path = tmp_path / "u24.ckt"
        m_path.write_text("matroid 4 circuits\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        code, out = run(["lift", "elementary", str(m_path), "--class", ""], capsys)
        assert code == 0
        assert "matroid 4 circuits" in out and "1 2 3 4" in out

    def test_elementary_rejects_bad_class(self, capsys, tmp_path):
        m_path = tmp_path / "u13.ckt"
        m_path.write_text("matroid 3 circuits\n1 2\n1 3\n2 3\n")
        code, out = run(["lift", "elementary", str(m_path), "--class", "1,2"], capsys)
        assert code == 1
        assert "not a linear class" in out

    @pytest.mark.parametrize(
        "circuits, cls, code",
        [("1 2\n1 3\n2 3\n", "1", 0), ("1 2\n1 3\n2 3\n", "1,2", 1), ("", "", 0)],
        ids=["u13-linear", "u13-not-linear", "circuit-free"],
    )
    def test_elementary_checks_star_prime_once(self, capsys, tmp_path, monkeypatch, circuits, cls, code):
        # the class is linear exactly when its rank-1 overlay, one element
        # per circuit, passes (*'), checked once, inside build_lift
        import matlift.lifts as lifts

        calls = []
        check = lifts.check_star_prime
        monkeypatch.setattr(lifts, "check_star_prime", lambda spec: calls.append(spec) or check(spec))
        m_path = tmp_path / "m.ckt"
        m_path.write_text("matroid 3 circuits\n" + circuits)
        path = tmp_path / "r.json"
        assert run(["--json", str(path), "lift", "elementary", str(m_path), "--class", cls], capsys)[0] == code
        assert len(calls) == 1
        assert isinstance(calls[0].overlay, lifts.ClassOverlay)
        assert calls[0].overlay.n == circuits.count("\n")
        report = load_report(path)
        checks = [(c["name"], c["pass"]) for c in report["checks"]]
        assert checks == ([("linear_class", True), ("rank_increase", True)] if code == 0 else [("linear_class", False)])
        if not circuits:
            assert report["lift"] == {"rank": 3, "circuits": []}

    def test_general_lift(self, capsys, tmp_path):
        spec = tmp_path / "s.lift"
        spec.write_text(
            "base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n1 2 3\n"
        )
        code, out = run(["lift", "general", str(spec), "--check-star"], capsys)
        assert code == 0
        assert "matroid 3 circuits" in out

    def test_general_lift_refusal_and_force(self, capsys, tmp_path):
        # overlay = free matroid on the circuits of U_{1,3}: fails (*')
        spec = tmp_path / "s.lift"
        spec.write_text("base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n")
        code, out = run(["lift", "general", str(spec)], capsys)
        assert code == 1
        assert "refused" in out
        code, out = run(["lift", "general", str(spec), "--force"], capsys)
        assert code == 1
        assert "formula" in out.lower() or "axiom" in out.lower()

    @pytest.mark.parametrize(
        "overlay, witness",
        [("", "unit-increase witness=[1, 2], [3]"), ("1\n2\n", "submodularity witness=[1], [2], [3]")],
        ids=["unit-increase", "submodularity"],
    )
    def test_force_names_the_failing_sets(self, capsys, tmp_path, overlay, witness):
        # base U_{1,3}: with the free overlay r(X+e) - r(X) = 2 at X = {1, 2},
        # e = 3; with elements 1 and 2 loops of the overlay, X = {1},
        # e = 2, f = 3 break submodularity
        spec = tmp_path / "s.lift"
        spec.write_text("base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n" + overlay)
        path = tmp_path / "r.json"
        code, out = run(["--json", str(path), "lift", "general", str(spec), "--force"], capsys)
        assert code == 1
        assert out.strip() == f"condition (*') fails and the formula breaks: {witness}"
        assert load_report(path)["checks"][-1] == {"name": "formula_rank_axioms", "pass": False, "witness": witness}

    def test_force_when_the_formula_is_a_matroid(self, capsys, tmp_path):
        spec = tmp_path / "s.lift"
        spec.write_text(
            "base\nmatroid 6 circuits\n2 3 4 6\n1 2 5 6\n1 2 3 4 5\n1 3 4 5 6\n"
            "overlay\nmatroid 4 circuits\n1 4\n1 2 3\n2 3 4\n"
        )
        path = tmp_path / "r.json"
        code, _ = run(["--json", str(path), "lift", "general", str(spec), "--force"], capsys)
        assert code == 1
        report = load_report(path)
        assert report["checks"] == [
            {"name": "star_prime", "pass": False, "witness": "circuit #2 not in cl_N of {1, 4}"},
            {"name": "formula_rank_axioms", "pass": True},
        ]
        assert report["lift"] == {"rank": 6, "circuits": []}
        assert report["conclusion"] == "condition (*') fails, yet the formula still gives a matroid"

    @pytest.mark.parametrize("overlay, code", [("1 2 3\n", 0), ("", 1)])
    def test_general_checks_star_prime_once(self, capsys, tmp_path, monkeypatch, overlay, code):
        # (*') is checked by build_lift alone; the report keeps its checks
        # in the order star_prime, star, lift_rank
        import matlift.lifts as lifts

        calls = []
        check = lifts.check_star_prime
        monkeypatch.setattr(lifts, "check_star_prime", lambda spec: calls.append(spec) or check(spec))
        spec = tmp_path / "s.lift"
        spec.write_text("base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n" + overlay)
        path = tmp_path / "r.json"
        assert run(["--json", str(path), "lift", "general", str(spec), "--check-star"], capsys)[0] == code
        assert len(calls) == 1
        checks = load_report(path)["checks"]
        want = [("star_prime", True), ("star", True), ("lift_rank", True)] if code == 0 else [("star_prime", False), ("star", False)]
        assert [(c["name"], c["pass"]) for c in checks] == want
        assert ("witness" in checks[0]) == (code == 1)


class TestRepWitness:
    def test_paper_instance(self, capsys, tmp_path):
        gfm = tmp_path / "u24.gfm"
        gfm.write_text("gf 3 2 4\n1 0 1 1\n0 1 1 2\n")
        json_path = tmp_path / "w.json"
        code, out = run(["--json", str(json_path), "rep", "witness", str(gfm), "--x", "1"], capsys)
        assert code == 0
        assert "verified" in out
        body = load_report(json_path)
        assert body["witness"]["overlay_rank"] == 1

    def test_dependent_x(self, capsys, tmp_path):
        gfm = tmp_path / "a.gfm"
        gfm.write_text("gf 2 2 3\n1 1 0\n0 0 1\n")
        json_path = tmp_path / "w.json"
        code = main(["--json", str(json_path), "rep", "witness", str(gfm), "--x", "1,2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("check failed: columns [1, 2] are dependent")
        body = load_report(json_path)
        assert body["error"].startswith("check failed: columns [1, 2] are dependent")
        assert body["inputs"] == {"matrix": str(gfm), "x_columns": [1, 2]}

    @pytest.mark.parametrize("x, line", [
        ("1,2,3", "check failed: columns [1, 2, 3] are dependent (kernel vector [5, 4, 1])\n"),
        ("3,1,2", "check failed: columns [3, 1, 2] are dependent (kernel vector [2, 3, 1])\n"),
    ])
    def test_dependent_x_kernel_vector_over_gf7(self, capsys, tmp_path, x, line):
        gfm = tmp_path / "a.gfm"
        gfm.write_text("gf 7 2 3\n1 0 2\n0 1 3\n")
        json_path = tmp_path / "w.json"
        assert main(["--json", str(json_path), "rep", "witness", str(gfm), "--x", x]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line
        assert load_report(json_path)["error"] == line.rstrip("\n")

    def test_x_columns_are_1_based_and_keep_their_order(self, capsys, tmp_path):
        gfm = tmp_path / "u24.gfm"
        gfm.write_text("gf 3 2 4\n1 0 1 1\n0 1 1 2\n")
        for x in ("9", "0"):
            assert main(["rep", "witness", str(gfm), "--x", x]) == 2
            assert capsys.readouterr().err == f"error: column {x} outside [1, 4]\n"
        json_path = tmp_path / "w.json"
        assert main(["--json", str(json_path), "rep", "witness", str(gfm), "--x", "2,1"]) == 0
        assert load_report(json_path)["inputs"]["x_columns"] == [2, 1]

    def test_repeated_x_columns_refused(self, capsys):
        assert main(["rep", "witness", str(TESTDATA / "u24.gfm"), "--x", "1,1"]) == 2
        assert capsys.readouterr().err == "error: repeated columns in X\n"

    def test_above_sweep_bound_exits_2_fast(self, capsys, tmp_path):
        # 3x26 over GF(2) with X = {1}: the check would sweep 2^25 subsets of
        # K\X, past MAX_SWEEP_GROUND, so the command refuses before building
        rng = random.Random(26)
        rows = [[int(i == 0)] + [rng.randrange(2) for _ in range(25)] for i in range(3)]
        gfm = tmp_path / "wide.gfm"
        gfm.write_text("gf 2 3 26\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        json_path = tmp_path / "w.json"
        t0 = time.perf_counter()
        code = main(["--json", str(json_path), "rep", "witness", str(gfm), "--x", "1"])
        elapsed = time.perf_counter() - t0
        line = "error: exhaustive check over all 2^25 subsets refused; needs at most 16 elements"
        assert code == 2
        assert capsys.readouterr().err == line + "\n"
        body = load_report(json_path)
        assert body["error"] == line
        assert body["inputs"] == {"matrix": str(gfm), "x_columns": [1]}
        assert elapsed < 1.0


class TestIso:
    def test_non_isomorphic(self, capsys, tmp_path):
        a = tmp_path / "a.ckt"
        b = tmp_path / "b.ckt"
        a.write_text("matroid 4 circuits\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        b.write_text("matroid 4 circuits\n1 2 3 4\n")
        code, out = run(["iso", str(a), str(b)], capsys)
        assert code == 1
        assert "not isomorphic" in out

    def test_budget_exhausted_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        from matlift.core import SearchBudgetExceeded

        def exhausted(m1, m2, *, node_budget):
            raise SearchBudgetExceeded(f"isomorphism search exceeded {node_budget} nodes")

        monkeypatch.setattr("matlift.core.find_isomorphism", exhausted)
        json_path = tmp_path / "iso.json"
        v8 = str(TESTDATA / "v8.ckt")
        code, out = run(["--json", str(json_path), "iso", v8, v8], capsys)
        assert code == 3
        assert "inconclusive" in out
        (check,) = load_report(json_path)["checks"]
        assert check["name"] == "isomorphic" and check["pass"] is False
        assert check["witness"]["node_budget"] == 10**7


# One golden report per command family, with inputs from tests/testdata:
# (golden name, argv, exit code).
GOLDEN_CASES = [
    ("check_v8", ["check", "{d}/v8.ckt"], 0),
    ("rank_v8", ["rank", "{d}/v8.ckt", "1,2,7,8"], 0),
    ("iso_v8", ["iso", "{d}/v8.ckt", "{d}/v8.ckt"], 0),
    ("lift_elementary_u24", ["lift", "elementary", "{d}/u24.ckt", "--class", "1"], 0),
    ("lift_general_u13", ["lift", "general", "{d}/u13.lift", "--check-star"], 0),
    ("rep_witness_u24", ["rep", "witness", "{d}/u24.gfm", "--x", "1"], 0),
    ("krt_build_4_3", ["krt", "build", "4", "3"], 0),
    ("krt_vamos_scan_4_7", ["krt", "vamos-scan", "4", "7"], 1),
    ("gain_build_z2_3", ["gain", "build", "builtin:z2", "3"], 0),
    ("gain_partitions_s3", ["gain", "partitions", "builtin:s3"], 0),
]


def _file_names(value):
    """``value`` with every testdata path replaced by its file name."""
    if isinstance(value, dict):
        return {k: _file_names(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_file_names(v) for v in value]
    if isinstance(value, str) and value.startswith(str(TESTDATA)):
        return Path(value).name
    return value


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_report(name, argv, code, capsys, tmp_path):
    json_path = tmp_path / "report.json"
    argv = [a.format(d=TESTDATA) for a in argv]
    assert main(["--json", str(json_path), *argv]) == code
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _file_names(load_report(json_path)) == expected


class TestExitMap:
    """Exit code and stderr prefix for each class of failure; with --json
    the report is still written and its ``error`` is the stderr line."""

    def expect(self, argv, code, prefix, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        assert main(["--json", str(json_path), *argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        body = load_report(json_path)
        assert body["command"] == argv
        assert body["error"].startswith(prefix) and body["error"] == err.rstrip("\n")

    def test_malformed_ckt(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckt"
        bad.write_text("matroid 3 circuits\n1 x\n")
        self.expect(["rank", str(bad), "1"], 2, "error:", capsys, tmp_path)

    def test_bad_grp(self, capsys, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("group 2\na b\na b\na b\n")  # not a Latin square
        self.expect(["gain", "partitions", str(bad)], 2, "error:", capsys, tmp_path)

    @pytest.mark.parametrize("group, message", [
        ("builtin:z0", "cyclic group order must be positive"),
        ("builtin:z4^2", "4 is not prime"),
        ("builtin:z2^0", "need at least one factor"),
        ("builtin:d1", "dihedral group needs m >= 2"),
        ("no-inverse.grp", "{path}:1: element a has no inverse"),
    ])
    def test_bad_group(self, group, message, capsys, tmp_path):
        if group.endswith(".grp"):
            path = tmp_path / group
            path.write_text("group 2\ne a\ne a\na a\n")  # an identity, but a * x = e has no solution
            group, message = str(path), message.format(path=path)
        self.expect(["gain", "partitions", group], 2, f"error: {message}", capsys, tmp_path)
        assert load_report(tmp_path / "report.json")["error"] == f"error: {message}"

    def test_ckt_axiom_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckt"
        bad.write_text("matroid 4 circuits\n1 2\n1 2 3\n")
        for argv in (["rank", str(bad), "1"], ["iso", str(bad), str(bad)]):
            self.expect(argv, 2, "error: invalid circuit family", capsys, tmp_path)

    def test_assertion_is_internal_error(self, capsys, monkeypatch, tmp_path):
        def broken(spec):
            raise AssertionError("K(r,t) is not sparse paving")

        monkeypatch.setattr("matlift.krt.build_krt", broken)
        self.expect(["krt", "certify", "4", "3"], 3, "internal error", capsys, tmp_path)

    def test_bad_token_in_class_file(self, capsys, tmp_path):
        class_file = tmp_path / "class.txt"
        class_file.write_text("1 x\n")
        argv = ["lift", "elementary", str(TESTDATA / "u24.ckt"), "--class", str(class_file)]
        self.expect(argv, 2, "error: bad circuit index list '1 x\\n'", capsys, tmp_path)

    def test_class_index_out_of_range(self, capsys, tmp_path):
        argv = ["lift", "elementary", str(TESTDATA / "u24.ckt"), "--class", "2,9"]
        self.expect(argv, 2, "error: circuit index 9 outside [1, 4]", capsys, tmp_path)

    @pytest.mark.parametrize("where", ["missing/r.json", "."])
    def test_unwritable_report_path(self, where, capsys, tmp_path):
        json_path = tmp_path / where
        assert main(["--json", str(json_path), "krt", "build", "4", "3"]) == 2
        out, err = capsys.readouterr()
        assert "1 2 3 4" in out
        assert err.startswith("error: cannot write the report:") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_usage_error_writes_no_report(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        assert main(["--json", str(json_path), "krt", "certify", "x", "3"]) == 2
        assert not json_path.exists()


def test_failing_check_exits_1(capsys, monkeypatch, tmp_path):
    # The exit code comes from the report's checks: a lift whose rank
    # jumps by two fails rank_increase, and the run exits 1.
    from matlift.core import uniform_matroid

    monkeypatch.setattr("matlift.lifts.elementary_lift", lambda m, members: uniform_matroid(4, 4))
    json_path = tmp_path / "lift.json"
    code = main(["--json", str(json_path), "lift", "elementary", str(TESTDATA / "u24.ckt"), "--class", "1"])
    assert code == 1
    checks = load_report(json_path)["checks"]
    assert checks == [{"name": "linear_class", "pass": True}, {"name": "rank_increase", "pass": False}]


# Each command family and the exact set of matlift modules a job of it loads
# besides matlift, matlift.cli and the rank-oracle kernel matlift.oracle.
# Only the jobs that build a circuit-family Matroid load matlift.core.
LAYER_CASES = [
    (["--help"], set()),
    (["krt", "certify", "4", "3"], {"krt"}),
    (["krt", "ingleton", "5", "4"], {"krt"}),
    (["krt", "vamos-scan", "4", "3"], {"krt"}),
    (["krt", "build", "4", "3"], {"krt"}),
    (["krt", "build", "4", "3", "--out", "{tmp}/k43.ckt"], {"core", "krt", "io"}),
    (["check", "{v8}"], {"core", "io"}),
    (["rank", "{v8}", "1,2"], {"core", "io"}),
    (["iso", "{v8}", "{v8}"], {"core", "io"}),
    (["lift", "general", "{tmp}/s.lift"], {"core", "io", "lifts"}),
    (["lift", "elementary", "{v8}", "--class", "1"], {"core", "io", "lifts"}),
    (["rep", "witness", "{tmp}/u24.gfm", "--x", "1"], {"core", "gf", "io", "lifts"}),
    (["gain", "lift3", "builtin:s3"], {"core", "gain", "groups"}),
    (["gain", "lift3", "builtin:s3", "--out", "{tmp}/s3.ckt"], {"core", "gain", "groups", "io"}),
    (["gain", "lift3", "builtin:z2^3"], {"core", "gain", "groups"}),
    (["gain", "build", "builtin:z2", "3"], {"core", "gain", "groups"}),
    (["gain", "partitions", "builtin:s3"], {"groups"}),
    (["gain", "partitions", "builtin:z2^2"], {"groups"}),
    (["gain", "partitions", "{tmp}/s3.grp"], {"core", "groups", "io"}),
]

# Prints the exit code, the matlift modules loaded and whether dataclasses
# (which pulls in inspect, ast, dis and tokenize) was loaded.
LOADED_MODULES = """
import contextlib, io, json, sys
from matlift import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("matlift"))
print(json.dumps([code, loaded, "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("argv,layers", LAYER_CASES, ids=[" ".join(a) for a, _ in LAYER_CASES])
def test_command_loads_only_its_layers(argv, layers, tmp_path):
    (tmp_path / "s.lift").write_text("base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 3 circuits\n1 2 3\n")
    (tmp_path / "u24.gfm").write_text("gf 3 2 4\n1 0 1 1\n0 1 1 2\n")
    (tmp_path / "s3.grp").write_text(S3_GRP)
    argv = [a.format(tmp=tmp_path, v8=TESTDATA / "v8.ckt") for a in argv]
    src = str(Path(matlift.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded, dataclasses_loaded = json.loads(proc.stdout)
    assert code in (0, 1)
    assert set(loaded) == {"matlift", "matlift.cli", "matlift.oracle"} | {f"matlift.{m}" for m in layers}
    assert not dataclasses_loaded


# ---------------------------------------------------------------------------
# validation walls: large saved families, checked end to end

# (command writing the file, file name, ground size, circuit count, rank).
# The union pass alone takes about 3.4 s, 560 s and 358 s on these files,
# so the 60 s subprocess timeout holds them to the bounded certificate.
WALL_FAMILIES = [
    (["gain", "lift3", "builtin:s3"], "s3.ckt", 18, 1662, 4),
    (["gain", "lift3", "builtin:z2^3"], "z2_3.ckt", 24, 20770, 4),
    (["krt", "build", "8", "8"], "k88.ckt", 18, 48485, 8),
]


@pytest.fixture(scope="module")
def wall_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("walls")
    for argv, name, *_ in WALL_FAMILIES:
        assert main([*argv, "--out", str(d / name)]) == 0
    return d


def _cli_subprocess(argv: list[str], python: str = sys.executable, **env) -> subprocess.CompletedProcess:
    src = str(Path(matlift.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([python, "-m", "matlift.cli", *argv], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("name, n, circuits, rank", [w[1:] for w in WALL_FAMILIES], ids=[w[1] for w in WALL_FAMILIES])
def test_check_large_saved_family(wall_dir, name, n, circuits, rank):
    proc = _cli_subprocess(["check", str(wall_dir / name)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"valid matroid: n={n}, {circuits} circuits, rank {rank}\n"


def test_iso_large_saved_family_with_relabeling(wall_dir, tmp_path):
    from matlift.io import parse_matroid

    m = parse_matroid(wall_dir / "s3.ckt")
    rng = random.Random(113)
    perm = list(range(m.n))
    rng.shuffle(perm)
    rows = [sorted(perm[e] + 1 for e in elements_of(c)) for c in m.circuits]
    rng.shuffle(rows)
    relabeled = tmp_path / "s3_relabeled.ckt"
    relabeled.write_text(f"matroid {m.n} circuits\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    proc = _cli_subprocess(["iso", str(wall_dir / "s3.ckt"), str(relabeled)])
    assert proc.returncode == 0, proc.stderr
    image = [int(tok) - 1 for tok in proc.stdout.split()]
    assert {mask_of(image[e] for e in elements_of(c)) for c in m.circuits} == {mask_of(e - 1 for e in r) for r in rows}


@pytest.mark.parametrize("name", [w[1] for w in WALL_FAMILIES])
def test_large_saved_family_takes_the_bounded_certificate(wall_dir, name, monkeypatch):
    """At most C(n, k+1) + m + 1 + s(s-1)/2 circuit-index queries, s the
    members of at most k elements; the union pass makes hundreds of
    thousands on these families."""
    from matlift.io import parse_matroid

    m = parse_matroid(wall_dir / name)
    k = m.full_rank
    s, count = m._upto[k].bit_length(), len(m.circuits)
    calls = 0
    within = core.Matroid._within

    def counted(self, mask):
        nonlocal calls
        calls += 1
        return within(self, mask)

    monkeypatch.setattr(core.Matroid, "_within", counted)
    assert validate_circuits(m.circuits, m.n).ok
    assert calls <= comb(m.n, k + 1) + count + 1 + s * (s - 1) // 2


# The 14 golden reports: GOLDEN_CASES and the four checked above.
ALL_GOLDEN_CASES = GOLDEN_CASES + [
    ("krt_certify_4_3", ["krt", "certify", "4", "3"], 0),
    ("krt_certify_7_5", ["krt", "certify", "7", "5"], 0),
    ("krt_ingleton_5_4", ["krt", "ingleton", "5", "4"], 0),
    ("gain_lift3_s3", ["gain", "lift3", "builtin:s3"], 0),
]


def _oldest_python() -> tuple[str | None, str]:
    """The ``python3.10`` on PATH and a reason when it cannot be used.
    ``PYENV_VERSION`` picks a 3.10 install behind a pyenv shim and is
    ignored by any other interpreter."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None, "no python3.10 on PATH"
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True,
                           text=True, env={**os.environ, "PYENV_VERSION": "3.10"}, timeout=60)
    if probe.returncode != 0 or probe.stdout.strip() != "(3, 10)":
        return None, f"python3.10 on PATH does not run: {probe.stderr.strip()[:200]}"
    return exe, ""


def test_goldens_under_oldest_supported_python(tmp_path):
    """pyproject.toml declares requires-python >= 3.10: every golden report
    is reproduced by ``python3.10 -m matlift.cli``."""
    exe, reason = _oldest_python()
    if exe is None:
        pytest.skip(reason)
    assert len(ALL_GOLDEN_CASES) == 14
    for name, argv, code in ALL_GOLDEN_CASES:
        json_path = tmp_path / f"{name}.json"
        argv = [a.format(d=TESTDATA) for a in argv]
        proc = _cli_subprocess(["--json", str(json_path), *argv], python=exe, PYENV_VERSION="3.10")
        assert proc.returncode == code, (name, proc.stderr)
        expected = json.loads((GOLDEN / f"{name}.json").read_text())
        expected.pop("wall_time_s", None)
        assert _file_names(load_report(json_path)) == expected, name

