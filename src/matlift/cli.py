"""Command-line surface with JSON certificate emission.

``main`` is the one command runner.  It hands each handler a fresh report
(a dict that starts with ``command``, the argv without ``--json``), times
the call, maps an exception to its exit code and writes the report once.

Exit codes: 0 every check in the report passes, 1 a check failed (the
report carries its witness), 2 usage or parse error, 3 inconclusive (a
search ran out of its budget, and the report says which).  A handler
returns its own code only where the checks cannot express it: ``iso`` and
``gain partitions`` out of budget exit 3, and ``krt certify`` follows facts
a-d.  An exception ends the run with exit 1 for a ``core.CheckFailedError``
(stderr ``check failed``), 2 for any other ``ValueError`` or an ``OSError``
(``error``) and 3 for a broken internal invariant (``internal error``); with
``--json`` the report as filled so far is still written, with that stderr
line under ``error``.  A report that cannot be written (a missing
directory, say) prints ``error: cannot write the report: ...`` and exits 2.
Argparse usage errors and ``--help`` write no report.  Reports are
deterministic; wall time lives in its own key so the rest of a report is
byte-stable across runs.

This module imports only the standard library and ``matlift.core``; each
command handler imports the layers it runs, so a job loads no module it
never calls.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from matlift.core import (
    DEFAULT_NODE_BUDGET,
    CheckFailedError,
    CircuitAxiomError,
    Matroid,
    SearchBudgetExceeded,
    find_isomorphism,
    mask_of,
    one_based,
)

if TYPE_CHECKING:
    from matlift.groups import FinGroup

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

VAMOS_SCAN_CAP = 10  # certify runs the minor scan only up to this ground size
KRT_OUT_CAP = 20  # krt build --out materializes circuit families up to this ground size


class Report(dict):
    """The JSON certificate of one command run: ``command`` first, then
    whatever the handler fills in.  ``check`` appends a named result to
    ``checks``; the exit code follows from them unless the handler returns
    its own."""

    def check(self, name: str, ok: bool, witness: object = None) -> bool:
        entry: dict = {"name": name, "pass": bool(ok)}
        if witness is not None:
            entry["witness"] = witness
        self.setdefault("checks", []).append(entry)
        return ok

    def conclude(self, text: str) -> None:
        """Set the conclusion and print it."""
        self["conclusion"] = text
        print(text)


def _parse_indices(text: str, n: int, noun: str) -> list[int]:
    """The 1-based indices listed in ``text``, in order, each in [1, n]."""
    toks = text.replace(",", " ").split()
    try:
        idxs = [int(t) for t in toks]
    except ValueError:
        raise ValueError(f"bad {noun} list {text!r}") from None
    for k in idxs:
        if not 1 <= k <= n:
            raise ValueError(f"{noun} {k} outside [1, {n}]")
    return idxs


def _load_group(spec: str) -> FinGroup:
    if spec.startswith("builtin:"):
        from matlift.groups import builtin_group
        return builtin_group(spec.split(":", 1)[1])
    from matlift.io import parse_group
    return parse_group(spec)


def _class_indices(value: str, m: Matroid) -> frozenset[int]:
    """The 0-based circuit indices listed in ``value`` or in the file it names."""
    body = value
    if not all(ch.isdigit() or ch in ", " for ch in value):
        body = Path(value).read_text()
    return frozenset(k - 1 for k in _parse_indices(body, len(m.circuits), "circuit index"))


def _lift_dict(m: Matroid) -> dict:
    return {"rank": m.full_rank, "circuits": [one_based(c) for c in m.circuits]}


def _write_matroid(m: Matroid, out: Optional[str]) -> None:
    """Write ``m`` as .ckt text to the file ``out``, or to stdout."""
    from matlift.io import emit_matroid_text
    text = emit_matroid_text(m)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _krt(args: argparse.Namespace):
    """The spec and the sparse paving matroid of K(args.r, args.t)."""
    from matlift.krt import KrtSpec, build_krt
    spec = KrtSpec(args.r, args.t)
    return spec, build_krt(spec)


# ---------------------------------------------------------------------------
# command handlers; each fills in the report main passes it and returns
# None, or an exit code the checks cannot express


def cmd_check(args: argparse.Namespace, rep: Report) -> None:
    from matlift.io import parse_matroid
    rep["inputs"] = {"matroid": args.matroid}
    try:
        m = parse_matroid(args.matroid)
    except CircuitAxiomError as err:
        detail = err.report.describe()
        rep.check("circuit_axioms", False, {"kind": err.report.kind, "detail": detail})
        rep.conclude(f"invalid circuit family: {detail}")
        return
    rep.check("circuit_axioms", True)
    rep.conclude(f"valid matroid: n={m.n}, {len(m.circuits)} circuits, rank {m.full_rank}")


def cmd_rank(args: argparse.Namespace, rep: Report) -> None:
    from matlift.io import parse_matroid
    m = parse_matroid(args.matroid)
    mask = mask_of(e - 1 for e in _parse_indices(args.set, m.n, "element"))
    rep["inputs"] = {"matroid": args.matroid, "set": one_based(mask)}
    rep["rank"] = m.rank(mask)
    rep.check("rank_computed", True)
    rep.conclude(f"rank {one_based(mask)} = {rep['rank']}")


def cmd_lift_elementary(args: argparse.Namespace, rep: Report) -> None:
    from matlift.io import parse_matroid
    from matlift.lifts import LiftConditionError, elementary_lift
    m = parse_matroid(args.matroid)
    members = _class_indices(args.linear_class, m)
    rep["inputs"] = {"matroid": args.matroid, "class": sorted(k + 1 for k in members)}
    try:  # the class is linear exactly when its overlay passes (*')
        lifted = elementary_lift(m, members)
    except LiftConditionError:
        lifted = None
    if not rep.check("linear_class", lifted is not None):
        rep.conclude("the given circuits are not a linear class")
        return
    rep.check("rank_increase", lifted.full_rank in (m.full_rank, m.full_rank + 1))
    rep["lift"] = _lift_dict(lifted)
    rep["conclusion"] = f"elementary lift has rank {lifted.full_rank}"
    _write_matroid(lifted, args.out)


def cmd_lift_general(args: argparse.Namespace, rep: Report) -> None:
    from matlift.io import parse_lift
    from matlift.lifts import LiftConditionError, build_lift, check_star, evaluate_lift_formula
    rep["inputs"] = {"spec": args.spec}
    spec = parse_lift(args.spec)
    try:  # build_lift checks (*') first
        lifted, witness_prime = build_lift(spec), None
    except LiftConditionError as err:
        lifted, witness_prime = None, err.witness
    rep.check("star_prime", witness_prime is None, None if witness_prime is None else str(witness_prime))
    if args.check_star:
        ok_star, witness_star = check_star(spec)
        rep.check("star", ok_star, None if ok_star else str(witness_star))
    if lifted is not None:
        rep.check("lift_rank", lifted.full_rank == spec.full_rank)
        rep["lift"] = _lift_dict(lifted)
        rep["conclusion"] = f"lift built, rank {lifted.full_rank}"
        _write_matroid(lifted, args.out)
    elif args.force:
        built, diag = evaluate_lift_formula(spec)
        rep.check("formula_rank_axioms", diag.ok, None if diag.ok else diag.describe())
        if built is not None:
            rep["lift"] = _lift_dict(built)
            rep.conclude("condition (*') fails, yet the formula still gives a matroid")
        else:
            rep.conclude(f"condition (*') fails and the formula breaks: {diag.describe()}")
    else:
        rep.conclude(f"lift refused: {witness_prime}")


def cmd_rep_witness(args: argparse.Namespace, rep: Report) -> None:
    from matlift.gf import lift_witness, verify_witness
    from matlift.io import parse_matrix
    from matlift.lifts import require_sweepable
    a = parse_matrix(args.matrix)
    x_columns = _parse_indices(args.x, a.cols, "column")
    rep["inputs"] = {"matrix": args.matrix, "x_columns": x_columns}
    require_sweepable(a.cols - len(x_columns))  # refuse before building K/X, slow on wide matrices
    witness = lift_witness(a, [c - 1 for c in x_columns])
    rep.check("star_prime", True)  # lift_witness raised otherwise
    rep.check("witness_verifies", verify_witness(witness.spec, witness.l))
    rep["witness"] = {
        "quotient_rank": witness.spec.base.full_rank,
        "deletion_rank": witness.l.full_rank,
        "overlay_rank": witness.spec.overlay.full_rank,
        "circuits_of_quotient": [one_based(c) for c in witness.spec.base.circuits],
    }
    rep.conclude(
        f"(K/X)^N = K\\X verified: r(M)={witness.spec.base.full_rank}, "
        f"r(N)={witness.spec.overlay.full_rank}, r(L)={witness.l.full_rank}"
    )


def cmd_krt_build(args: argparse.Namespace, rep: Report) -> None:
    rep["inputs"] = {"r": args.r, "t": args.t}
    _, m = _krt(args)
    if args.out and m.n > KRT_OUT_CAP:
        raise ValueError(f"--out writes circuit families up to {KRT_OUT_CAP} elements; K({args.r},{args.t}) has {m.n}")
    rep.check("sparse_paving", True)  # build_krt raised otherwise
    chs = rep["circuit_hyperplanes"] = [one_based(c) for c in m.circuit_hyperplanes]
    rep["ground_size"] = m.n
    rep["conclusion"] = f"K({args.r},{args.t}): rank {m.full_rank} on {m.n} elements, {len(chs)} circuit-hyperplanes"
    for ch in chs:
        print(" ".join(str(e) for e in ch))
    if args.out:
        _write_matroid(m.to_matroid(), args.out)


def cmd_krt_certify(args: argparse.Namespace, rep: Report) -> int:
    """The exit code follows facts a-d alone; the report holds no checks."""
    from matlift.krt import is_ingleton_sparse_paving, obstruction_report, scan_vamos_like_minors
    spec, m = _krt(args)
    facts = obstruction_report(spec, m)
    ingleton_ok, ingleton_witness = is_ingleton_sparse_paving(m)
    rep["params"] = {
        "r": spec.r,
        "t": spec.t,
        "ground_size": spec.ground_size,
        "regime": {
            "construction": True,
            "ingleton_guarantee": spec.in_ingleton_regime,
            "antichain_guarantee": spec.in_antichain_regime,
        },
    }
    rep["sparse_paving"] = True  # build_krt raised otherwise
    rep["facts"] = facts.as_dict()
    rep["ingleton"] = {
        "is_ingleton": ingleton_ok,
        "witness": ingleton_witness.as_dict() if ingleton_witness else None,
    }
    n = spec.ground_size
    if not args.deep and n > VAMOS_SCAN_CAP:
        reason = f"ground size {n} above scan cap {VAMOS_SCAN_CAP}; run krt vamos-scan"
        rep["vamos_like_minors"] = {"scanned": False, "reason": reason}
    else:
        rep["vamos_like_minors"] = {"scanned": True, "witnesses": [w.as_dict() for w in scan_vamos_like_minors(m)]}
    rep["conclusion"] = "non-representable over every field" if facts.all_true else "certificate incomplete"
    print(
        f"K({spec.r},{spec.t}): sparse_paving=True "
        f"facts a={facts.fact_a} b={facts.fact_b} c={facts.fact_c} d={facts.fact_d} "
        f"ingleton={ingleton_ok} -> {rep['conclusion']}"
    )
    return EXIT_OK if facts.all_true else EXIT_CHECK_FAILED


def cmd_krt_ingleton(args: argparse.Namespace, rep: Report) -> None:
    from matlift.krt import ingleton_inequality, is_ingleton_sparse_paving
    rep["inputs"] = {"r": args.r, "t": args.t}
    _, m = _krt(args)
    ok, witness = is_ingleton_sparse_paving(m)
    rep.check("is_ingleton", ok, witness.as_dict() if witness else None)
    if witness is not None:
        a, b, c, d = witness.pairs
        core = witness.core
        sat, lhs, rhs = ingleton_inequality(m, core | a, core | b, core | c, core | d)
        rep["violation"] = {"lhs": lhs, "rhs": rhs, "satisfied": sat}
    rep.conclude(
        f"K({args.r},{args.t}) is Ingleton"
        if ok
        else f"K({args.r},{args.t}) violates Ingleton at {witness.as_dict()}"
    )


def cmd_krt_vamos_scan(args: argparse.Namespace, rep: Report) -> None:
    from matlift.krt import scan_vamos_like_minors
    rep["inputs"] = {"r": args.r, "t": args.t}
    _, m = _krt(args)
    minors = rep["witnesses"] = [w.as_dict() for w in scan_vamos_like_minors(m)]
    rep.check("no_vamos_like_minor", not minors, minors or None)
    rep.conclude(
        f"no Vamos-like minor in K({args.r},{args.t})"
        if not minors
        else f"{len(minors)} Vamos-like minor(s) found"
    )


def cmd_gain_build(args: argparse.Namespace, rep: Report) -> None:
    from matlift.gain import GainGraph
    rep["inputs"] = {"group": args.group, "n": args.n}
    group = _load_group(args.group)
    gg = GainGraph(group, args.n)
    rep.check("edge_count", gg.edge_count == args.n * (args.n - 1) // 2 * group.order)
    rep["edges"] = [
        {"i": e.i + 1, "j": e.j + 1, "label": group.names[e.label]} for e in gg.edges
    ]
    rep["conclusion"] = f"full gain graph over {group.name} on {args.n} vertices: {gg.edge_count} edges"
    for e in gg.edges:
        print(e.i + 1, e.j + 1, group.names[e.label])


def cmd_gain_partitions(args: argparse.Namespace, rep: Report) -> Optional[int]:
    """Exit 3 when the cover search runs out of its budget."""
    from matlift.groups import PARTITION_SEARCH_BUDGET, group_partitions
    rep["inputs"] = {"group": args.group}
    group = _load_group(args.group)
    try:
        found = group_partitions(group)
    except SearchBudgetExceeded as exc:
        rep.check("has_nontrivial_partition", False, {"search_budget": PARTITION_SEARCH_BUDGET, "detail": str(exc)})
        rep.conclude("inconclusive: the partition search ran out of its budget")
        return EXIT_INCONCLUSIVE
    partitions = rep["partitions"] = [[sorted(group.names[x] for x in part) for part in p.parts] for p in found]
    rep.check("has_nontrivial_partition", bool(partitions))
    rep.conclude(f"{group.name} has {len(partitions)} nontrivial partition(s)")
    for p in partitions:
        print("  " + " | ".join(",".join(part) for part in p))


def cmd_gain_lift3(args: argparse.Namespace, rep: Report) -> None:
    from matlift.gain import NoPartitionError, rank2_lift_k3
    rep["inputs"] = {"group": args.group}
    group = _load_group(args.group)
    try:
        result = rank2_lift_k3(group)
    except NoPartitionError as exc:
        rep.check("nontrivial_partition", False, str(exc))
        rep.conclude("no nontrivial partition")
        return
    rep.check("nontrivial_partition", True)
    # rank2_lift_k3 raises when the hyperplanes, the audit or the quotient test fail
    rep.check("hyperplane_axioms", True)
    rep.check("rank_is_4", result.matroid.full_rank == 4)
    rep.check("balanced_circuit_audit", True)
    rep.check("graphic_is_quotient", True)
    rep["lift"] = {
        "ground_size": result.matroid.n,
        "rank": result.matroid.full_rank,
        "hyperplane_count": len(result.hyperplanes),
        "circuit_count": len(result.matroid.circuits),
        "partition": [sorted(group.names[x] for x in part) for part in result.partition.parts],
    }
    rep.conclude(f"rank-2 lift over {group.name}: rank 4 on {result.matroid.n} edges, all checks pass")
    if args.out:
        _write_matroid(result.matroid, args.out)


def cmd_iso(args: argparse.Namespace, rep: Report) -> Optional[int]:
    """Exit 3 when the search runs out of its node budget."""
    from matlift.io import parse_matroid
    rep["inputs"] = {"m1": args.m1, "m2": args.m2}
    m1, m2 = parse_matroid(args.m1), parse_matroid(args.m2)
    try:
        perm = find_isomorphism(m1, m2, node_budget=DEFAULT_NODE_BUDGET)
    except SearchBudgetExceeded as exc:
        rep.check("isomorphic", False, {"node_budget": DEFAULT_NODE_BUDGET, "detail": str(exc)})
        rep.conclude("inconclusive: the isomorphism search ran out of its node budget")
        return EXIT_INCONCLUSIVE
    rep.check("isomorphic", perm is not None, None if perm else "no ground-set bijection maps circuits onto circuits")
    if perm is not None:
        rep["permutation"] = [p + 1 for p in perm]
        rep["conclusion"] = "isomorphic"
        print(" ".join(str(p + 1) for p in perm))
    else:
        rep.conclude("not isomorphic")


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated long options, which ``_strip_json_flag`` would
    miss; subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matlift",
        description="Matroid lift constructions, K(r,t) certificates, and gain-graph lifts.",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON certificate here")
    # Every subcommand takes --json too; SUPPRESS keeps an earlier value.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS, help="write the JSON certificate here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[json_flag], help="validate a .ckt circuit family")
    p.add_argument("matroid")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("rank", parents=[json_flag], help="rank of a 1-based element set")
    p.add_argument("matroid")
    p.add_argument("set", help="elements, e.g. '1,2,7,8'")
    p.set_defaults(handler=cmd_rank)

    p_lift = sub.add_parser("lift", parents=[json_flag], help="lift constructions")
    lift_sub = p_lift.add_subparsers(dest="lift_command", required=True)
    p = lift_sub.add_parser("elementary", parents=[json_flag], help="elementary lift from a linear class")
    p.add_argument("matroid")
    p.add_argument("--class", dest="linear_class", required=True, help="1-based circuit ids or a file of ids")
    p.add_argument("--out", help="write the lifted matroid here")
    p.set_defaults(handler=cmd_lift_elementary)
    p = lift_sub.add_parser("general", parents=[json_flag], help="the M^N lift from a .lift spec")
    p.add_argument("spec")
    p.add_argument("--check-star", action="store_true", help="also check the perfect-collection condition")
    p.add_argument("--force", action="store_true", help="evaluate the formula even when (*') fails and report the first axiom violation")
    p.add_argument("--out", help="write the lifted matroid here")
    p.set_defaults(handler=cmd_lift_general)

    p_rep = sub.add_parser("rep", parents=[json_flag], help="representable witness construction")
    rep_sub = p_rep.add_subparsers(dest="rep_command", required=True)
    p = rep_sub.add_parser("witness", parents=[json_flag], help="build N on circuits of K/X with (K/X)^N = K\\X")
    p.add_argument("matrix")
    p.add_argument("--x", default="", help="1-based column indices of X, e.g. '1,2'")
    p.set_defaults(handler=cmd_rep_witness)

    p_krt = sub.add_parser("krt", parents=[json_flag], help="the K(r,t) family")
    krt_sub = p_krt.add_subparsers(dest="krt_command", required=True)
    p = krt_sub.add_parser("build", parents=[json_flag], help="emit the circuit-hyperplanes of K(r,t)")
    p.add_argument("r", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--out", help="write the full .ckt here")
    p.set_defaults(handler=cmd_krt_build)
    p = krt_sub.add_parser("certify", parents=[json_flag], help="the non-representability certificate")
    p.add_argument("r", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--deep", action="store_true", help="run the Vamos-like minor scan above the inline cap")
    p.set_defaults(handler=cmd_krt_certify)
    p = krt_sub.add_parser("ingleton", parents=[json_flag], help="the sparse-paving Ingleton criterion")
    p.add_argument("r", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(handler=cmd_krt_ingleton)
    p = krt_sub.add_parser("vamos-scan", parents=[json_flag], help="scan rank-4 8-element minors for Vamos-likeness")
    p.add_argument("r", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(handler=cmd_krt_vamos_scan)

    p_gain = sub.add_parser("gain", parents=[json_flag], help="gain graphs over finite groups")
    gain_sub = p_gain.add_subparsers(dest="gain_command", required=True)
    p = gain_sub.add_parser("build", parents=[json_flag], help="enumerate the full gain graph")
    p.add_argument("group", help="a .grp file or builtin:<name>")
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_gain_build)
    p = gain_sub.add_parser("lift3", parents=[json_flag], help="the rank-2 lift on 3 vertices")
    p.add_argument("group", help="a .grp file or builtin:<name>")
    p.add_argument("--out", help="write the lift matroid here")
    p.set_defaults(handler=cmd_gain_lift3)
    p = gain_sub.add_parser("partitions", parents=[json_flag], help="enumerate nontrivial group partitions")
    p.add_argument("group", help="a .grp file or builtin:<name>")
    p.set_defaults(handler=cmd_gain_partitions)

    p = sub.add_parser("iso", parents=[json_flag], help="search for a circuit-preserving bijection")
    p.add_argument("m1")
    p.add_argument("m2")
    p.set_defaults(handler=cmd_iso)

    return parser


def _strip_json_flag(argv: list[str]) -> list[str]:
    """Drop --json and its value from the command echo so reports do not
    depend on where they are written."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--json":
            next(tokens, None)
        elif not tok.startswith("--json="):
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: parse, call its handler with a fresh report, map an
    exception to its exit code and stderr line, and write the report."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    rep = Report(command=_strip_json_flag(argv))
    t0 = time.perf_counter()
    try:
        code = args.handler(args, rep)
    except CheckFailedError as exc:
        code, rep["error"] = EXIT_CHECK_FAILED, f"check failed: {exc}"
    except (ValueError, OSError) as exc:
        code, rep["error"] = EXIT_USAGE, f"error: {exc}"
    except (AssertionError, RuntimeError) as exc:
        code, rep["error"] = EXIT_INCONCLUSIVE, f"internal error: {exc!r}"
    if "error" in rep:
        print(rep["error"], file=sys.stderr)
    elif code is None:
        code = EXIT_OK if all(c["pass"] for c in rep.get("checks", ())) else EXIT_CHECK_FAILED
    rep["wall_time_s"] = round(time.perf_counter() - t0, 6)
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        except (ValueError, OSError) as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
