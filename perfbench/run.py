#!/usr/bin/env python3
"""The matlift benchmark: CLI jobs end to end, and a traced per-layer pass.

    python3 perfbench/run.py --workload certify|scan|construct --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Each workload is one closed-loop client: a
job is a fresh ``python -m matlift.cli`` process, and the next job starts
only after the previous one has exited.  The job list of a workload is
generated from the seed (see workloads.py) and run as whole passes until
the measuring window of ``--seconds`` is used up.  Every job's output is
checked; a wrong exit code, a failed certificate check, a certificate
digest that changes, a traceback or a timeout counts as a failed job.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
processes and traced ones (perfbench/tracer.py), and the object carries the
per-layer metrics.  Provenance (commit, interpreter, core count, every
job's argv, wall, CPU and peak RSS, and every pass's values) is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

JOB_TIMEOUT_S = 60
# No job may run past this many seconds after the benchmark starts, so a
# hanging program still ends the run well inside three minutes.
RUN_DEADLINE_S = 150
STARTED = time.perf_counter()
# setup_s is the median of one set-up before the first job plus this many
# more after every pass, into a spare directory, so that its samples spread
# over the run as the job samples do.
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
DEFAULT_SEED = 1

# A pass starts only while three quarters of it still fit in the window,
# so a run overshoots ``--seconds`` by at most a quarter of a pass.
PASS_FIT = 0.75

# The job of each workload that --smoke runs.
SMOKE_JOBS = {"certify": "certify-9-7", "scan": "vamos-4-5", "construct": "lift-2"}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced pass: (metric, unit, better)

_TIMES = [
    "core.Matroid.contract.s", "core.Matroid.delete.s", "core.Matroid.init.s",
    "core.validate_circuits.s", "core.circuits_from_rank_oracle.s",
    "core.matroid_from_hyperplanes.s", "core.Matroid.flats.s",
    "core.Matroid.circuits_within.s", "core.Matroid.circuit_indices_within.s",
    "core.minors_with_shape.s", "core.is_sparse_paving.s", "core.find_isomorphism.s",
    "core.Matroid.rank.self_s",
    "krt.build_krt.s", "krt.obstruction_report.s", "krt.is_ingleton_sparse_paving.s",
    "krt.scan_vamos_like_minors.s",
    "gf.GfMatrix.rref.s", "gf.column_matroid.s", "gf.lift_witness.s", "gf.verify_witness.s",
    "lifts.check_star.s", "lifts.check_star_prime.s", "lifts.build_lift.s",
    "gain.rank2_lift_k3.s", "gain.switching_orbit.s", "gain.balanced_circuit_audit.s",
    "groups.group_partitions.s",
    "io.parse_matroid.s", "io.parse_lift.s", "io.parse_matrix.s",
]
_COUNTS = [
    "core.Matroid.contract.calls", "core.Matroid.init.calls", "core.Matroid.init.circuits",
    "core.Matroid.rank.calls", "core.validate_circuits.calls",
    "core.circuits_from_rank_oracle.calls", "core.minors_with_shape.minors",
    "core.is_sparse_paving.calls", "core.find_isomorphism.calls",
    "krt.build_krt.calls", "krt.is_vamos_like.calls",
    "gf.GfMatrix.rref.calls", "gf.LinearMatroid.rank.calls", "lifts.lift_rank.calls",
]
_RATIOS = ["core.Matroid.rank.miss_ratio", "gf.LinearMatroid.rank.miss_ratio"]
LAYERS = ["cli", "core", "krt", "gf", "lifts", "gain", "groups", "io"]

PER_LAYER = (
    [("cli.startup_s", "s", "lower"), ("cli.cpu_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(m, "s", "lower") for m in _TIMES]
    + [(m, "count", "lower") for m in _COUNTS]
    + [(m, "ratio", "lower") for m in _RATIOS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("job_s.max", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# The layer each workload exists to load, as the function names whose
# combined self time must exceed that of any other traced function.
DOMINANT = {
    "certify": {"core.Matroid.contract", "core.Matroid.init"},
    "scan": {"krt.is_ingleton_sparse_paving", "krt.scan_vamos_like_minors",
             "krt.is_vamos_like", "core.minors_with_shape", "core.is_sparse_paving"},
}


# ---------------------------------------------------------------------------
# running jobs


def spawn(cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        limit = max(1.0, min(JOB_TIMEOUT_S, STARTED + RUN_DEADLINE_S - t0))
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": wall >= limit and proc.returncode < 0,
    }


def report_digest(report: dict) -> str:
    """Digest of a certificate without its run-dependent ``wall_time_s``."""
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def job_key(job: dict, work: Path) -> str:
    """Identifies a job by its argv and the bytes of its inputs, so stored
    digests apply to any seed that generates the same job."""
    h = hashlib.sha256(json.dumps(job["argv"]).encode())
    for name in job["inputs"]:
        h.update((work / name).read_bytes())
    return h.hexdigest()


def run_job(job: dict, work: Path, traced: bool, tag: str) -> dict:
    jdir = work / "runs" / tag
    jdir.mkdir(parents=True, exist_ok=True)
    report_path = jdir / "report.json"
    stats_path = jdir / "trace.json"
    argv = ["--json", str(report_path.relative_to(work))] + job["argv"]
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(stats_path), tag, "--"] + argv
    else:
        cmd = [sys.executable, "-m", "matlift.cli"] + argv
    rec = {"job": job["id"], "kind": job["kind"], "argv": job["argv"], "traced": traced}
    rec.update(spawn(cmd, work, jdir / "stdout.txt", jdir / "stderr.txt"))
    errors = []
    if rec["timed_out"]:
        errors.append(f"timed out after {rec['wall_s']:.1f} s")
    if b"Traceback" in (jdir / "stderr.txt").read_bytes():
        errors.append("traceback on stderr")
    report = None
    if report_path.is_file():
        try:
            report = json.loads(report_path.read_text())
        except ValueError:
            errors.append("unreadable JSON report")
    if report is not None:
        rec["digest"] = report_digest(report)
    errors += workloads.check_job(job, rec["code"], report, work)
    if traced:
        if stats_path.is_file():
            rec["trace"] = json.loads(stats_path.read_text())
        else:
            errors.append("traced run wrote no statistics")
    rec["errors"] = errors
    return rec


def run_pass(jobs: list[dict], work: Path, traced: bool, index: int) -> list[dict]:
    mode = "traced" if traced else "plain"
    return [run_job(job, work, traced, f"{mode}{index}-{job['id']}") for job in jobs]


def setup(workload: str, seed: int, work: Path) -> tuple[list[dict], float]:
    """Generate the seeded inputs and start the CLI once; the first start in
    a checkout also compiles the package's bytecode."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    jobs = workloads.make_jobs(workload, seed, work)
    started = spawn([sys.executable, "-m", "matlift.cli", "--help"], work,
                    work / "help.out", work / "help.err")
    elapsed = time.perf_counter() - t0
    if started["code"] != 0:
        raise RuntimeError(f"matlift.cli --help exited {started['code']}: "
                           + (work / "help.err").read_text()[-400:])
    return jobs, elapsed


def cli_startup(work: Path) -> list[float]:
    return [spawn([sys.executable, "-m", "matlift.cli", "--help"], work,
                  work / "help.out", work / "help.err")["wall_s"]
            for _ in range(STARTUP_REPEATS)]


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count."""
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1, "q3": q3,
            "values": values}


def per_job_median(records: list[dict], field: str) -> dict[str, float]:
    by_job: dict[str, list[float]] = {}
    for rec in records:
        by_job.setdefault(rec["job"], []).append(rec[field])
    return {job: statistics.median(vals) for job, vals in by_job.items()}


def end_to_end(plain: list[dict], setup_times: list[float]) -> dict[str, float]:
    """Each job is taken at its median over the run's passes; the job list's
    wall time is the sum of those, and its slowest job the largest."""
    walls = per_job_median(plain, "wall_s")
    return {
        "wall_s": sum(walls.values()),
        "job_s.max": max(walls.values()),
        "peak_rss_mb": max(per_job_median(plain, "rss_mb").values()),
        "setup_s": statistics.median(setup_times),
    }


def pass_totals(passes: list[list[dict]]) -> dict[str, list[float]]:
    return {
        "wall_s": [sum(r["wall_s"] for r in p) for p in passes],
        "job_s.max": [max(r["wall_s"] for r in p) for p in passes],
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "cpu_s": [sum(r["cpu_s"] for r in p) for p in passes],
    }


def layer_stats(traced_pass: list[dict]) -> dict[str, dict]:
    """Sum the tracer's per-function statistics over one traced pass."""
    total: dict[str, dict] = {}
    for rec in traced_pass:
        for name, st in rec.get("trace", {}).get("stats", {}).items():
            acc = total.setdefault(name, {})
            for key, val in st.items():
                acc[key] = acc.get(key, 0) + val
    return total


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((st["self_s"] for name, st in stats.items()
                                      if name.split(".")[0] == layer), 0.0)
    for metric in _TIMES + _COUNTS + _RATIOS:
        name, field = metric.rsplit(".", 1)
        st = stats.get(name, {})
        if field == "miss_ratio":
            out[metric] = st.get("misses", 0) / st["calls"] if st.get("calls") else 0.0
        elif field == "minors":
            out[metric] = st.get("items", 0)
        else:
            out[metric] = st.get(field, 0.0 if field in ("s", "self_s") else 0)
    return out


def dominant_check(group: set[str], stats: dict[str, dict]) -> dict:
    """Does the workload load the layer it exists for?"""
    inside = sum(st["self_s"] for name, st in stats.items() if name in group)
    outside = max([st["self_s"] for name, st in stats.items() if name not in group], default=0.0)
    return {"group": sorted(group), "self_s": inside, "largest_other_self_s": outside,
            "ok": inside > outside}


def kind_share_check(plain: list[dict]) -> dict:
    """construct: no single job kind takes more than half of wall_s."""
    kind_of = {rec["job"]: rec["kind"] for rec in plain}
    kinds: dict[str, float] = {}
    for job, wall in per_job_median(plain, "wall_s").items():
        kinds[kind_of[job]] = kinds.get(kind_of[job], 0.0) + wall
    total = sum(kinds.values())
    shares = {k: v / total for k, v in kinds.items()}
    return {"shares": shares, "ok": max(shares.values()) <= 0.5}


# ---------------------------------------------------------------------------
# digests


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def check_digests(records: list[dict], jobs: list[dict], work: Path, stored: dict) -> None:
    """Mark records failed when a job's certificate differs between passes
    of this run, or from the digest stored for the same job."""
    keys = {job["id"]: job_key(job, work) for job in jobs}
    seen: dict[str, set] = {}
    for rec in records:
        if "digest" in rec:
            seen.setdefault(rec["job"], set()).add(rec["digest"])
    for rec in records:
        digests = seen.get(rec["job"], set())
        if len(digests) > 1:
            rec["errors"].append(f"{len(digests)} different certificates across passes")
        want = stored.get(keys[rec["job"]], {}).get("digest")
        if want is not None and rec.get("digest") not in (None, want):
            rec["errors"].append("certificate differs from the stored digest")


def record_digests(records: list[dict], jobs: list[dict], work: Path) -> None:
    stored = load_digests()
    for job in jobs:
        digests = {r["digest"] for r in records if r["job"] == job["id"] and "digest" in r}
        if len(digests) == 1 and not any(r["errors"] for r in records if r["job"] == job["id"]):
            stored[job_key(job, work)] = {"job": " ".join(job["argv"]), "digest": digests.pop()}
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# a run


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    jobs, first = setup(workload, seed, work)
    setup_times = [first]
    startup = cli_startup(work) if trace else []
    spare = work.with_name(work.name + "-setup")
    plain_passes: list[list[dict]] = []
    traced_passes: list[list[dict]] = []
    t0 = time.perf_counter()
    while True:
        plain_passes.append(run_pass(jobs, work, False, len(plain_passes)))
        if trace:
            traced_passes.append(run_pass(jobs, work, True, len(traced_passes)))
        setup_times += [setup(workload, seed, spare)[1] for _ in range(SETUP_REPEATS)]
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(plain_passes)
        if elapsed + PASS_FIT * per_pass > seconds:
            break
    shutil.rmtree(spare)
    records = [r for p in plain_passes + traced_passes for r in p]
    check_digests(records, jobs, work, load_digests())
    plain = [r for p in plain_passes for r in p]
    return {"jobs": jobs, "setup_times": setup_times, "startup": startup,
            "plain_passes": plain_passes, "traced_passes": traced_passes,
            "records": records, "plain": plain, "window_s": time.perf_counter() - t0}


def metrics_for(workload: str, m: dict, trace: bool) -> tuple[dict, dict]:
    """(metric values, extra provenance) for one measured run."""
    if not trace:
        return end_to_end(m["plain"], m["setup_times"]), {}
    per_pass = [layer_metrics(layer_stats(p)) for p in m["traced_passes"]]
    values = {name: statistics.median(pp[name] for pp in per_pass) for name in per_pass[0]}
    plain_walls = per_job_median(m["plain"], "wall_s")
    traced = [r for p in m["traced_passes"] for r in p]
    values["cli.startup_s"] = statistics.median(m["startup"])
    values["cli.cpu_s"] = sum(per_job_median(m["plain"], "cpu_s").values())
    values["trace.overhead_ratio"] = (sum(per_job_median(traced, "wall_s").values())
                                      / sum(plain_walls.values()))
    stats = layer_stats(m["traced_passes"][0])
    extra = {"functions": {k: stats[k] for k in sorted(stats)}}
    if workload in DOMINANT:
        extra["dominant_layer"] = dominant_check(DOMINANT[workload], stats)
    return values, extra


def result_line(records: list[dict], values: dict, units: dict) -> dict:
    failed = sum(1 for r in records if r["errors"])
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def write_provenance(args, m: dict, extra: dict, line: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    totals = pass_totals(m["plain_passes"])
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "result": line,
        "fail_ratio": line["failed"] / line["attempted"],
        "per_pass": {k: summary(v) for k, v in totals.items()},
        "setup_s": summary(m["setup_times"]),
        "cli_startup_s": summary(m["startup"]) if m["startup"] else None,
        "window_s": m["window_s"],
        "jobs": [{k: v for k, v in r.items() if k != "trace"} for r in m["records"]],
    }
    doc.update(extra)
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if m["traced_passes"]:
        spans = [s for r in m["records"] for s in r.get("trace", {}).get("spans", [])]
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return path


def require_program() -> None:
    if not (SRC / "matlift" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'matlift' / 'cli.py'} not found; run from a matlift checkout")


def main_run(args) -> int:
    require_program()
    work = OUT / "work" / f"{args.workload}-seed{args.seed}"
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    values, extra = metrics_for(args.workload, m, bool(args.trace))
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    line = result_line(m["records"], values, units)
    if args.record_digests:
        record_digests(m["records"], m["jobs"], work)
    if args.workload == "construct":
        extra["job_kind_shares"] = kind_share_check(m["plain"])
    path = write_provenance(args, m, extra, line)
    for rec in m["records"]:
        for err in rec["errors"]:
            print(f"FAIL {rec['job']}: {err}", file=sys.stderr)
    for check in ("dominant_layer", "job_kind_shares"):
        if check in extra and not extra[check]["ok"]:
            print(f"note: {args.workload} fails the {check} design check: {extra[check]}",
                  file=sys.stderr)
    print(f"provenance: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# self-test


def main_smoke() -> int:
    """One job of each workload, plain and traced; the emitted metric names
    must match BENCHMARK.json, and a wrong expected outcome must count as a
    failure."""
    require_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = [(e["name"], e["unit"]) for e in spec["end_to_end"]]
    want_layer = [(e["name"], e["unit"]) for e in spec["per_layer"]]
    if want_e2e != [(n, u) for n, u, _ in END_TO_END]:
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if want_layer != [(n, u) for n, u, _ in PER_LAYER]:
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for workload in workloads.WORKLOADS:
        work = OUT / "work" / f"smoke-{workload}"
        jobs, setup_time = setup(workload, DEFAULT_SEED, work)
        job = next(j for j in jobs if j["id"] == SMOKE_JOBS[workload])
        m = {"plain": run_pass([job], work, False, 0), "traced_passes": [],
             "setup_times": [setup_time], "startup": cli_startup(work)}
        m["traced_passes"] = [run_pass([job], work, True, 0)]
        records = m["plain"] + m["traced_passes"][0]
        check_digests(records, [job], work, load_digests())
        for trace, names in ((False, want_e2e), (True, want_layer)):
            values, _ = metrics_for(workload, m, trace)
            line = result_line(records, values, dict(names))
            if sorted(values) != sorted(n for n, _ in names):
                problems.append(f"{workload}: trace={int(trace)} emits {sorted(values)}")
            if not line["correct"]:
                problems.append(f"{workload}: {job['id']} failed: "
                                + "; ".join(e for r in records for e in r["errors"]))
        wrong = dict(job, expect=dict(job["expect"], exit=1 - job["expect"]["exit"]))
        if not run_pass([wrong], work, False, 1)[0]["errors"]:
            problems.append(f"{workload}: a wrong expected exit code was not counted as a failure")
        rec = dict(m["plain"][0], errors=[])
        check_digests([rec], [job], work, {job_key(job, work): {"digest": "0" * 64}})
        if not rec["errors"]:
            problems.append(f"{workload}: a changed certificate was not counted as a failure")
        print(f"smoke {workload}: {job['id']} checked")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke: " + ("pass" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long self-test")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's certificate digests in perfbench/digests.json")
    args = ap.parse_args(argv)
    if args.smoke:
        return main_smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
