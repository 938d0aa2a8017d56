"""polarank benchmark runner.

    python3 perfbench/run.py --workload {kernel,frontend,formula} \
        --seed N --seconds S --trace {0,1}

A closed loop with one client: the workload's jobs run one after another,
each in a fresh child process that calls `polarank.cli.main(argv)`
in-process (see child.py), because field tables, dimension tables and the
function-space caches are process-wide and a real CLI invocation starts cold.
The seed permutes the order in which jobs launch; the inputs are fixed
parameter sets, since every answer is an exact number checked against a
second route.  Passes over the job list repeat while the next one is
expected to end within --seconds (at least MIN_PASSES).  Set-up is timed
SETUP_FIRST times before the first pass and once more after every unit of
jobs, so that its median, like wall_s, spans the whole run; the host's
speed drifts over tens of seconds.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 one untraced pass and one traced pass run in
the same order and the last line carries the per-layer metrics.  The line
before it is a report with the environment, every job, and all named
metrics.  The program is run from the checkout's own `src/`; without it the
runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from child import LAB_SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_FIRST = 3
MIN_PASSES = 2
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s
JOB_TIMEOUT_S = 120.0

# sha256 of `export --m M --p P --t T --r R` files; exports are byte-identical
# by design, so a changed hash is a failed answer
EXPORT_SHA256 = {
    (3, 3, 1, 4): "9eff4ff10d1eaa0f9dce8488d7136bc65a6c571fe9f4379aaae7839b6c9006eb",
    (2, 3, 1, 2): "f453282992fbc4b27ecbb3c38a0a48977af7a9829aa0b91cd78e5185325622c2",
}

CATEGORIES = ("verify_s", "rank_s", "roundtrip_s", "formula_s", "lab_s")
# the end-to-end metrics every workload has; BENCHMARK.json gates these
GATED = ("wall_s", "peak_rss_mb", "setup_s")


class BenchError(Exception):
    """The benchmark cannot run here (no program, failed set-up)."""


# -- workloads -----------------------------------------------------------------


@dataclass
class Job:
    argv: list
    check: Callable  # (doc, ctx) -> error string or None
    label: str


@dataclass
class Unit:
    """Jobs that launch together, in order; the seed permutes units."""

    category: str
    jobs: list


@dataclass
class Workload:
    name: str
    units: list
    prefix: tuple | None = None  # (m, p, t, r, rows): input file made at set-up


def _flags(m, p, t, r):
    return ["--m", str(m), "--p", str(p), "--t", str(t), "--r", str(r)]


def verify(m, p, t, r) -> Unit:
    return Unit("verify_s", [Job(["verify", *_flags(m, p, t, r)], check_verify,
                                 f"verify W({2 * m - 1},{p}^{t}) r={r}")])


def rank_prefix() -> Unit:
    return Unit("rank_s", [Job(["rank", "{prefix}"], check_prefix_rank, "rank prefix")])


def roundtrip(m, p, t, r) -> Unit:
    key = (m, p, t, r)
    return Unit("roundtrip_s", [
        Job(["export", *_flags(m, p, t, r), "--matrix-out", "{work}/roundtrip.txt"],
            lambda doc, ctx: check_export(doc, ctx, key), f"export W({2 * m - 1},{p}^{t}) r={r}"),
        Job(["rank", "{work}/roundtrip.txt"],
            lambda doc, ctx: check_roundtrip_rank(doc, ctx, key), "rank export"),
    ])


def formula(m, p, t, r) -> Unit:
    return Unit("formula_s", [Job(["formula", *_flags(m, p, t, r)],
                                  lambda doc, ctx: check_formula(doc, ctx, (m, p, t, r)),
                                  f"formula ({m},{p},{t},r={r})")])


def table(m, primes, t_max) -> Unit:
    argv = ["table", "--m", str(m), "--p", *map(str, primes), "--t-max", str(t_max)]
    return Unit("formula_s", [Job(argv, check_table, f"table m={m} p={primes} t<={t_max}")])


def dmatrix(m, p) -> Unit:
    return Unit("formula_s", [Job(["dmatrix", "--m", str(m), "--p", str(p)], check_dmatrix,
                                  f"dmatrix m={m} p={p}")])


def lab(m, p, t) -> Unit:
    return Unit("lab_s", [Job(["lab", "verify-lemmas", "--m", str(m), "--p", str(p), "--t", str(t)],
                              check_lab, f"lab ({m},{p},{t})")])


# -- answer checks (untimed, each by a route other than the job's own) --------


def _program():
    """The checkout's polarank, for the closed forms the checks compare with."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polarank

    return polarank


def check_verify(doc, ctx):
    if doc.get("match") is not True:
        return f"match is {doc.get('match')!r}"
    return None


def check_prefix_rank(doc, ctx):
    want = ctx.expected["prefix_rank"]
    if doc.get("rank") != want:
        return f"rank {doc.get('rank')} != transpose rank {want}"
    return None


def check_export(doc, ctx, key):
    on_disk = _sha256(Path(doc.get("path", "")))
    want = EXPORT_SHA256[key]
    if not doc.get("sha256") == on_disk == want:
        return f"sha256 reported {doc.get('sha256')}, file {on_disk}, recorded {want}"
    return None


def check_roundtrip_rank(doc, ctx, key):
    m, p, t, r = key
    want = ctx.pass_docs.get(("verify", *_flags(m, p, t, r)), {}).get("oracle_rank")
    if want is None or doc.get("rank") != want:
        return f"rank of exported file {doc.get('rank')} != verify rank {want}"
    return None


def check_formula(doc, ctx, key):
    want = ctx.expected_formula(key)
    if want is None or doc.get("formula_rank") != want:
        return f"formula rank {doc.get('formula_rank')} != independent route {want}"
    return None


def rank_W3_even(t):
    """Sastry-Sin 2-rank 1 + y1^t + y2^t, y = beta^2 the roots of y^2 - 9y + 16.

    The same published formula the program uses for p = 2, evaluated by
    another recurrence; it guards the CLI's wiring, not the formula.
    """
    s_prev, s_cur = 2, 9
    for _ in range(t - 1):
        s_prev, s_cur = s_cur, 9 * s_cur - 16 * s_prev
    return 1 + s_cur


def check_table(doc, ctx):
    pr = ctx.program
    for col in doc.get("columns", []):
        p = col["p"]
        want = [rank_W3_even(t) if p == 2 else pr.rank_W3_closed_form(p, t)
                for t in doc["t_values"]]
        if col["ranks"] != want:
            return f"table column p={p} differs from the closed form"
    if not doc.get("columns"):
        return "empty table"
    return None


def digit_count(n_vars, p, total):
    """Tuples of n_vars digits in [0, p-1] summing to total."""
    counts = [1]
    for _ in range(n_vars):
        nxt = [0] * (len(counts) + p - 1)
        for i, c in enumerate(counts):
            for d in range(p):
                nxt[i + d] += c
        counts = nxt
    return counts[total] if 0 <= total < len(counts) else 0


def check_dmatrix(doc, ctx):
    m, p = doc.get("m"), doc.get("p")
    d_mid = digit_count(2 * m, p, m * (p - 1))
    want = [[(d_mid + p**m) // 2 if i == j == m else digit_count(2 * m, p, p * j - i)
             for j in range(1, m + 1)] for i in range(1, m + 1)]
    if doc.get("entries") != want:
        return "transfer matrix differs from the digit-count construction"
    if doc.get("trace") != sum(want[i][i] for i in range(m)):
        return "trace differs from the sum of the diagonal"
    return None


def check_lab(doc, ctx):
    if doc.get("passed") is not True:
        return "lab ledger did not pass"
    return None


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


@dataclass
class Context:
    work: Path
    prefix_file: Path
    expected: dict = field(default_factory=dict)
    pass_docs: dict = field(default_factory=dict)

    @property
    def program(self):
        return _program()

    def expected_formula(self, key):
        m, p, t, r = key
        pr = self.program
        if r == 1:
            return pr.point_count(m, p**t)  # points against themselves
        if m == 2 and r == 2:
            return pr.rank_W3_closed_form(p, t)
        if r == m:
            return 1 + pr.build_D_matrix(m, p).trace_power(t)
        return None


WORKLOADS = {
    # the GF(p) kernel does >= 90% of the work: p = 3 with 20440 columns
    # (the headline regime) and p = 13, which reduces lanes after every add
    "kernel": Workload("kernel", [rank_prefix(), verify(2, 13, 1, 2)], prefix=(2, 3, 3, 2, 1000)),
    # flat enumeration and incidence assembly dominate; r > m goes through perp
    "frontend": Workload("frontend", [
        verify(3, 3, 1, 2), verify(3, 3, 1, 3), verify(3, 3, 1, 4), verify(3, 3, 1, 5),
        verify(2, 3, 2, 2), verify(2, 3, 2, 3), roundtrip(3, 3, 1, 4),
    ]),
    # no oracle matrices: exponential ideal sums, transfer matrix, the lab
    "formula": Workload("formula", [
        formula(2, 3, 13, 2), formula(2, 7, 11, 1), formula(3, 3, 10, 3),
        table(2, (3, 5, 7), 8), dmatrix(4, 7), lab(2, 3, 2),
    ]),
}


# -- processes -----------------------------------------------------------------


NPROC = len(os.sched_getaffinity(0))
# no child starts more threads than there are cores
THREAD_CAPS = {k: str(NPROC) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    return {**os.environ, **THREAD_CAPS, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def spawn(self, args, timeout):
        """Run child.py with args; returns (wall seconds, result doc or error)."""
        self.count += 1
        out = self.work / f"child-{self.count}.json"
        err = self.work / f"child-{self.count}.err"
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return 0.0, "skipped: run deadline reached"
        with open(err, "wb") as err_fh:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args[:1], "--out", str(out), *args[1:]],
                                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_fh)
            # a blocking wait returns as the child exits; Popen.wait(timeout)
            # polls with up to 50 ms of sleep, which would show in the timings
            expired = threading.Event()
            timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        if expired.is_set():
            return wall, f"timeout after {timeout:.0f} s"
        if proc.returncode != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            return wall, f"child exit {proc.returncode}: {tail[0]}"
        return wall, json.loads(out.read_text())


def run_setups(runner: Runner, wl: Workload, ctx: Context, n: int) -> tuple[list, dict]:
    args = ["setup"]
    if wl.prefix:
        args += ["--prefix", *map(str, wl.prefix), str(ctx.prefix_file)]
    walls, doc = [], None
    for _ in range(n):
        wall, doc = runner.spawn(args, JOB_TIMEOUT_S)
        if not isinstance(doc, dict):
            raise BenchError(f"set-up failed: {doc}")
        walls.append(wall)
    return walls, doc


def run_pass(runner: Runner, units: list, ctx: Context, trace: bool, setup=None) -> dict:
    """One pass over the units; checks run after the pass, untimed.

    `setup`, if given, is called after each unit; its time is not the pass's.
    """
    ctx.pass_docs = {}
    done = []  # (record, job, result)
    for unit in units:
        for job in unit.jobs:
            argv = [a.format(work=ctx.work, prefix=ctx.prefix_file) for a in job.argv]
            wall, res = runner.spawn(["job", *(["--trace"] if trace else []), "--", *argv], JOB_TIMEOUT_S)
            done.append(({"job": job.label, "category": unit.category, "wall_s": wall}, job, res))
        if setup is not None:
            setup()
    wall = sum(rec["wall_s"] for rec, _, _ in done)
    for rec, job, res in done:
        if not isinstance(res, dict):
            rec["error"] = res
            continue
        rec.update(exit=res["exit"], rss_mb=res["maxrss_kb"] / 1024, import_s=res["import_s"],
                   _trace=res.get("trace"))
        try:
            ctx.pass_docs[tuple(job.argv)] = json.loads(res["stdout"])
        except ValueError:
            rec["error"] = "output is not JSON"
    for rec, job, _ in done:
        if "error" not in rec and rec["exit"] != 0:
            rec["error"] = f"exit code {rec['exit']}"
        elif "error" not in rec:
            try:
                rec["error"] = job.check(ctx.pass_docs[tuple(job.argv)], ctx)
            except Exception as exc:  # a malformed document fails its job, not the run
                rec["error"] = f"check raised {exc!r}"
        rec["ok"] = rec.get("error") is None
        if rec["ok"]:
            rec.pop("error", None)
    return {"wall_s": wall, "jobs": [rec for rec, _, _ in done]}


# -- metrics -------------------------------------------------------------------


def end_to_end(passes: list, setup_walls: list) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    out = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (max((j.get("rss_mb", 0.0) for j in jobs), default=0.0), "MB"),
    }
    for cat in CATEGORIES:
        per_pass = [sum(j["wall_s"] for j in p["jobs"] if j["category"] == cat) for p in passes]
        present = any(j["category"] == cat for j in jobs)
        out[cat] = (statistics.median(per_pass) if present else None, "s")
    failed = sum(not j["ok"] for j in jobs)
    out["fail_frac"] = (failed / len(jobs) if jobs else 1.0, "ratio")
    return out


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def per_layer(traced: dict, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics from one traced pass; absent sources give None."""
    names, counts, inserts, absent = {}, {}, [], set()
    lane = basis = 0
    import_s = 0.0
    for job in traced["jobs"]:
        import_s += job.get("import_s", 0.0)
        tr = job.get("_trace") or {}
        for name, agg in tr.get("names", {}).items():
            acc = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for k, v in tr.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
        inserts += tr.get("insert_s", [])
        lane, basis = max(lane, tr.get("lane_bytes", 0)), max(basis, tr.get("basis_bytes", 0))
        absent.update(tr.get("absent", []))

    def span(name, key="total_s"):
        if name in absent:
            return None
        return names.get(name, {}).get(key, 0)

    def count(name, source):
        return None if source in absent else counts.get(name, 0)

    def kernel(value, own):
        # the insert hooks are the source of every row count and size
        return None if {"ranks.insert", own} & absent else value

    rank_s = span("ranks.rank_mod_p")
    seen, indep = count("ranks.rows_seen", "ranks.insert"), count("ranks.rows_independent", "ranks.insert")
    m = {
        "ranks.rank_mod_p.s": (rank_s, "s"),
        "ranks.insert.p50_ms": (None if "ranks.insert" in absent else _pct(inserts, 50) * 1e3, "ms"),
        "ranks.insert.p99_ms": (None if "ranks.insert" in absent else _pct(inserts, 99) * 1e3, "ms"),
        "ranks.rows_per_s": (None if seen is None or rank_s is None else seen / rank_s if rank_s else 0.0,
                             "1/s"),
        "ranks.rows_seen": (seen, "count"),
        "ranks.rows_independent": (indep, "count"),
        "ranks.useful_ratio": (indep / seen if seen else (None if seen is None else 0.0), "ratio"),
        "ranks.pivot_reductions": (kernel(counts.get("ranks.pivot_reductions", 0), "ranks.pivot_reductions"),
                                   "count"),
        "ranks.lane_bytes": (kernel(lane, "ranks.basis_bytes"), "B"),
        "ranks.basis_bytes": (kernel(basis, "ranks.basis_bytes"), "B"),
        "geometry.enumerate_isotropic.s": (span("geometry.enumerate_isotropic"), "s"),
        "geometry.enumerate_coisotropic.s": (span("geometry.enumerate_coisotropic", "self_s"), "s"),
        "geometry.perp.s": (span("geometry.perp"), "s"),
        "geometry.perp.calls": (span("geometry.perp", "calls"), "count"),
        "geometry.flats": (count("geometry.flats", "geometry.enumerate_isotropic"), "count"),
        "incidence.incidence_from_flats.s": (span("incidence.incidence_from_flats"), "s"),
        "incidence.nnz": (count("incidence.nnz", "incidence.incidence_from_flats"), "count"),
        "incidence.write_matrix.s": (span("incidence.write_matrix"), "s"),
        "incidence.read_matrix.s": (span("incidence.read_matrix"), "s"),
        "incidence.file_checksum.s": (span("incidence.file_checksum"), "s"),
        "incidence.bytes_written": (count("incidence.bytes_written", "incidence.write_matrix"), "B"),
        "dimensions.rank_point_flat.s": (span("dimensions.rank_point_flat"), "s"),
        "dimensions.ideal_below.s": (span("dimensions.ideal_below"), "s"),
        "dimensions.ideal_elements": (count("dimensions.ideal_elements", "dimensions.ideal_below"), "count"),
        "dimensions.signed_ideal_below.s": (span("dimensions.signed_ideal_below"), "s"),
        "dimensions.signed_ideal_elements": (
            count("dimensions.signed_ideal_elements", "dimensions.signed_ideal_below"), "count"),
        "dimensions.dimension_table.s": (span("dimensions.dimension_table"), "s"),
        "dimensions.build_D_matrix.s": (span("dimensions.build_D_matrix"), "s"),
    }
    for suite in LAB_SUITES:
        m[f"labchecks.{suite}.s"] = (span(f"labchecks.{suite}"), "s")
    all_absent = all(f"labchecks.{suite}" in absent for suite in LAB_SUITES)
    m["labchecks.cases"] = (None if all_absent else counts.get("labchecks.cases", 0), "count")
    m["cli.import.s"] = (import_s, "s")
    m["cli.main.s"] = (span("cli.main"), "s")
    m["gf.build_field.s"] = (span("gf.build_field"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, sorted(absent)


# -- environment and entry point -------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a plain source checkout


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(setup_doc: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": NPROC,
        "python": setup_doc.get("python"),
        "numpy": setup_doc.get("numpy"),
        "l3_bytes": l3_bytes(),
        "thread_caps": THREAD_CAPS,
    }


def _metric_doc(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure, check.  Returns (report, final result line)."""
    if not (SRC / "polarank" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'polarank'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, deadline)
        ctx = Context(work, work / "prefix.txt")
        setup_walls, setup_doc = run_setups(runner, workload, ctx, SETUP_FIRST)
        if not Path(setup_doc["polarank_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"polarank imported from {setup_doc['polarank_file']}, not {SRC}")
        if workload.prefix:
            pr = ctx.program
            ctx.expected["prefix_rank"] = pr.rank_mod_p(pr.read_matrix(ctx.prefix_file).transpose())
        rng = random.Random(seed)
        orders, passes = [], []
        while len(passes) < (1 if trace else MIN_PASSES) or (
                not trace and sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds):
            orders.append(rng.sample(workload.units, len(workload.units)))
            passes.append(run_pass(runner, orders[-1], ctx, trace=False,
                                   setup=lambda: setup_walls.extend(run_setups(runner, workload, ctx, 1)[0])))
        e2e = end_to_end(passes, setup_walls)
        report = {
            "report": "perfbench", "workload": workload.name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "pass_walls": [p["wall_s"] for p in passes], "environment": environment(setup_doc),
            "setup_s": setup_walls, "metrics": _metric_doc(e2e),
        }
        all_jobs = [j for p in passes for j in p["jobs"]]
        if trace:
            traced = run_pass(runner, orders[0], ctx, trace=True)
            layers, absent = per_layer(traced, traced["wall_s"] - passes[0]["wall_s"])
            report.update(layers=_metric_doc(layers), absent=absent, traced_wall_s=traced["wall_s"])
            all_jobs += traced["jobs"]
            final_metrics = layers
        else:
            final_metrics = {k: e2e[k] for k in GATED}
        for j in all_jobs:
            j.pop("_trace", None)
        report["jobs"] = all_jobs
        failed = sum(not j["ok"] for j in all_jobs)
        result = {"correct": failed == 0, "attempted": len(all_jobs), "failed": failed,
                  "metrics": _metric_doc(final_metrics)}
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
