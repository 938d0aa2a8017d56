"""Smoke test of the benchmark itself, on tiny inputs (about thirty seconds).

    python3 perfbench/smoke.py

Runs every job kind on W(3,3) and t = 2 formulas, untraced and traced, and
asserts that every metric is emitted with a unit and that the final lines
carry exactly the metrics BENCHMARK.json names.  It checks that a name the
tracer cannot find is reported absent and that a job past its timeout is
killed and fails.  Then it corrupts one expected
answer and asserts that the failure shows in fail_frac, and runs
a copy of the benchmark without the program beside it, which must exit
with a nonzero code and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

TINY = run.Workload("tiny", [
    run.rank_prefix(),
    run.verify(2, 3, 1, 2),
    run.verify(2, 3, 1, 3),
    run.roundtrip(2, 3, 1, 2),
    run.formula(2, 3, 2, 2),
    run.formula(2, 3, 2, 1),
    run.formula(3, 3, 2, 3),
    run.table(2, (3,), 2),
    run.dmatrix(2, 3),
    run.lab(2, 3, 1),
], prefix=(2, 3, 1, 2, 20))

END_TO_END = ("wall_s", "verify_s", "rank_s", "roundtrip_s", "formula_s", "lab_s",
              "peak_rss_mb", "setup_s", "fail_frac")


def check_emitted(metrics: dict, names, allow_none=False):
    for name in names:
        assert name in metrics, f"{name} not emitted"
        assert metrics[name]["unit"], f"{name} has no unit"
        if not allow_none:
            assert metrics[name]["value"] is not None, f"{name} is absent"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]

    report, result = run.run(TINY, seed=1, seconds=0, trace=False)
    check_emitted(report["metrics"], END_TO_END)
    assert sorted(result["metrics"]) == sorted(e2e_names) == sorted(run.GATED), result["metrics"]
    assert result["correct"] and result["failed"] == 0, report["jobs"]
    assert report["metrics"]["fail_frac"]["value"] == 0.0
    assert all(report["environment"][k] is not None
               for k in ("nproc", "python", "numpy", "thread_caps"))

    report, result = run.run(TINY, seed=2, seconds=0, trace=True)
    assert sorted(result["metrics"]) == sorted(layer_names), result["metrics"]
    check_emitted(result["metrics"], layer_names)
    assert not report["absent"], report["absent"]
    assert result["metrics"]["ranks.rows_seen"]["value"] > 0
    assert result["metrics"]["labchecks.cases"]["value"] > 0
    assert result["correct"], report["jobs"]

    # a renamed kernel is reported absent, not fatal
    sys.path.insert(0, str(run.SRC))
    import child

    tracer = child.Tracer()
    tracer.patch("polarank.ranks", "NoSuchKernel.insert", name="ranks.insert")
    assert tracer.summary()["absent"] == ["ranks.insert"]
    layers, absent = run.per_layer({"jobs": [{"_trace": tracer.summary()}]}, 0.0)
    assert absent == ["ranks.insert"]
    for name in ("rows_seen", "rows_independent", "useful_ratio", "rows_per_s",
                 "pivot_reductions", "lane_bytes", "basis_bytes", "insert.p50_ms"):
        assert layers[f"ranks.{name}"][0] is None, name
    assert layers["geometry.perp.calls"][0] == 0

    # so is a renamed lab suite
    tracer = child.Tracer()
    tracer.patch("polarank.labchecks", "no_such_check")
    layers, absent = run.per_layer({"jobs": [{"_trace": {"absent": ["labchecks.tau_check"]}}]}, 0.0)
    assert tracer.summary()["absent"] == ["labchecks.no_such_check"]
    assert layers["labchecks.tau_check.s"][0] is None and layers["labchecks.cases"][0] == 0

    # a job that outlives its timeout is killed and fails, the run goes on
    work = run.ROOT / ".perfbench_work" / "timeout"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(work, deadline=time.monotonic() + 60)
        wall, res = runner.spawn(["job", "--", "lab", "verify-lemmas", "--m", "2", "--p", "3", "--t", "2"], 0.5)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert isinstance(res, str) and res.startswith("timeout") and wall < 5, (wall, res)

    good = run.EXPORT_SHA256[(2, 3, 1, 2)]
    run.EXPORT_SHA256[(2, 3, 1, 2)] = "0" * 64
    try:
        report, result = run.run(TINY, seed=3, seconds=0, trace=False)
    finally:
        run.EXPORT_SHA256[(2, 3, 1, 2)] = good
    assert report["metrics"]["fail_frac"]["value"] > 0, report["metrics"]
    # one export per pass fails its check
    assert result["failed"] == len(report["pass_walls"]) and not result["correct"], result

    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "kernel",
                               "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)

    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
