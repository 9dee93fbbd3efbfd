"""Tests of the benchmark itself: smoke passes, failing checks, tracer hygiene.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_reports_every_end_to_end_metric(name):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_pass_reports_every_layer_metric(name):
    first, second = (run.measure(name, 3, 1, True, "smoke") for _ in range(2))
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert first["failed"] == 0
    assert set(first["metrics"]) == set(declared)
    assert first["metrics"]["trace_overhead"] > 0
    assert os.path.isfile(os.path.join(ROOT, first["spans_file"]))
    counts = [key for key, unit in declared.items() if unit in ("count", "B", "bit")]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_wrong_expected_value_counts_as_failure(tmp_path):
    ops = workloads.build("census", 3, "smoke", str(tmp_path))
    grass = next(op for op in ops if op["command"] == "grass")
    grass["m"] += 1  # the output is right; the expectation is now wrong
    summary = run.measure("census", 3, 1, False, "smoke", ops=ops)
    assert summary["failed"] == 1
    assert list(summary["failures"]) == [str(grass["id"])]
    assert "Gaussian binomial" in summary["failures"][str(grass["id"])][0][0]


def test_check_oracle_rejects_a_wrong_violation_set():
    ring = oracle.Ring("zpk", 3, 2)
    images = {pt: tuple(ring.lift(c) for c in pt) for pt in oracle.plane_points(3)}
    found = oracle.violations(3, ring, images)
    op = {"group": "lift", "command": "check", "format": "text", "violations": found}
    lines = "\n".join("  " + ", ".join("(" + ":".join(map(str, pt)) + ")" for pt in sorted(t))
                      for t in found)
    text = f"violations: {len(found)}\n{lines}"
    assert oracle.check(op, text, 0) == []
    op["violations"] = set(list(found)[1:])
    assert oracle.check(op, text, 0)


def test_untraced_child_installs_no_wrapper(tmp_path):
    ops = workloads.build("audit", 3, "smoke", str(tmp_path))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"id": op["id"], "argv": op["argv"]} for op in ops]))
    plain, _ = run.spawn([str(plan)])
    traced, _ = run.spawn([str(plan), "--trace"])
    assert plain["boundaries"] == [] and "trace" not in plain
    assert {"collinear_A", "ProjPointA.reduce", "ProjPointFp", "propagate_forced_lift"} <= set(
        traced["boundaries"])
    assert [r["digest"] for r in plain["ops"]] == [r["digest"] for r in traced["ops"]]


def test_tracer_passes_results_and_exceptions_through():
    from nonlift import InvalidParameterError, lift_checker, ring_make

    t = tracer.Tracer()
    t.install()
    try:
        ring = ring_make("zpk", 3, 2)
        got = t.op("direct", lift_checker.brute_force_lift_search, 3, ring)
        with pytest.raises(InvalidParameterError):
            t.op("direct", lift_checker.propagate_forced_lift, 5, ring)
    finally:
        t.uninstall()
    assert tracer.installed_boundaries() == []
    assert got.nodes_explored == 99 and len(got.maps) == 0
    rows = {name: row for (_, name), row in t.agg.items()}
    assert rows["propagate_forced_lift"][4] == 1  # the error crossed the boundary
    assert rows["collinear_A"][1] > 0
    assert t.counters[("brute_force_lift_search", "nodes")] == 99


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _cli("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
