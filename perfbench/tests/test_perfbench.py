"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_named_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in listed]
    if trace:
        # The spans account for the traced wall time, measured on its own
        # clock, up to the benchmark's bookkeeping between regions.
        v = {k: m["value"] for k, m in result["metrics"].items()}
        assert 0 <= v["trace.unaccounted_s"] < 0.02 * v["trace.wall_s"] + 0.02


def test_by_value_imports_are_traced():
    # structure imports subgroup_closure and nullspace by value; only those
    # copies run in these workloads.
    for workload, name in (("table-structure", "groups.subgroup_closure.calls"),
                           ("family-exact", "fieldlin.nullspace.calls")):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--quick")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["metrics"][name]["value"] > 0


def test_wrong_expected_value_is_a_failed_check(tmp_path):
    expected = dict(workloads.EXPECTED, d2_2_1=Fraction(64, 128))
    result = child.run_round("family-exact", 3, 0, True, tmp_path, expected=expected)
    assert result["attempted"] > 1
    assert len(result["failures"]) == 1
    assert result["failures"][0].startswith("d2(2,1)")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "family-mc", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_time_outside_every_span_is_unaccounted():
    import tracing

    tracer = tracing.Tracer("unit")
    tracer.spans = [["bench.setup", 1.0, 2.0, None, 0],
                    ["groups.class_size", 1.2, 1.5, 0, 0],
                    ["bench.stage1", 2.5, 4.0, None, 0]]
    # 0.5 s of import and 2.5 s of regions leave 1.0 s of the 4.0 s wall
    # time in no region, as an unwrapped step between stages would.
    out = tracing.summarize(tracer, import_s=0.5, wall_s=4.0)
    assert out["groups.class_size.calls"] == 1
    assert out["trace.layer_self_s"] == pytest.approx(0.3)
    assert out["trace.bench_self_s"] == pytest.approx(2.2)
    assert out["trace.unaccounted_s"] == pytest.approx(1.0)
