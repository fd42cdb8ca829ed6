"""Every benchmark workload in perfbench/workloads.py runs in-process in
quick mode and passes its own output checks, so a change that breaks a call
the benchmark makes fails here as well as in the benchmark's own tests."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_round_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, 0, True, tmp_path, workloads.EXPECTED)
    wl.setup()
    wl.prepare()
    for stage in (wl.stage1, wl.stage2, wl.stage3):
        for _ in stage():
            pass
    checks = workloads.Checks()
    wl.check(checks)
    assert checks.attempted > 0
    assert checks.failures == []
