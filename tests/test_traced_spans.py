"""The traced benchmark wraps the entry points listed in perfbench/metrics.py
(module functions, and methods found in their class's own namespace); every
one of them must still resolve."""

import importlib
import importlib.util
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_resolves():
    missing = []
    for _, mod_name, owner, attr in _spans():
        module = importlib.import_module(mod_name)
        if owner is None:
            target = getattr(module, attr, None)
        else:
            # a method inherited from a base class is not in vars() and is not traced
            target = vars(getattr(module, owner)).get(attr)
        if not callable(target):
            missing.append(".".join(filter(None, (mod_name, owner, attr))))
    assert missing == []


def test_mc_chunk_counter_resolves():
    assert callable(importlib.import_module("nilprob.stats")._mc_chunk_hits)
