"""One round of one workload in a fresh interpreter, as a CLI user pays it.

Usage: python3 perfbench/child.py '<json config>'

The config names the workload, seed, round, mode ("round", "setup" or
"kernels"), whether to trace, and a work directory.  The child prints one
JSON object on its last stdout line.  setup_s runs from just before
`import nilprob` to the end of group construction.  Input generation and
the checks are not timed.

Each stage is a generator that yields after every unit of work (one call
into the program).  Between units the child times a fixed reference
kernel that uses no nilprob code, and divides each unit's time by the
mean of the reference times on either side of it.  A 2-vCPU VM shared
with other VMs can switch between two speeds every 0.5-20 s (measured on
an Intel Xeon at 2.0 GHz: a pure-Python loop takes 1.55-1.8x as long in
the slow state, numpy 1.35x), so raw seconds from two runs differ by
whichever state each run met; the ratio to a kernel timed beside the work
varies far less.  setup_ref is setup_s over the mean time of a pure-Python
loop, timed for 0.2 s just before the import and again just after set-up
(set-up is mostly importing scipy and building tables in Python).  Traced
rounds skip the references.
"""

import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _import_program() -> float:
    t0 = time.perf_counter()
    import nilprob  # noqa: F401
    import nilprob.cli  # noqa: F401
    import nilprob.tables  # noqa: F401
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _python_loop() -> None:
    seen, x = set(), 1
    for _ in range(6000):
        x = (x * 48271) % 2147483647
        seen.add(x & 4095)


def _python_window(seconds: float = 0.2) -> float:
    """Mean time of _python_loop, repeated for about `seconds`."""
    runs, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        _python_loop()
        runs += 1
    return (time.perf_counter() - t0) / runs


class Reference:
    """Fixed kernels: a pure-Python loop over a set, like subgroup closure
    (about 2 ms); a numpy int64 batched matrix product mod 2 on 2048 small
    matrices (about 2 ms); and the same product on 65536 matrices, whose
    8 MB operands leave the cache the way a Monte Carlo chunk of the `_batch`
    engine does (about 35 ms).  A workload sums the kernels that behave
    like it."""

    def __init__(self, kinds):
        import numpy as np

        self.np = np
        self.kinds = kinds
        size = 65536 if "numpy-large" in kinds else 2048
        self.a, self.b = np.random.default_rng(0).integers(0, 2, size=(2, size, 4, 4))

    def _product(self) -> None:
        (self.np.einsum("nik,nkj->nij", self.a, self.b) % 2).sum()

    def seconds(self) -> float:
        """Sum over the kinds of the median of 3 timed runs."""
        total = 0.0
        for kind in self.kinds:
            fn = _python_loop if kind == "python" else self._product
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn()
                reps.append(time.perf_counter() - t0)
            total += statistics.median(reps)
        return total


def _run_stage(stage, reference: Reference | None) -> list[list]:
    """[label, seconds, seconds / reference] for every unit of the stage."""
    segments = []
    gen = stage()
    ref_before = reference.seconds() if reference else None
    while True:
        t0 = time.perf_counter()
        label = next(gen, None)
        seconds = time.perf_counter() - t0
        if label is None:
            return segments
        ratio = None
        if reference:
            ref_after = reference.seconds()
            ratio = seconds / ((ref_before + ref_after) / 2)
            ref_before = ref_after
        segments.append([label, seconds, ratio])


def run_round(name: str, seed: int, round_index: int, quick: bool, workdir: Path,
              tracer=None, setup_only: bool = False, expected: dict | None = None) -> dict:
    """Set up, run the three stages and check them; times exclude checks."""
    import workloads

    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, round_index, quick, workdir,
                                   expected or workloads.EXPECTED)
    untimed_s = time.perf_counter() - t0
    region = tracer.region if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with region("setup"):
        wl.setup()
    setup_build_s = time.perf_counter() - t0
    setup_kernel_s = _python_window() if tracer is None else None
    if setup_only:
        return {"setup_build_s": setup_build_s, "setup_kernel_s": setup_kernel_s}
    t0 = time.perf_counter()
    wl.prepare()
    untimed_s += time.perf_counter() - t0
    reference = None if tracer is not None else Reference(wl.reference)
    stage_kernel_s = reference.seconds() if reference else None
    segments = []
    for stage in (wl.stage1, wl.stage2, wl.stage3):
        with region(stage.__name__):
            segments.append(_run_stage(stage, reference))
    stages_end = time.perf_counter()
    stage_s = [sum(s for _, s, _ in seg) for seg in segments]
    checks = workloads.Checks()
    wl.check(checks)
    out = {
        "setup_build_s": setup_build_s,
        "stage_s": stage_s,
        "segments": segments,
        "threads": list(wl.threads),
        "extras": wl.extras(stage_s, segments),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "untimed_s": untimed_s,
        "stages_end": stages_end,
    }
    if reference:
        out["stage_ref"] = [sum(r for _, _, r in seg) for seg in segments]
        out["setup_kernel_s"] = setup_kernel_s
        out["stage_kernel_s"] = stage_kernel_s
    return out


def _kernels(seed: int, quick: bool) -> dict:
    """Fixed-shape _batch timings on 65536-element stacks, median of reps."""
    import numpy as np
    from nilprob.algebra import AlgebraParams
    from nilprob.groups import AlgebraGroup

    G = AlgebraGroup(AlgebraParams.hyperbolic(2, 1 if quick else 2))
    eng = G.batch
    rng = np.random.default_rng(seed)
    n = 1 << 16
    a, b = eng.random_l1(rng, n), eng.random_l1(rng, n)
    out = {"batch.bytes_per_element": sum(arr.nbytes for arr in a) / n}
    for name, fn in (("mul", eng.mul), ("commutator", eng.commutator)):
        reps = []
        for _ in range(1 if quick else 3):
            t0 = time.perf_counter()
            fn(a, b)
            reps.append((time.perf_counter() - t0) * 1000.0)
        out[f"batch.{name}.ms_per_65536"] = statistics.median(reps)
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    # The set-up kernel is timed before the import (numpy is not loaded
    # yet, so only the Python loop) and again after set-up.
    timed_setup = cfg["mode"] != "kernels" and not cfg["trace"]
    kernel_before_s = _python_window() if timed_setup else None
    start = time.perf_counter()
    import_s = _import_program()
    import nilprob

    src = Path(cfg["src"]).resolve()
    if src not in Path(nilprob.__file__).resolve().parents:
        sys.stderr.write(f"nilprob imported from {nilprob.__file__}, not from {src}\n")
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    seed, quick = cfg["seed"], cfg["quick"]
    if cfg["mode"] == "kernels":
        print(json.dumps({"kernels": _kernels(seed, quick)}))
        return 0

    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer(cfg["run_id"])
        tracing.install(tracer)
    result = run_round(cfg["workload"], seed, cfg["round"], quick, Path(cfg["workdir"]),
                       tracer, setup_only=cfg["mode"] == "setup")
    result["setup_s"] = import_s + result["setup_build_s"]
    if "stage_s" in result:
        result["wall_s"] = result["setup_s"] + sum(result["stage_s"])
    if kernel_before_s and result.get("setup_kernel_s"):
        result["setup_ref"] = result["setup_s"] / ((kernel_before_s + result["setup_kernel_s"]) / 2)
    if "stage_ref" in result:
        # One unit throughout: set-up in the stages' reference, not setup_ref's.
        result["wall_ref"] = result["setup_s"] / result["stage_kernel_s"] + sum(result["stage_ref"])
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        import tracing

        # The traced wall time on its own clock: from just before the import
        # to the end of stage 3, less input generation (untimed_s).
        wall_s = result["stages_end"] - start - result["untimed_s"]
        result["layers"] = tracing.summarize(tracer, import_s, wall_s)
        tracer.write(cfg["trace_file"], {"workload": cfg["workload"], "seed": seed,
                                         "env": cfg.get("env", {})})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
