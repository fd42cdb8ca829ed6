"""Benchmark of the nilprob package: three workloads, each round in a fresh
process, with a traced mode for per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload family-mc --seed 1 --seconds 40 --trace 0

Rounds of the workload run one after another, each in a new interpreter,
while the next round is expected to end within --seconds; at least one
round runs (with --trace 1, at least one untraced and one traced round,
alternating).  Extra set-up-only children bring the set-up samples to
SETUP_SAMPLES.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report.  The metrics and their units are the ones BENCHMARK.json at the
repository root lists.  A run record with the environment goes to
.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


class BenchError(RuntimeError):
    pass


def parse_args(workloads: list[str], argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small shapes for the smoke tests; not comparable")
    return ap.parse_args(argv)


def environment(args: argparse.Namespace) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit or "unknown",
        "seed": args.seed,
        "workload": args.workload,
        "quick": args.quick,
    }


class Runner:
    """Starts children one at a time and waits for each to end."""

    def __init__(self, args: argparse.Namespace, workdir: Path, env_info: dict):
        self.args = args
        self.workdir = workdir
        self.env_info = env_info
        self.deadline = time.monotonic() + DEADLINE_S
        self.trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        self.children = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def child(self, mode: str, round_index: int = 0, trace: bool = False) -> dict:
        self.children += 1
        cfg = {
            "workload": self.args.workload, "seed": self.args.seed, "quick": self.args.quick,
            "mode": mode, "round": round_index, "trace": trace, "src": str(SRC),
            "workdir": str(self.workdir),
            "run_id": f"{self.args.workload}-{self.args.seed}-{self.children}",
            "trace_file": str(self.trace_file), "env": self.env_info,
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(cfg)], cwd=ROOT,
                                  env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the next one would end past `seconds`; with trace,
    untraced and traced rounds alternate and at least one of each runs."""
    rounds: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.monotonic()
        result = runner.child("round", len(rounds), trace=traced)
        result["traced"] = traced
        rounds.append(result)
        longest = max(longest, time.monotonic() - t0)
        enough = not trace or len(rounds) >= 2
        if enough and time.monotonic() - start + longest > seconds:
            return rounds


def median_of(rows: list[dict], key) -> float:
    return statistics.median(key(r) for r in rows)


def end_to_end(plain: list[dict], setups: list[dict]) -> dict[str, float]:
    """Every end-to-end value the benchmark can give, by metric name."""
    out = {
        "setup_s": median_of(setups, lambda r: r["setup_s"]),
        "setup_ref": median_of(setups, lambda r: r["setup_ref"]),
        "wall_ref": median_of(plain, lambda r: r["wall_ref"]),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
    }
    for i in range(3):
        out[f"stage{i + 1}_ref"] = median_of(plain, lambda r: r["stage_ref"][i])
    return out


def named_figures(workload: str, plain: list[dict]) -> list[tuple[str, float, str, str]]:
    """The workload's own named figures, for the readable report."""
    rows = [("wall_s", median_of(plain, lambda r: r["wall_s"]), "s", "setup + stages")]
    rows += [(f"stage{i + 1}_s", median_of(plain, lambda r: r["stage_s"][i]), "s", "")
             for i in range(3)]
    if workload == "family-mc":
        for key in ("mc_samples_per_s", "mc_2t_samples_per_s", "mc_p3_samples_per_s"):
            rows.append((key, median_of(plain, lambda r: r["extras"][key]), "1/s", ""))
    elif workload == "family-exact":
        lat = [v for r in plain for v in r["extras"]["norm_query_ms"]]
        deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else [lat[0]] * 9
        rows += [
            ("exact_stats_s", median_of(plain, lambda r: r["stage_s"][0]), "s", "= stage1_s"),
            ("norm_query_p50_ms", statistics.median(lat), "ms", f"{len(lat)} queries"),
            ("norm_query_p90_ms", deciles[8], "ms",
             f"{len(lat)} queries, {len(lat) - int(0.9 * len(lat))} beyond"),
            ("certificate_s", median_of(plain, lambda r: r["stage_s"][2]), "s", "= stage3_s"),
        ]
    else:
        rows += [
            ("table_stats_s", median_of(plain, lambda r: r["stage_s"][0]), "s", "= stage1_s"),
            ("lattice_s", median_of(plain, lambda r: r["stage_s"][2] + r["extras"]["neumann_cli_s"]),
             "s", "stage3_s + cli neumann"),
        ]
    return rows


def layer_metrics(traced: list[dict], plain: list[dict], kernels: dict) -> dict[str, float]:
    """Every per-layer value the benchmark can give, by metric name."""
    out = {name: median_of(traced, lambda r: r["layers"][name]) for name in traced[0]["layers"]}
    out.update(kernels)
    out["trace.overhead_s"] = out["trace.wall_s"] - median_of(plain, lambda r: r["wall_s"])
    return out


def select(values: dict[str, float], listed: list[dict]) -> dict[str, dict]:
    """The listed metrics, in their order, as {name: {value, unit}}."""
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json lists metrics this run does not give: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot read {SPEC.name}: {exc}\n")
        return 2
    args = parse_args([w["name"] for w in spec["workloads"]], argv)
    if not (SRC / "nilprob" / "__init__.py").is_file():
        sys.stderr.write(f"error: no nilprob sources under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    env_info = environment(args)
    runner = Runner(args, workdir, env_info)
    if args.trace:
        runner.trace_file.unlink(missing_ok=True)
    try:
        rounds = run_rounds(runner, args.seconds, bool(args.trace))
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        extra = 0 if args.quick else max(0, SETUP_SAMPLES - len(plain))
        setups = plain + [runner.child("setup") for _ in range(extra)]
        kernels = runner.child("kernels")["kernels"] if args.trace else {}
        if args.trace:
            reported = select(layer_metrics(traced, plain, kernels), spec["per_layer"])
        else:
            reported = select(end_to_end(plain, setups), spec["end_to_end"])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]

    stage_names = metrics.STAGES[args.workload]
    threads = plain[0]["threads"]
    print(f"perfbench {args.workload} seed={args.seed} rounds={len(plain)} untraced"
          f" + {len(traced)} traced, setup samples={len(setups)}")
    print("env " + json.dumps(env_info, sort_keys=True))
    print("stages " + "; ".join(f"stage{i + 1} = {s} (threads={t})"
                                for i, (s, t) in enumerate(zip(stage_names, threads))))
    for name, metric in reported.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        for name, value, unit, note in named_figures(args.workload, plain):
            print(f"  {name:<40} {value:>14.6g} {unit}  {note}")
    print(f"  {'fail_rate':<40} {len(failures)}/{attempted} checks")
    for failure in failures:
        print(f"  FAILED {failure}")
    record = {"env": env_info, "rounds": rounds,
              "setup_samples": [{k: r[k] for k in ("setup_s", "setup_ref")} for r in setups],
              "kernels": kernels, "metrics": reported}
    mode = "trace" if args.trace else "plain"
    (OUT / f"run-{args.workload}-seed{args.seed}-{mode}.json").write_text(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
