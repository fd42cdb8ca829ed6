"""Command-line surface: build family groups, run statistics, probes,
covering checks, and emit machine-readable reports.

Exit codes: 0 success, 1 verification failure (counterexample or violated
bound), 2 usage error, 3 cap exceeded.  Identical configuration (including
seed) produces byte-identical JSON output apart from elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import bias, stats, structure
from .algebra import AlgebraParams
from .errors import CapExceededError, NilprobError, UsageError
from .fieldlin import load_form
from .groups import AlgebraGroup, GroupElement, TableGroup, load_cayley_table
from .stats import DEFAULT_SEED
from .tables import corpus_group

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


@dataclass
class RunConfig:
    """Validated flags of one invocation."""

    command: str
    args: argparse.Namespace
    threads: int
    out_format: str
    output: str | None


def _thread_count(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("NILPROB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"bad NILPROB_THREADS value: {env!r}") from None
    return os.cpu_count() or 1


def _resolve_table(source: str) -> TableGroup:
    if source.startswith("corpus:"):
        try:
            return corpus_group(source.split(":", 1)[1])
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    return load_cayley_table(source)


def _family(args: argparse.Namespace) -> AlgebraGroup:
    if args.form:
        form = load_form(args.form)
        params = AlgebraParams(args.p, form.dim, form)
    else:
        params = AlgebraParams.hyperbolic(args.p, args.n)
    return AlgebraGroup(params)


def _group_from_args(args: argparse.Namespace) -> tuple[Any, dict]:
    if getattr(args, "table", None):
        G = _resolve_table(args.table)
        return G, {"kind": "table", "source": args.table, "order": G.order}
    G = _family(args)
    return G, {
        "kind": "family",
        "p": G.params.p,
        "n": G.params.d // 2 if not args.form else None,
        "form": args.form or f"hyperbolic:{args.p}:{args.n}",
        "order": G.order,
    }


def _emit(payload: dict, config: RunConfig) -> None:
    text: str
    if config.out_format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    elif config.out_format == "csv":
        rows = ["schema,command,field,value"]
        flat = _flatten(payload)
        rows += [f"{SCHEMA_VERSION},{payload['command']},{k},{v}" for k, v in flat]
        text = "\n".join(rows) + "\n"
    else:
        flat = _flatten(payload)
        text = "\n".join(f"{k}: {v}" for k, v in flat) + "\n"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        out.append((prefix.rstrip("."), json.dumps(obj, default=str)))
    else:
        out.append((prefix.rstrip("."), obj))
    return out


def _payload(config: RunConfig, group_info: dict | None, report: dict) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "threads": config.threads,
        "report": report,
    }
    if group_info:
        payload["group"] = group_info
    return payload


# Subcommand implementations: each returns (exit_code, report dict).


def _cmd_family(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G, info = _group_from_args(args)
    rng = np.random.default_rng(args.seed)
    eng = G.batch
    stacks = [G.sample_batch(rng, args.samples) for _ in range(5)]
    five_fold_trivial = bool(eng.is_identity(eng.long_commutator(stacks)).all())
    probe = structure.class3_subspace_probe(G.params)
    quad_nonzero = probe.found
    ok = five_fold_trivial and quad_nonzero
    report = {
        "order": G.order,
        "generator_count": len(G.generators),
        "class": 4 if ok else None,
        "five_fold_samples": args.samples,
        "five_fold_trivial": five_fold_trivial,
        "quad_witness": probe.to_json_dict(),
    }
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), info, report


def _cmd_dk(args: argparse.Namespace, k: int) -> tuple[int, dict, dict]:
    G, info = _group_from_args(args)
    if args.mc:
        rep = stats.dk_monte_carlo(
            G, k, args.samples, seed=args.seed, threads=args.threads_resolved
        )
    elif k == 1:
        rep = stats.d1_exact(G, cap=args.cap or stats.D1_CAP)
    else:
        rep = stats.d2_exact(G, cap=args.cap or stats.D2_CAP)
    report = {"statistic": f"d{k}", "mode": rep.kind, **rep.to_json_dict()}
    return EXIT_OK, info, report


def _parse_s_elements(args: argparse.Namespace, G) -> list:
    if args.s_file:
        lines = [ln.strip() for ln in Path(args.s_file).read_text().splitlines() if ln.strip()]
        if isinstance(G, TableGroup):
            indices = [int(ln) for ln in lines]
            bad = next((i for i in indices if not 0 <= i < G.order), None)
            if bad is not None:
                raise UsageError(f"--s-file index {bad} outside [0, {G.order})")
            return indices
        from .algebra import from_text

        return [GroupElement.from_l1(from_text(G.params, ln)) for ln in lines]
    if args.s != "identity":
        raise UsageError(f"unsupported --s value {args.s!r}; use 'identity' or --s-file")
    return [G.identity]


def _cmd_cover(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G, info = _group_from_args(args)
    if args.minimal:
        witness = stats.covering_minimal_S(G, args.n_bound)
    else:
        S = _parse_s_elements(args, G)
        witness = stats.covering_check(
            G, args.n_bound, S, mode=args.mode, samples=args.samples, seed=args.seed
        )
    def fmt(el):
        return el if isinstance(el, int) else list(el.coords())
    report = {
        "n_bound": args.n_bound,
        "mode": "exhaustive" if witness.exhaustive else "sampled",
        "ok": witness.ok,
        "checked": witness.checked,
        "verified_fraction": [witness.verified_fraction.numerator,
                              witness.verified_fraction.denominator],
        "S": [fmt(s) for s in witness.S],
        "counterexample": None if witness.ok else fmt(witness.counterexample),
    }
    if witness.exact_minimum is not None:
        report["exact_minimum"] = witness.exact_minimum
    return (EXIT_OK if witness.ok else EXIT_VERIFICATION_FAILED), info, report


def _cmd_probe(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G = _family(args)
    info = {"kind": "family", "p": args.p, "n": args.n, "order": G.order}
    params = G.params
    if args.exhaustive_hyperplanes:
        results = [
            structure.class3_subspace_probe(params, h)
            for h in structure.hyperplanes(params.p, params.d)
        ]
        ok = all(r.found for r in results)
        report = {
            "hyperplanes": len(results),
            "all_witnessed": ok,
            "witnesses": [r.to_json_dict() for r in results],
        }
        return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), info, report
    probe = structure.class3_subspace_probe(params)
    report = probe.to_json_dict()
    return (EXIT_OK if probe.found else EXIT_VERIFICATION_FAILED), info, report


def _cmd_series(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G = _resolve_table(args.table)
    info = {"kind": "table", "source": args.table, "order": G.order}
    report = {
        "lower_central": structure.lower_central_series(G).to_json_dict(),
        "upper_central": structure.upper_central_series(G).to_json_dict(),
        "derived": structure.derived_series(G).to_json_dict(),
        "nilpotency_class": structure.nilpotency_class(G),
        "derived_length": structure.derived_length(G),
        "engel_degree": structure.engel_degree(G, max_l=args.max_l),
        "baer_indices": list(structure.baer_indices(G, args.baer_s, args.baer_t)),
        "baer_s_t": [args.baer_s, args.baer_t],
    }
    return EXIT_OK, info, report


def _cmd_neumann(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G = _resolve_table(args.table)
    info = {"kind": "table", "source": args.table, "order": G.order}
    norm = (
        structure.discrete_norm(G)
        if args.norm == "discrete"
        else structure.conjugacy_norm_fn(G)
    )
    rep = structure.neumann_extract(G, norm, args.C)
    report = {"norm": args.norm, **rep.to_json_dict()}
    return (EXIT_OK if rep.hypothesis_holds else EXIT_VERIFICATION_FAILED), info, report


def _cmd_bias(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G = _family(args)
    info = {"kind": "family", "p": args.p, "n": args.n, "order": G.order}
    params = G.params
    if args.verify_quad:
        expr = bias.family_quad_expression(params)
        res = bias.verify_expression(
            expr, bias.family_quad_map(params), samples=args.samples, seed=args.seed
        )
        report = {
            "certificate": "quad-bracket",
            "rank": expr.rank,
            "ok": res.ok,
            "exhaustive": res.exhaustive,
            "points_checked": res.points_checked,
        }
        return (EXIT_OK if res.ok else EXIT_VERIFICATION_FAILED), info, report
    if args.trilinear_bound:
        expr = bias.family_trilinear_expression(params)
        bound = bias.trilinear_lower_bound(expr)
        tri = bias.family_trilinear_map(params)
        rep = bias.bias_probability(tri, samples=args.samples, seed=args.seed)
        if rep.kind == "exact":
            holds = rep.value >= bound
        else:
            holds = rep.ci_high >= float(bound)
        report = {
            "certificate": "triple-bracket",
            "bound": [bound.numerator, bound.denominator],
            "bias": rep.to_json_dict(),
            "bound_holds": bool(holds),
        }
        return (EXIT_OK if holds else EXIT_VERIFICATION_FAILED), info, report
    raise UsageError("bias: pass --verify-quad or --trilinear-bound")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--output", help="write the report to a file instead of stdout")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: NILPROB_THREADS or machine count)")
    parser = argparse.ArgumentParser(
        prog="nilprob",
        description="Statistics and structural probes for probabilistically nilpotent groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser, with_table: bool = False) -> None:
        p.add_argument("--p", type=int, default=2, help="prime (2, 3, 5, 7)")
        p.add_argument("--n", type=int, default=1, help="hyperbolic family parameter")
        p.add_argument("--form", help="form file or hyperbolic:p:n keyword")
        if with_table:
            p.add_argument("--table", help="Cayley table file or corpus:NAME")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    fam = sub.add_parser("family", parents=[common], help="construct a family group and report class")
    add_family_flags(fam)
    fam.add_argument("--samples", type=int, default=1000)

    for k in (1, 2):
        dk = sub.add_parser(f"d{k}", parents=[common], help=f"class-{k} nilpotency degree")
        add_family_flags(dk, with_table=True)
        dk.add_argument("--family", action="store_true", help="use the family group")
        mode = dk.add_mutually_exclusive_group(required=True)
        mode.add_argument("--exact", action="store_true")
        mode.add_argument("--mc", action="store_true")
        dk.add_argument("--samples", type=int, default=10**6)
        dk.add_argument("--cap", type=int, default=None)

    cov = sub.add_parser("cover", parents=[common], help="commutator covering-condition check")
    add_family_flags(cov, with_table=True)
    cov.add_argument("--family", action="store_true")
    cov.add_argument("--n-bound", type=int, required=True)
    cov.add_argument("--s", default="identity")
    cov.add_argument("--s-file")
    cov.add_argument("--minimal", action="store_true", help="greedy minimal S search")
    cov.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    cov.add_argument("--samples", type=int, default=10000)

    probe = sub.add_parser("probe-class3", parents=[common], help="quadruple-bracket subspace probe")
    add_family_flags(probe)
    probe.add_argument("--exhaustive-hyperplanes", action="store_true")

    ser = sub.add_parser("series", parents=[common], help="central/derived series and Engel degree")
    ser.add_argument("--table", required=True)
    ser.add_argument("--max-l", type=int, default=10)
    ser.add_argument("--baer-s", type=int, default=1)
    ser.add_argument("--baer-t", type=int, default=1)

    neu = sub.add_parser("neumann", parents=[common], help="subgroup extraction from seminorm concentration")
    neu.add_argument("--table", required=True)
    neu.add_argument("--norm", choices=("discrete", "conjugacy"), required=True)
    neu.add_argument("--C", type=float, required=True)

    bi = sub.add_parser("bias", parents=[common], help="structured-expression certificates")
    add_family_flags(bi)
    bi.add_argument("--verify-quad", action="store_true")
    bi.add_argument("--trilinear-bound", action="store_true")
    bi.add_argument("--samples", type=int, default=10**6)

    return parser


_COMMANDS = {
    "family": _cmd_family,
    "d1": lambda a: _cmd_dk(a, 1),
    "d2": lambda a: _cmd_dk(a, 2),
    "cover": _cmd_cover,
    "probe-class3": _cmd_probe,
    "series": _cmd_series,
    "neumann": _cmd_neumann,
    "bias": _cmd_bias,
}


def run(config: RunConfig) -> int:
    t0 = time.perf_counter()
    args = config.args
    args.threads_resolved = config.threads
    code, info, report = _COMMANDS[config.command](args)
    payload = _payload(config, info, report)
    payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    _emit(payload, config)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            args=args,
            threads=_thread_count(args.threads),
            out_format=args.format,
            output=args.output,
        )
        return run(config)
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except (NilprobError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
