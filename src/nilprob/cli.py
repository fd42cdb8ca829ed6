"""Command-line surface: build family groups, run statistics, probes,
covering checks, and emit machine-readable reports.

Exit codes: 0 success, 1 verification failure (counterexample or violated
bound), 2 usage error, 3 cap exceeded.  A flag that the chosen path does not
read is a usage error.  Identical configuration (including seed) produces
byte-identical JSON output apart from elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Sequence

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


def _thread_count(flag: int | None) -> int:
    if flag is not None:
        count = flag
    elif env := os.environ.get("NILPROB_THREADS"):
        try:
            count = int(env)
        except ValueError:
            raise UsageError(f"bad NILPROB_THREADS value: {env!r}") from None
    else:
        return os.cpu_count() or 1
    if count < 1:
        raise UsageError(f"need threads >= 1, got {count}")
    return count


def _refuse_unread(args: argparse.Namespace, path: str, *dests: str) -> None:
    """Usage error for the first flag among `dests` that differs from its
    parser default: the chosen `path` does not read it."""
    for dest in dests:
        if getattr(args, dest, None) != args.parser.get_default(dest):
            raise UsageError(f"--{dest.replace('_', '-')} and {path} exclude each other")


def _group_from_args(args: argparse.Namespace) -> tuple[Any, dict]:
    """The group that the flags name, and the `group` block of its report."""
    if getattr(args, "table", None):
        _refuse_unread(args, "--table", "family", "p", "n", "form")
        if args.table.startswith("corpus:"):
            try:
                G = corpus_group(args.table.split(":", 1)[1])
            except KeyError as exc:
                raise UsageError(exc.args[0]) from None
        else:
            G = load_cayley_table(args.table)
        return G, {"kind": "table", "source": args.table, "order": G.order}
    if args.form:
        _refuse_unread(args, "--form", "p", "n")
        G = AlgebraGroup(AlgebraParams(load_form(args.form)))
    else:
        G = AlgebraGroup(AlgebraParams.hyperbolic(args.p, args.n))
    return G, {
        "kind": "family",
        "p": G.params.p,
        "n": None if args.form else args.n,
        "form": args.form or f"hyperbolic:{args.p}:{args.n}",
        "order": G.order,
    }


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text: str
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema", "command", "field", "value"])
        writer.writerows([SCHEMA_VERSION, payload["command"], k, f"{v}"] for k, v in _flatten(payload))
        text = buf.getvalue()
    else:
        flat = _flatten(payload)
        text = "\n".join(f"{k}: {v}" for k, v in flat) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
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


def _payload(args: argparse.Namespace, group_info: dict, report: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "threads": args.threads,
        "group": group_info,
        "report": report,
    }


# Subcommand implementations: each returns (exit code, group block, report).


def _cmd_family(args: argparse.Namespace) -> tuple[int, dict, dict]:
    if args.samples < 1:
        raise UsageError("need samples >= 1")
    G, info = _group_from_args(args)
    rep = stats.dk_monte_carlo(G, 4, args.samples, seed=args.seed, threads=args.threads)
    five_fold_trivial = rep.value == 1
    probe = structure.class3_subspace_probe(G.params)
    ok = five_fold_trivial and probe.found
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
    if args.mc:
        _refuse_unread(args, "--mc", "cap")
    else:
        _refuse_unread(args, "--exact", "samples", "seed")
    if args.cap is not None and args.cap < 0:
        raise UsageError(f"need cap >= 0, got {args.cap}")
    G, info = _group_from_args(args)
    if args.mc:
        rep = stats.dk_monte_carlo(G, k, args.samples, seed=args.seed, threads=args.threads)
    elif k == 1:
        rep = stats.d1_exact(G, cap=stats.D1_CAP if args.cap is None else args.cap)
    else:
        rep = stats.d2_exact(G, cap=stats.D2_CAP if args.cap is None else args.cap)
    report = {"statistic": f"d{k}", "mode": rep.kind, **rep.to_json_dict()}
    return EXIT_OK, info, report


def _parse_s_elements(args: argparse.Namespace, G) -> list:
    if args.s_file:
        lines = [ln.strip() for ln in Path(args.s_file).read_text().splitlines() if ln.strip()]
        if not lines:
            raise UsageError("--s-file holds no elements")
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
    if args.minimal:
        _refuse_unread(args, "--minimal", "s", "s_file", "mode", "samples", "seed")
    elif args.mode == "exhaustive":
        _refuse_unread(args, "--mode exhaustive", "samples", "seed")
    if args.s_file:
        _refuse_unread(args, "--s-file", "s")
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
    G, info = _group_from_args(args)
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
    G, info = _group_from_args(args)
    lower = structure.lower_central_series(G)
    upper = structure.upper_central_series(G)
    derived = structure.derived_series(G)
    report = {
        "lower_central": lower.to_json_dict(),
        "upper_central": upper.to_json_dict(),
        "derived": derived.to_json_dict(),
        "nilpotency_class": lower.trivial_at(),
        "derived_length": derived.trivial_at(),
        "engel_degree": structure.engel_degree(G, max_l=args.max_l),
        "baer_indices": list(
            structure.series_baer_indices(lower, upper, args.baer_s, args.baer_t)
        ),
        "baer_s_t": [args.baer_s, args.baer_t],
    }
    return EXIT_OK, info, report


def _cmd_neumann(args: argparse.Namespace) -> tuple[int, dict, dict]:
    G, info = _group_from_args(args)
    norm = (
        structure.discrete_norm(G)
        if args.norm == "discrete"
        else partial(stats.conjugacy_norm, G)
    )
    rep = structure.neumann_extract(G, norm, args.C)
    report = {"norm": args.norm, **rep.to_json_dict()}
    return (EXIT_OK if rep.hypothesis_holds else EXIT_VERIFICATION_FAILED), info, report


def _cmd_bias(args: argparse.Namespace) -> tuple[int, dict, dict]:
    if args.verify_quad and args.trilinear_bound:
        raise UsageError("bias: pass only one of --verify-quad and --trilinear-bound")
    G, info = _group_from_args(args)
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

    fam = sub.add_parser("family", parents=[common], help="construct a family group and report class")
    add_family_flags(fam)
    fam.add_argument("--samples", type=int, default=1000)
    fam.add_argument("--seed", type=int, default=DEFAULT_SEED)

    for k in (1, 2):
        dk = sub.add_parser(f"d{k}", parents=[common], help=f"class-{k} nilpotency degree")
        add_family_flags(dk, with_table=True)
        dk.add_argument("--family", action="store_true", help="use the family group")
        mode = dk.add_mutually_exclusive_group(required=True)
        mode.add_argument("--exact", action="store_true")
        mode.add_argument("--mc", action="store_true")
        dk.add_argument("--samples", type=int, default=10**6)
        dk.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    cov.add_argument("--seed", type=int, default=DEFAULT_SEED)

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
    bi.add_argument("--seed", type=int, default=DEFAULT_SEED)

    for command_parser in sub.choices.values():
        command_parser.set_defaults(parser=command_parser)   # read by _refuse_unread
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


def run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    code, info, report = _COMMANDS[args.command](args)
    payload = _payload(args, info, report)
    payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    _emit(payload, args)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.threads = _thread_count(args.threads)
        return run(args)
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except (NilprobError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
