"""Nilpotency-degree statistics, conjugacy-class norms, and covering checks.

All estimators are pure functions of (group, seed).  Exact values are
Fractions; Monte Carlo estimates carry a two-sided 99% Clopper-Pearson
interval and are deterministic for a fixed seed regardless of thread count
(fixed chunking, one child RNG stream per chunk).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.special import betaincinv

from .errors import CapExceededError
from .groups import AlgebraGroup, TableGroup, subgroup_table

DEFAULT_SEED = 1729
D1_CAP = 1 << 16
D2_CAP = 1 << 10
COVER_PAIR_CAP = 1 << 24
COVER_CHUNK = 1 << 12
MC_CHUNK = 1 << 16

Group = Union[AlgebraGroup, TableGroup]


@dataclass
class StatReport:
    """Exact or interval-valued probability statistic with provenance."""

    kind: str                      # "exact" | "monte-carlo"
    value: Fraction | float
    ci_low: float | None = None
    ci_high: float | None = None
    samples: int | None = None
    seed: int | None = None
    elapsed_s: float = 0.0

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "exact":
            frac = Fraction(self.value)
            out["value_num"] = frac.numerator
            out["value_den"] = frac.denominator
        else:
            out["estimate"] = float(self.value)
            out["ci_low"] = self.ci_low
            out["ci_high"] = self.ci_high
            out["samples"] = self.samples
            out["seed"] = self.seed
        out["elapsed_ms"] = round(self.elapsed_s * 1000.0, 3)
        return out


@dataclass
class CoveringWitness:
    """Result of a covering-condition check Comm(G,G) within B*S."""

    n: int
    S: list
    verified_fraction: Fraction
    counterexample: object | None
    exhaustive: bool
    checked: int
    exact_minimum: bool | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.ok


def clopper_pearson(hits: int, samples: int, confidence: float = 0.99) -> tuple[float, float]:
    """Two-sided exact binomial confidence interval.

    The bounds are Beta quantiles, taken from the inverse regularized
    incomplete beta function (scipy.stats.beta.ppf evaluates the same
    function, at over three times the import cost).
    """
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(betaincinv(hits, samples - hits + 1, alpha / 2))
    hi = 1.0 if hits == samples else float(betaincinv(hits + 1, samples - hits, 1 - alpha / 2))
    return lo, hi


def d1_exact(G: Group, cap: int = D1_CAP) -> StatReport:
    """Commuting probability: sum of centralizer orders over |G|^2."""
    t0 = time.perf_counter()
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds d1 cap {cap}")
    total = int((G.order // G.class_sizes(G.all_elements(cap))).sum())
    return StatReport("exact", Fraction(total, G.order**2), elapsed_s=time.perf_counter() - t0)


def d2_exact(G: Group, cap: int = D2_CAP) -> StatReport:
    """P([x,y,z] = 1) via sum of centralizer orders of commutators, with the
    outer variable reduced to class representatives weighted by class size."""
    t0 = time.perf_counter()
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds d2 cap {cap}")
    order = G.order
    elems = G.all_elements(cap)
    total = 0
    for rep, size in G.conjugacy_classes():
        comms = G.commutators(G.repeat(rep, order), elems)
        total += size * int((order // G.class_sizes(comms)).sum())
    return StatReport("exact", Fraction(total, order**3), elapsed_s=time.perf_counter() - t0)


def _mc_chunk_hits(G: Group, k: int, size: int, rng: np.random.Generator) -> int:
    acc = G.sample_batch(rng, size)
    for _ in range(k):
        acc = G.commutators(acc, G.sample_batch(rng, size))
    return int(np.count_nonzero(G.identity_mask(acc)))


def dk_monte_carlo(
    G: Group,
    k: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    confidence: float = 0.99,
    threads: int = 1,
) -> StatReport:
    """Estimate P([x_1, ..., x_{k+1}] = 1) from uniform (k+1)-tuples."""
    if k < 1 or samples < 1:
        raise ValueError("need k >= 1 and samples >= 1")
    t0 = time.perf_counter()
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(i: int) -> int:
        return _mc_chunk_hits(G, k, sizes[i], np.random.default_rng(streams[i]))

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, range(len(sizes))))
    else:
        hits = sum(run(i) for i in range(len(sizes)))
    lo, hi = clopper_pearson(hits, samples, confidence)
    return StatReport(
        "monte-carlo",
        hits / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
    )


def conjugacy_norm(G: Group, g) -> float:
    """log of the conjugacy class size: base p for family groups (class sizes
    are p-powers), natural log for table groups."""
    size = G.class_size(g)
    if isinstance(G, AlgebraGroup):
        return math.log(size, G.params.p)
    return math.log(size)


def commutator_set(G: Group, cap: int = COVER_PAIR_CAP) -> list:
    """The full set Comm(G, G) of commutator values, in element order.

    Requires |G|^2 <= cap.  Takes commutators of class representatives
    against everything: [x^g, y] = [x, y^(g^-1)]^g, so every commutator is
    conjugate to one with a representative on the left, and Comm(G, G) is
    the union of the classes those commutators hit.
    """
    if G.order**2 > cap:
        raise CapExceededError(f"|G|^2 = {G.order ** 2} exceeds cap {cap}")
    elems = G.all_elements()
    hit = np.zeros(G.order, dtype=bool)
    for rep, _ in G.conjugacy_classes():
        hit[G.class_labels(G.commutators(G.repeat(rep, G.order), elems))] = True
    return list(compress(G.elements(), hit[G.class_labels(elems)]))


def _ball_masks(G: Group, xs, count: int, S: Sequence, n: int) -> np.ndarray:
    """(len(S), count) mask: row j marks the entries x of the stack xs that
    lie in B*S[j], i.e. |(x S[j]^-1)^G| <= n."""
    rows = [G.class_sizes(G.quotients(xs, G.repeat(s, count))) <= n for s in S]
    return np.array(rows, dtype=bool).reshape(len(S), count)


def covering_check(
    G: Group,
    n: int,
    S: Sequence,
    mode: str = "exhaustive",
    samples: int = 10000,
    seed: int = DEFAULT_SEED,
    cap: int = COVER_PAIR_CAP,
) -> CoveringWitness:
    """Check Comm(G,G) within B*S where B = {x : |x^G| <= n}."""
    S = list(S)
    if mode == "exhaustive":
        comms = commutator_set(G, cap)
        covered = _ball_masks(G, G.stack(comms), len(comms), S, n).any(axis=0)
        if covered.all():
            return CoveringWitness(n, S, Fraction(1), None, True, len(comms))
        i = int(np.argmin(covered))
        return CoveringWitness(n, S, Fraction(i, len(comms)), comms[i], True, len(comms))
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("need samples >= 1")
    rng = np.random.default_rng(seed)
    start, chunk = 0, 64
    while start < samples:
        # one pair per sample, in sample order, so the first failing sample of
        # a seed does not depend on the chunking; chunks grow so that an early
        # failure costs little
        pairs = [G.random_elements(rng, 2) for _ in range(min(chunk, samples - start))]
        comms = G.commutators(G.stack([g for g, _ in pairs]), G.stack([h for _, h in pairs]))
        covered = _ball_masks(G, comms, len(pairs), S, n).any(axis=0)
        if not covered.all():
            i = int(np.argmin(covered))
            c = G.commutator(*pairs[i])
            return CoveringWitness(n, S, Fraction(start + i, samples), c, False, samples)
        start, chunk = start + len(pairs), min(2 * chunk, COVER_CHUNK)
    return CoveringWitness(n, S, Fraction(1), None, False, samples)


def covering_minimal_S(
    G: Group,
    n: int,
    cap: int = COVER_PAIR_CAP,
    exact_limit: int = 20,
) -> CoveringWitness:
    """Greedy ball cover of Comm(G,G) by translates B*s with s a commutator
    value; exact minimum confirmed when there are few distinct ball classes."""
    if n < 1:
        raise ValueError("covering bound n must be >= 1")
    comms = commutator_set(G, cap)
    universe = set(range(len(comms)))
    masks = _ball_masks(G, G.stack(comms), len(comms), comms, n)
    balls = [frozenset(np.flatnonzero(row).tolist()) for row in masks]

    chosen: list[int] = []
    uncovered = set(universe)
    while uncovered:
        # every value c is inside its own translate ball (c * c^-1 = 1), so
        # the greedy loop always terminates with a full cover
        best = max(range(len(comms)), key=lambda i: (len(balls[i] & uncovered), -i))
        chosen.append(best)
        uncovered -= balls[best]

    result = [comms[i] for i in chosen]
    exact: bool | None = None
    distinct = sorted(set(balls), key=lambda b: (-len(b), sorted(b)))
    if len(distinct) <= exact_limit:
        best_subset = _exact_min_cover(distinct, universe)
        if len(best_subset) < len(result):
            result = [comms[balls.index(b)] for b in best_subset]
        exact = True
    return CoveringWitness(
        n, result, Fraction(1), None, True, len(comms), exact_minimum=exact
    )


def _exact_min_cover(balls: list[frozenset[int]], universe: set[int]) -> list[frozenset[int]]:
    from itertools import combinations

    for size in range(len(balls) + 1):
        for combo in combinations(balls, size):
            union: set[int] = set()
            for b in combo:
                union |= b
            if union >= universe:
                return list(combo)
    raise RuntimeError("universe not coverable by the full ball list")  # pragma: no cover


def covering_for_subgroup(
    G: TableGroup, H: Iterable[int], n: int, S: Sequence[int]
) -> tuple[int, TableGroup, list[int]]:
    """Transfer a covering certificate of G to a subgroup H.

    Returns (n^2, H as TableGroup, S' in H's indices): S' keeps one point of
    B*s intersected with H for each s where that intersection is nonempty.
    """
    members = sorted(set(int(h) for h in H))
    Hgrp, mapping = subgroup_table(G, members)
    pos = {g: i for i, g in enumerate(mapping)}
    s_prime: list[int] = []
    for row in _ball_masks(G, G.stack(members), len(members), S, n):
        if row.any():
            s_prime.append(pos[members[int(np.argmax(row))]])
    return n * n, Hgrp, s_prime
