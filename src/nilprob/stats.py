"""Nilpotency-degree statistics, conjugacy-class norms, and covering checks.

All estimators are pure functions of (group, seed).  Exact values are
Fractions; Monte Carlo estimates carry a two-sided 99% Clopper-Pearson
interval and are deterministic for a fixed seed regardless of thread count
(fixed chunking, one child RNG stream per chunk).
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence, Union

import numpy as np

from ._binomial_tail import binomial, tail_root
from .errors import CapExceededError
from .groups import AlgebraGroup, TableGroup

DEFAULT_SEED = 1729
D1_CAP = 1 << 16
D2_CAP = 1 << 10
COVER_PAIR_CAP = 1 << 24
COVER_CHUNK = 1 << 12
COVER_BLOCK = 1 << 16   # (s, x) pairs per quotient stack of an exhaustive cover
EXACT_COVER_BALLS = 20   # the exact search tries every subset of the distinct balls
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
    """Two-sided exact binomial confidence interval, correctly rounded.

    With a = (1 - confidence) / 2, the lower bound solves
    P(Bin(samples, x) >= hits) = a and the upper bound solves
    P(Bin(samples, x) <= hits) = a, both the Beta quantiles; the upper
    bound is read on this lower tail, so no rounded 1 - a enters.  Each
    bound is the double nearest its root; hits = 0 has lower bound 0 and
    hits = samples upper bound 1.  Counts may be any integer type, numpy's
    included.
    """
    hits, samples = operator.index(hits), operator.index(samples)
    if not (0 <= hits <= samples and samples >= 1 and 0.0 < confidence < 1.0):
        raise ValueError(f"need 0 <= hits <= samples, samples >= 1 and 0 < confidence < 1, "
                         f"got hits={hits}, samples={samples}, confidence={confidence}")
    tail = (1.0 - confidence) / 2
    if samples == 1:
        # the roots tail and 1 - tail; the second can be a tie, which the
        # subtraction rounds to even
        return (0.0, 1.0 - tail) if hits == 0 else (tail, 1.0)
    binom = binomial(samples, hits)
    lo = 0.0 if hits == 0 else tail_root(samples, hits, tail, binom)
    hi = 1.0 if hits == samples else tail_root(samples, samples - hits, tail, binom, upper=True)
    return lo, hi


def d1_exact(G: Group, cap: int = D1_CAP) -> StatReport:
    """Commuting probability: sum of centralizer orders over |G|^2."""
    t0 = time.perf_counter()
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds d1 cap {cap}")
    total = int((G.order // G.class_sizes(G.all_elements(cap))).sum())
    return StatReport("exact", Fraction(total, G.order**2), elapsed_s=time.perf_counter() - t0)


def d2_exact(G: Group, cap: int = D2_CAP) -> StatReport:
    """P([x,y,z] = 1): the sum of |C_G([x,y])| over x, y in G, over |G|^3.

    `G.commutator_centralizer_sum(cap)` gives the sum and documents how each
    group type computes it and what `cap` bounds: for a table, |G| quotients
    with `cap` bounding |G|; for the family, a graded average with `cap`
    bounding the p^(2d) grade-1 pairs.
    """
    t0 = time.perf_counter()
    total = G.commutator_centralizer_sum(cap)
    return StatReport("exact", Fraction(total, G.order**3), elapsed_s=time.perf_counter() - t0)


def _mc_chunk_hits(G: Group, k: int, size: int, rng: np.random.Generator) -> int:
    draw = partial(G.sample_batch, rng, size)
    return int(np.count_nonzero(G.trivial_long_commutators(draw, k + 1)))


def dk_monte_carlo(
    G: Group,
    k: int,
    samples: int,
    seed: int = DEFAULT_SEED,
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
    lo, hi = clopper_pearson(hits, samples)
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
    """log of the conjugacy class size, to the base `G.class_log_base`: p for
    family groups, e for table groups.  With an integer base (the family,
    whose class sizes are p^rank) it is the exponent, exact: math.log(5**3, 5)
    is 3.0000000000000004."""
    size, base = G.class_size(g), G.class_log_base
    if isinstance(base, int) and base ** (k := round(math.log(size, base))) == size:
        return float(k)
    return math.log(size, base)


def commutator_set(G: Group, cap: int = COVER_PAIR_CAP) -> list:
    """The full set Comm(G, G) of commutator values, in element order.

    Requires |G|^2 <= cap, which also bounds the enumeration and the class
    labels.  [a, b] = (b^-1)^a b, so Comm(G, G) = {z r^-1 : z in r^G}, a
    union of classes.  Conjugating z r^-1 by the h with r^h = rho, the least
    member of r's class, gives z' rho^-1 with z' = z^h in the same class, so
    Comm(G, G) is the union of the classes of z rho(z)^-1 over z in G: the
    work is |G| quotients and two label lookups, and no class is listed.
    Only the values are built as elements.
    """
    if G.order**2 > cap:
        raise CapExceededError(f"|G|^2 = {G.order ** 2} exceeds cap {cap}")
    elems = G.all_elements(cap)
    labels = G.class_labels(elems, cap)
    hit = np.zeros(G.order, dtype=bool)
    hit[G.class_labels(G.quotients(elems, G.from_indices(labels)), cap)] = True
    return list(G.elements(cap, at=np.flatnonzero(hit[labels])))


def _ball_masks(G: Group, xs, count: int, S: Sequence, n: int) -> np.ndarray:
    """(len(S), count) mask: row j marks the entries x of the stack xs that
    lie in B*S[j], i.e. |(x S[j]^-1)^G| <= n."""
    rows = [G.class_sizes(G.quotients(xs, G.repeat(s, count))) <= n for s in S]
    return np.array(rows, dtype=bool).reshape(len(S), count)


def _element_ball_masks(G: Group, xs: list, S: Sequence, n: int) -> np.ndarray:
    """`_ball_masks` of the element list xs, from one quotient stack and one
    `class_sizes` call per block of about COVER_BLOCK (s, x) pairs."""
    per = max(1, COVER_BLOCK // max(1, len(xs)))
    rows = [np.zeros(0, dtype=bool)]
    for i in range(0, len(S), per):
        block = S[i : i + per]
        quotients = G.quotients(G.stack(xs * len(block)), G.stack([s for s in block for _ in xs]))
        rows.append(G.class_sizes(quotients) <= n)
    return np.concatenate(rows).reshape(len(S), len(xs))


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
    if n < 1:
        raise ValueError("covering bound n must be >= 1")
    S = list(S)
    if mode == "exhaustive":
        comms = commutator_set(G, cap)
        covered = _element_ball_masks(G, comms, S, n).any(axis=0)
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


def covering_minimal_S(G: Group, n: int, cap: int = COVER_PAIR_CAP) -> CoveringWitness:
    """Greedy ball cover of Comm(G,G) by translates B*s with s a commutator
    value; exact minimum confirmed when there are at most EXACT_COVER_BALLS
    distinct balls."""
    if n < 1:
        raise ValueError("covering bound n must be >= 1")
    comms = commutator_set(G, cap)
    universe = set(range(len(comms)))
    masks = _element_ball_masks(G, comms, comms, n)
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
    if len(distinct) <= EXACT_COVER_BALLS:
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

