"""The three workloads: set-up, three timed stages, and output checks.

Every input comes from the workload seed.  Checks run after the timed
stages, with tracing off, and a failed check is counted, never raised.

family-mc        Monte Carlo d2 on the family G = 1 + L1.  Nearly all of
                 its time is `_batch` arithmetic on 65536-element chunks; it
                 does no orbit work.  The p = 3 stage shows whether a fast
                 path for F_2 costs the other primes.
family-exact     Exact and per-element work on fresh family groups: orbit
                 closure in `groups`, scalar `algebra.alg_mul` in the covering
                 balls, and the `bias`/`fieldlin` certificates.  `_batch`
                 runs only on enumerated stacks.
table-structure  The same `stats` entry points reached through Cayley-table
                 groups, plus series, Neumann extraction and the Pareto
                 lattice, which are `groups.subgroup_closure` and `structure`
                 Python loops.  No `_batch` work.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

from nilprob import bias, cli, groups, stats, structure, tables
from nilprob.algebra import AlgebraParams

# Frozen values checked after every round (overridable for the tests).
EXPECTED = {
    "d1_2_1": Fraction(7, 64),
    "d2_2_1": Fraction(65, 128),
    "d2_floor_p2": Fraction(1, 8),
    "pareto": {
        ("d4", "c4"): [(1, 2), (2, 1)],
        ("q8", "c4"): [(1, 2), (2, 1)],
        ("s3", "c8"): [(1, 3), (2, 1)],
        ("d4", "c2"): [(1, 2), (2, 1)],
    },
}

CHECKED_COMMUTATORS = 256


class Checks:
    """Counts attempted and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _is_p_power_dividing(size: int, p: int, order: int) -> bool:
    k = 1
    while k < size:
        k *= p
    return k == size and order % size == 0


def _family_elements(G: groups.AlgebraGroup, rng: np.random.Generator, count: int):
    flat = rng.integers(0, G.params.p, size=(count, G.dim_l1))
    return [groups.GroupElement.from_coords(G.params, [int(v) for v in row]) for row in flat]


class FamilyMC:
    name = "family-mc"
    reference = ("numpy-large",)

    def __init__(self, seed: int, round_index: int, quick: bool, workdir: Path,
                 expected: dict):
        self.expected = expected
        self.round_index = round_index
        self.n = 1 if quick else 2
        self.samples = 2 * stats.MC_CHUNK        # two chunks, so 2 threads share them
        self.p3_samples = stats.MC_CHUNK
        self.mc_seed = int(np.random.default_rng(seed).integers(1 << 31))
        self.threads = (1, 2, 1)

    def setup(self) -> None:
        self.G2 = groups.AlgebraGroup(AlgebraParams.hyperbolic(2, self.n))
        self.G3 = groups.AlgebraGroup(AlgebraParams.hyperbolic(3, self.n))

    def prepare(self) -> None:
        pass

    def stage1(self):
        self.r1 = stats.dk_monte_carlo(self.G2, 2, self.samples, seed=self.mc_seed, threads=1)
        yield "dk_monte_carlo"

    def stage2(self):
        self.r2 = stats.dk_monte_carlo(self.G2, 2, self.samples, seed=self.mc_seed, threads=2)
        yield "dk_monte_carlo"

    def stage3(self):
        self.r3 = stats.dk_monte_carlo(self.G3, 2, self.p3_samples, seed=self.mc_seed, threads=1)
        yield "dk_monte_carlo"

    def extras(self, stage_s: list[float], segments: list[list]) -> dict:
        return {
            "mc_samples_per_s": self.samples / stage_s[0],
            "mc_2t_samples_per_s": self.samples / stage_s[1],
            "mc_p3_samples_per_s": self.p3_samples / stage_s[2],
        }

    def check(self, c: Checks) -> None:
        def key(r):
            return r.value, r.ci_low, r.ci_high

        c.expect("mc estimate equal at 1 and 2 threads", key(self.r1) == key(self.r2),
                 (key(self.r1), key(self.r2)))
        c.expect("mc ci_high >= 1/8 at p=2", self.r1.ci_high >= self.expected["d2_floor_p2"],
                 self.r1.ci_high)
        for r in (self.r1, self.r3):
            c.expect("mc ci brackets estimate", r.ci_low <= r.value <= r.ci_high, key(r))
        # Every round draws the same chunks, so the first round compares them.
        if self.round_index == 0:
            for G, samples in ((self.G2, self.samples), (self.G3, self.p3_samples)):
                self._check_first_commutators(c, G, min(samples, stats.MC_CHUNK))

    def _check_first_commutators(self, c: Checks, G, chunk: int) -> None:
        """Redraw the first MC chunk the way stats does (child stream 0) and
        compare its first commutators with scalar groups.commutator."""
        rng = np.random.default_rng(np.random.SeedSequence(self.mc_seed).spawn(1)[0])
        x = G.sample_batch(rng, chunk)
        y = G.sample_batch(rng, chunk)
        k = CHECKED_COMMUTATORS
        x, y = (type(s)(*(a[:k] for a in s)) for s in (x, y))
        eng = G.batch
        batch = eng.coords(eng.commutator(x, y))
        xs, ys = eng.coords(x), eng.coords(y)
        bad = 0
        for i in range(k):
            gx = groups.GroupElement.from_coords(G.params, [int(v) for v in xs[i]])
            gy = groups.GroupElement.from_coords(G.params, [int(v) for v in ys[i]])
            if groups.commutator(gx, gy).coords() != tuple(int(v) for v in batch[i]):
                bad += 1
        c.expect(f"batch commutators equal scalar at p={G.params.p}", bad == 0,
                 f"{bad}/{k} differ")


class FamilyExact:
    name = "family-exact"
    reference = ("numpy",)

    def __init__(self, seed: int, round_index: int, quick: bool, workdir: Path,
                 expected: dict):
        self.expected = expected
        self.quick = quick
        self.seed, self.round_index = seed, round_index
        self.rng = np.random.default_rng(seed)
        self.pairs_count = 32
        self.queries_count = 5 if quick else 40
        self.threads = (1, 1, 1)

    def setup(self) -> None:
        quick = self.quick
        self.G21 = groups.AlgebraGroup(AlgebraParams.hyperbolic(2, 1))
        self.G22 = groups.AlgebraGroup(AlgebraParams.hyperbolic(2, 1 if quick else 2))
        self.quad_params = [AlgebraParams.hyperbolic(2, 1 if quick else 2)]
        if not quick:
            self.quad_params.append(AlgebraParams.hyperbolic(3, 1))
        self.tri_params = AlgebraParams.hyperbolic(2, 1 if quick else 3)
        self.probe_params = [AlgebraParams.hyperbolic(2, 2 if quick else 3),
                             AlgebraParams.hyperbolic(3, 2)]

    def prepare(self) -> None:
        left = _family_elements(self.G22, self.rng, self.pairs_count)
        right = _family_elements(self.G22, self.rng, self.pairs_count)
        self.pairs = list(zip(left, right))
        # Fresh query elements every round, so a run times distinct elements.
        round_rng = np.random.default_rng([self.seed, self.round_index])
        self.queries = _family_elements(self.G22, round_rng, self.queries_count)
        self.small_pairs = list(zip(_family_elements(self.G21, self.rng, 16),
                                    _family_elements(self.G21, self.rng, 16)))

    def stage1(self):
        G = self.G21
        self.d1 = stats.d1_exact(G)
        yield "d1_exact"
        self.d2 = stats.d2_exact(G)
        yield "d2_exact"
        self.comm21 = stats.commutator_set(G)
        yield "commutator_set"
        self.cover = stats.covering_check(G, 8, [G.identity])
        yield "covering_check"
        self.cover_min = stats.covering_minimal_S(G, 8)
        yield "covering_minimal_S"
        values = {self.G22.commutator(x, y) for x, y in self.pairs}
        self.comm_sizes = {v: self.G22.class_size(v) for v in values}
        yield "commutator_class_sizes"

    def stage2(self):
        self.norms = []
        for g in self.queries:
            self.norms.append(stats.conjugacy_norm(self.G22, g))
            yield "conjugacy_norm"

    def stage3(self):
        self.quad = []
        for params in self.quad_params:
            expr = bias.family_quad_expression(params)
            self.quad.append(bias.verify_expression(
                expr, bias.family_quad_map(params), mode="exhaustive"))
            yield "verify_expression"
        expr = bias.family_trilinear_expression(self.tri_params)
        self.tri_bound = bias.trilinear_lower_bound(expr)
        self.tri = bias.bias_probability(bias.family_trilinear_map(self.tri_params),
                                         mode="exhaustive")
        yield "bias_probability"
        self.probes = []
        for params in self.probe_params:
            self.probes += [structure.class3_subspace_probe(params, h)
                            for h in structure.hyperplanes(params.p, params.d)]
            yield "class3_subspace_probe"

    def extras(self, stage_s: list[float], segments: list[list]) -> dict:
        return {"norm_query_ms": [seconds * 1000.0 for _, seconds, _ in segments[1]]}

    def check(self, c: Checks) -> None:
        G, p = self.G21, 2
        c.expect("d1(2,1)", self.d1.value == self.expected["d1_2_1"], self.d1.value)
        c.expect("d2(2,1)", self.d2.value == self.expected["d2_2_1"], self.d2.value)
        sizes = [size for _, size in G.conjugacy_classes()]
        c.expect("class sizes of (2,1) are p-powers dividing |G|",
                 all(_is_p_power_dividing(s, p, G.order) for s in sizes)
                 and sum(sizes) == G.order, sizes)
        comm = set(self.comm21)
        c.expect("commutator set of (2,1) holds sampled commutators",
                 all(G.commutator(x, y) in comm for x, y in self.small_pairs))
        c.expect("commutator classes of (2,1) have size <= p^3",
                 all(G.class_size(v) <= p**3 for v in comm))
        c.expect("covering n=8 S={1} at (2,1)", self.cover.ok, self.cover.counterexample)
        c.expect("minimal S covers at (2,1)",
                 stats.covering_check(G, 8, self.cover_min.S).ok, self.cover_min.S)
        H = self.G22
        c.expect("commutator class sizes <= p^3 and p-powers dividing |G|",
                 all(s <= p**3 and _is_p_power_dividing(s, p, H.order)
                     for s in self.comm_sizes.values()), sorted(self.comm_sizes.values()))
        exponents = [round(v) for v in self.norms]
        c.expect("conjugacy norms are log_p of p-power class sizes",
                 all(math.isclose(v, e, abs_tol=1e-9) and 0 <= e <= H.dim_l1
                     for v, e in zip(self.norms, exponents)), self.norms[:5])
        c.expect("quad certificate holds exhaustively",
                 all(r.ok and r.exhaustive for r in self.quad),
                 [(r.ok, r.exhaustive) for r in self.quad])
        c.expect("trilinear bias >= lower bound",
                 self.tri.kind == "exact" and self.tri.value >= self.tri_bound,
                 (self.tri.value, self.tri_bound))
        c.expect("probe witness on every hyperplane", all(w.found for w in self.probes),
                 sum(not w.found for w in self.probes))


def _relabel(G: groups.TableGroup, rng: np.random.Generator) -> groups.TableGroup:
    """The same group with its non-identity elements renamed at random."""
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return groups.TableGroup(table, name=G.name)


def _commutators(table: np.ndarray) -> np.ndarray:
    """All commutator values of a Cayley table, computed independently."""
    m = table.shape[0]
    inv = np.argwhere(table == 0)[:, 1]
    a = np.repeat(np.arange(m), m)
    b = np.tile(np.arange(m), m)
    return np.unique(table[table[inv[a], inv[b]], table[a, b]])


class TableStructure:
    name = "table-structure"
    reference = ("python", "numpy")
    NEUMANN_C = "2"
    COVER_N = 2

    def __init__(self, seed: int, round_index: int, quick: bool, workdir: Path,
                 expected: dict):
        self.expected = expected
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        if quick:
            self.products = [("d4", "q8"), ("s3", "c4")]
            self.cli_products = [("s3", "c4")]
            self.pareto_products = [("d4", "c2")]
        else:
            self.products = [("d4", "q8"), ("heis27", "a4"), ("q8", "q8", "c8"),
                             ("a4", "d4", "s3"), ("heis27", "d4", "c4")]
            self.cli_products = [("heis27", "a4"), ("a4", "d4", "s3")]
            self.pareto_products = [("d4", "c4"), ("q8", "c4"), ("s3", "c8")]
        self.mc_samples = 4 * stats.MC_CHUNK
        self.mc_seed = int(self.rng.integers(1 << 31))
        self.threads = (1, 1, 1)

    def setup(self) -> None:
        names = {n for prod in self.products + self.cli_products + self.pareto_products
                 for n in prod}
        self.factors = {n: _relabel(tables.corpus_group(n), self.rng) for n in sorted(names)}
        self.groups = {
            prod: reduce(groups.direct_product, [self.factors[n] for n in prod])
            for prod in dict.fromkeys(self.products + self.cli_products + self.pareto_products)
        }

    def prepare(self) -> None:
        self.paths = []
        for prod in self.cli_products:
            path = self.workdir / f"{'x'.join(prod)}.tbl"
            path.write_text(groups.format_cayley_table(self.groups[prod]))
            self.paths.append(path)

    def stage1(self):
        self.stats = {}
        for prod in self.products:
            G = self.groups[prod]
            res = self.stats[prod] = {}
            res["d1"] = stats.d1_exact(G)
            yield "d1_exact"
            res["d2"] = stats.d2_exact(G)
            yield "d2_exact"
            for k in (2, 3):
                res[f"mc{k}"] = stats.dk_monte_carlo(G, k, self.mc_samples, seed=self.mc_seed,
                                                     threads=1)
                yield "dk_monte_carlo"
            res["comm"] = stats.commutator_set(G)
            yield "commutator_set"
            res["cover"] = stats.covering_minimal_S(G, self.COVER_N)
            yield "covering_minimal_S"

    def stage2(self):
        self.cli_runs = []
        for path in self.paths:
            for argv in (["series", "--table", str(path)],
                         ["neumann", "--table", str(path), "--norm", "conjugacy",
                          "--C", self.NEUMANN_C]):
                out = path.with_suffix(f".{argv[0]}.json")
                code = cli.main(argv + ["--threads", "1", "--output", str(out)])
                self.cli_runs.append((argv[0], path, code, out))
                yield argv[0]

    def stage3(self):
        self.frontiers = {}
        for prod in self.pareto_products:
            self.frontiers[prod] = structure.neumann_pareto(self.groups[prod])
            yield "neumann_pareto"

    def extras(self, stage_s: list[float], segments: list[list]) -> dict:
        return {"neumann_cli_s": sum(s for label, s, _ in segments[1] if label == "neumann")}

    def check(self, c: Checks) -> None:
        for prod, res in self.stats.items():
            G = self.groups[prod]
            fresh = [groups.TableGroup(self.factors[n].table) for n in prod]
            d1 = math.prod(stats.d1_exact(F).value for F in fresh)
            d2 = math.prod(stats.d2_exact(F).value for F in fresh)
            label = "x".join(prod)
            c.expect(f"d1({label}) = product of factors", res["d1"].value == d1,
                     (res["d1"].value, d1))
            c.expect(f"d2({label}) = product of factors", res["d2"].value == d2,
                     (res["d2"].value, d2))
            mc = res["mc2"]
            sigma = math.sqrt(float(d2) * (1 - float(d2)) / mc.samples)
            c.expect(f"mc d2({label}) within 6 sigma of exact",
                     abs(mc.value - float(d2)) <= 6 * sigma + 1.0 / mc.samples,
                     (mc.value, float(d2)))
            values = _commutators(G.table)
            c.expect(f"commutator set of {label}",
                     sorted(res["comm"]) == [int(v) for v in values], len(res["comm"]))
            c.expect(f"minimal S covers commutators of {label}",
                     self._covers(G.table, values, res["cover"].S), res["cover"].S)
        for name, path, code, out in self.cli_runs:
            try:
                payload = json.loads(out.read_text())
                ok = code == 0 and payload["command"] == name and "report" in payload
            except (OSError, ValueError, KeyError) as exc:
                ok, code = False, exc
            c.expect(f"cli {name} on {path.name} exits 0 with JSON", ok, code)
        for prod, frontier in self.frontiers.items():
            want = self.expected["pareto"][prod]
            c.expect(f"pareto frontier of {'x'.join(prod)}", frontier == want, frontier)

    def _covers(self, table: np.ndarray, values: np.ndarray, S: list) -> bool:
        """Every commutator c has some s in S with |class(c s^-1)| <= n."""
        m = table.shape[0]
        inv = np.argwhere(table == 0)[:, 1]
        idx = np.arange(m)
        for c in values:
            if not any(len(np.unique(table[table[inv, table[c, inv[s]]], idx])) <= self.COVER_N
                       for s in S):
                return False
        return True


WORKLOADS = {w.name: w for w in (FamilyMC, FamilyExact, TableStructure)}
