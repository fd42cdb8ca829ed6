"""Structural probes: series, Engel degree, bounded generation, the
quadruple-bracket subspace probe, and subgroup extraction from seminorm
concentration.

Series computations work on Cayley-table groups; the subspace probe works on
the family's vector space V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import AlgebraParams
from .errors import CapExceededError, DegenerateFormError
from .fieldlin import FpVector, form_eval, nullspace, row_space_basis
from .groups import TableGroup, _power_closure, subgroup_closure

SERIES_CAP = 1 << 12
SUBGROUP_ENUM_CAP = 64


@dataclass
class SeriesReport:
    """A subgroup series as element-index sets, outermost first.

    kinds: "lower-central" (terms[i] = gamma_{i+1}, terms[0] = G),
    "upper-central" (terms[i] = Z_i, terms[0] = {identity}),
    "derived" (terms[i] = i-th derived subgroup, terms[0] = G).
    stabilized_at: first index whose term equals all later ones.
    """

    kind: str
    terms: list[frozenset[int]]
    orders: list[int]
    stabilized_at: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "orders": self.orders,
            "stabilized_at": self.stabilized_at,
        }


@dataclass
class ProbeWitness:
    """Outcome of the quadruple-bracket probe on a subspace H <= V."""

    h_basis: tuple[FpVector, ...]
    codimension: int
    witnesses: tuple[FpVector, FpVector, FpVector, FpVector] | None
    bracket_value: int | None
    reason: str | None = None

    @property
    def found(self) -> bool:
        return self.witnesses is not None

    def to_json_dict(self) -> dict:
        out: dict = {"codimension": self.codimension, "found": self.found}
        if self.witnesses is not None:
            out["witnesses"] = [list(v.coords) for v in self.witnesses]
            out["bracket_value"] = self.bracket_value
        else:
            out["reason"] = self.reason
        return out


def _check_cap(G: TableGroup, cap: int) -> None:
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds series cap {cap}")


def _commutator_values(G: TableGroup, sub: Iterable[int], full: Iterable[int]) -> set[int]:
    a = np.fromiter(sub, dtype=np.int64)
    b = np.fromiter(full, dtype=np.int64)
    return set(int(x) for x in np.unique(G.commutators(a[:, None], b[None, :])))


def lower_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>, until stabilization."""
    _check_cap(G, cap)
    everything = frozenset(G.elements())
    terms = [everything]
    while True:
        gens = _commutator_values(G, terms[-1], G.elements())
        nxt = subgroup_closure(G, gens)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesReport(
        "lower-central", terms, [len(s) for s in terms], len(terms) - 1
    )


def upper_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """Z_0 = 1, Z_{i+1}/Z_i = center of G/Z_i, until stabilization."""
    _check_cap(G, cap)
    m = G.order
    idx = np.arange(m)
    comm = G.commutators(idx[:, None], idx[None, :])
    terms = [frozenset({0})]
    while True:
        in_z = np.zeros(m, dtype=bool)
        in_z[list(terms[-1])] = True
        members = frozenset(int(x) for x in idx[in_z[comm].all(axis=1)])
        if members == terms[-1]:
            break
        terms.append(members)
    return SeriesReport(
        "upper-central", terms, [len(s) for s in terms], len(terms) - 1
    )


def derived_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """G^(0) = G, G^(i+1) = [G^(i), G^(i)], until stabilization."""
    _check_cap(G, cap)
    terms = [frozenset(G.elements())]
    while True:
        nxt = _derived(G, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesReport("derived", terms, [len(s) for s in terms], len(terms) - 1)


def _derived(G: TableGroup, H: Iterable[int]) -> frozenset[int]:
    """H' = <[H, H]> for a subgroup H of G, as indices of G."""
    return subgroup_closure(G, _commutator_values(G, H, H))


def derived_subgroup(G: TableGroup) -> frozenset[int]:
    return _derived(G, G.elements())


def nilpotency_class(G: TableGroup, cap: int = SERIES_CAP) -> int | None:
    """Least c with gamma_{c+1} = 1; None when the series stabilizes above 1."""
    series = lower_central_series(G, cap)
    for i, term in enumerate(series.terms):
        if len(term) == 1:
            return i
    return None


def derived_length(G: TableGroup, cap: int = SERIES_CAP) -> int | None:
    series = derived_series(G, cap)
    for i, term in enumerate(series.terms):
        if len(term) == 1:
            return i
    return None


def _series_term(terms: list[frozenset[int]], i: int) -> frozenset[int]:
    """Term i of a stabilized series (terms stay constant past the end)."""
    return terms[min(i, len(terms) - 1)]


def baer_indices(G: TableGroup, s: int, t: int, cap: int = SERIES_CAP) -> tuple[int, int]:
    """([gamma_s : Z_t cap gamma_s], [gamma_{s+1} : Z_{t-1} cap gamma_{s+1}])."""
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    lower = lower_central_series(G, cap)
    upper = upper_central_series(G, cap)
    gamma_s = _series_term(lower.terms, s - 1)
    gamma_s1 = _series_term(lower.terms, s)
    z_t = _series_term(upper.terms, t)
    z_t1 = _series_term(upper.terms, t - 1)
    first = len(gamma_s) // len(z_t & gamma_s)
    second = len(gamma_s1) // len(z_t1 & gamma_s1)
    return first, second


def engel_degree(G: TableGroup, max_l: int = 10) -> int | None:
    """Least l <= max_l with [x, y, y, ..., y] = 1 (y repeated l times) for
    all x, y; None when no such l exists below the limit."""
    m = G.order
    idx = np.arange(m)
    worst = 0
    for y in range(m):
        step = G.commutators(idx, y)                 # x -> [x, y]
        cur = step.copy()                            # [x, 1 y]
        l = 1
        while cur.any() and l < max_l:
            cur = step[cur]
            l += 1
        if cur.any():
            return None
        worst = max(worst, l)
    return worst


def power_closure_radius(G: TableGroup, X: Iterable[int]) -> int:
    """Least r with X^r = X^{r+1} (= <X>) for symmetric X containing 1.

    The radius always satisfies r <= 3 * floor(|G| / |X|).
    """
    x = np.unique(np.fromiter(X, dtype=np.int64))
    if not (x == 0).any():
        raise ValueError("X must contain the identity")
    if not np.isin(G.inv_table[x], x).all():
        raise ValueError("X must be symmetric (closed under inverses)")
    r = _power_closure(G, x)[1]
    bound = 3 * (G.order // len(x))
    if r > bound:
        raise RuntimeError(f"closure radius {r} exceeded 3*floor(|G|/|X|) = {bound}")
    return r


def hyperplanes(p: int, d: int) -> list[list[FpVector]]:
    """Bases of all codimension-1 subspaces of F_p^d (kernels of the
    nonzero functionals, one per projective class)."""
    out = []
    for idx in range(1, p**d):
        digits = []
        rem = idx
        for _ in range(d):
            digits.append(rem % p)
            rem //= p
        first = next(v for v in digits if v)
        if first != 1:
            continue
        out.append(nullspace([digits], p, d))
    return out


def class3_subspace_probe(
    params: AlgebraParams, h_basis: Sequence[FpVector] | None = None
) -> ProbeWitness:
    """Search H for x, y, z, w with nonzero quadruple bracket.

    Follows the constructive route: pick x, w in H with fA(x, w) != 0, pass
    to H1 = H cap ker fS(x, .), then pick y in H and z in H1 with
    fS(y, z) != 0, so the bracket equals fA(x, w) * fS(y, z) != 0.
    """
    p, d = params.p, params.d
    if h_basis is None:
        h_basis = [FpVector.basis(p, d, i) for i in range(d)]
    basis = row_space_basis([v.coords for v in h_basis], p)
    codim = d - len(basis)
    if 2 * codim + 1 >= d:
        return ProbeWitness(
            tuple(basis), codim, None, None,
            reason=f"need 2*codim + 1 < dim V; got codim {codim}, dim {d}",
        )
    fa, fs = params.antisymm, params.symm

    pair = next(
        ((i, j) for i in range(len(basis)) for j in range(len(basis))
         if form_eval(fa, basis[i], basis[j]) != 0),
        None,
    )
    if pair is None:
        raise DegenerateFormError(
            "antisymmetric part vanishes on H although 2*codim < dim V; "
            "the driving form is not generic"
        )
    x, w = basis[pair[0]], basis[pair[1]]

    # H1 = H cap ker fS(x, .), solved in H-coordinates
    row = [form_eval(fs, x, b) for b in basis]
    h1_coords = nullspace([row], p, len(basis))
    h1 = []
    for cvec in h1_coords:
        acc = FpVector.zero(p, d)
        for c, b in zip(cvec.coords, basis):
            acc = acc + b.scale(c)
        h1.append(acc)

    pair2 = next(
        ((i, j) for i in range(len(basis)) for j in range(len(h1))
         if form_eval(fs, basis[i], h1[j]) != 0),
        None,
    )
    if pair2 is None:
        raise DegenerateFormError(
            "symmetric part vanishes on H x H1; the driving form is not generic"
        )
    y, z = basis[pair2[0]], h1[pair2[1]]

    rows = (np.array([v.coords], dtype=np.int64) for v in (x, y, z, w))
    value = int(params.engine.lie4(*rows)[0])
    if value == 0:  # pragma: no cover - the construction forces a nonzero value
        raise DegenerateFormError("constructed witness has zero bracket")
    return ProbeWitness(tuple(basis), codim, (x, y, z, w), value)


# Subgroup extraction from seminorm concentration.


@dataclass
class NeumannReport:
    """Subgroups and ball cover extracted from a concentrated seminorm.

    All constants are measured on the given group, not asserted from theory:
    D is the least level with P(norm[h,k] <= D) >= 1/D rowwise and
    columnwise on H x K; centers form a maximal (4D+1)-separated subset of
    Comm(H, K) in element order, so the radius-(4D+1) balls cover it.
    """

    hypothesis_holds: bool
    hypothesis_probability: Fraction
    C: float
    H: frozenset[int] | None = None
    K: frozenset[int] | None = None
    index_H: int | None = None
    index_K: int | None = None
    D: float | None = None
    radius: float | None = None
    centers: list[int] | None = None
    balls: list[frozenset[int]] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "hypothesis_holds": self.hypothesis_holds,
            "hypothesis_probability": [
                self.hypothesis_probability.numerator,
                self.hypothesis_probability.denominator,
            ],
            "C": self.C,
        }
        if self.hypothesis_holds:
            out.update(
                order_H=len(self.H or ()),
                order_K=len(self.K or ()),
                index_H=self.index_H,
                index_K=self.index_K,
                D=self.D,
                radius=self.radius,
                centers=self.centers,
                ball_count=len(self.centers or ()),
            )
        return out


def discrete_norm(G: TableGroup) -> Callable[[int], float]:
    """0 at the identity, infinity elsewhere."""
    return lambda g: 0.0 if g == 0 else math.inf


def conjugacy_norm_fn(G: TableGroup) -> Callable[[int], float]:
    return lambda g: math.log(G.class_size(g))


def _norm_table(G: TableGroup, norm: Callable[[int], float]) -> np.ndarray:
    return np.array([norm(g) for g in range(G.order)], dtype=float)


def _separated_centers(
    G: TableGroup, norms: np.ndarray, values: list[int], radius: float
) -> list[int]:
    """Greedy maximal separated set: each value in turn becomes a center
    unless norm(c s^-1) <= radius for a center s already chosen, so every
    value lies in the ball of some center."""
    t, inv = G.table, G.inv_table
    centers: list[int] = []
    for c in values:
        if all(norms[t[c, inv[s]]] > radius for s in centers):
            centers.append(c)
    return centers


def neumann_extract(
    G: TableGroup,
    norm: Callable[[int], float],
    C: float,
    A: Iterable[int] | None = None,
    B: Iterable[int] | None = None,
) -> NeumannReport:
    """Extract H <= A and K <= B whose mutual commutators have a small ball
    cover, given that P(norm[a, b] <= C) >= 1/C over A x B."""
    if C <= 0:
        raise ValueError("C must be positive")
    a_list = sorted(set(A)) if A is not None else list(G.elements())
    b_list = sorted(set(B)) if B is not None else list(G.elements())
    t, inv = G.table, G.inv_table
    norms = _norm_table(G, norm)
    a_arr = np.array(a_list, dtype=np.int64)
    b_arr = np.array(b_list, dtype=np.int64)
    comm = G.commutators(a_arr[:, None], b_arr[None, :])
    small = norms[comm] <= C

    total = small.size
    prob = Fraction(int(small.sum()), total)
    if prob * C < 1:
        return NeumannReport(False, prob, C)

    # X = {a : P_b(norm[a,b] <= C) >= 1/(2C)}, H = <X>; symmetric for K.
    row_frac = small.sum(axis=1)
    X = [a for a, hits in zip(a_list, row_frac) if hits * 2 * C >= len(b_list)]
    col_frac = small.sum(axis=0)
    Y = [b for b, hits in zip(b_list, col_frac) if hits * 2 * C >= len(a_list)]
    H = subgroup_closure(G, X)
    K = subgroup_closure(G, Y)

    h_arr = np.array(sorted(H), dtype=np.int64)
    k_arr = np.array(sorted(K), dtype=np.int64)
    comm_hk = G.commutators(h_arr[:, None], k_arr[None, :])
    nm = norms[comm_hk]
    D = _measured_level(nm)
    radius = 4 * D + 1

    comm_vals = np.unique(comm_hk).tolist()
    centers = _separated_centers(G, norms, comm_vals, radius)
    balls = [
        frozenset(c for c in comm_vals if norms[t[c, inv[s]]] <= radius) for s in centers
    ]
    if frozenset().union(*balls) != frozenset(comm_vals):
        raise RuntimeError("maximal separated set failed to cover")

    return NeumannReport(
        True,
        prob,
        C,
        H=H,
        K=K,
        index_H=len(a_list) // len(H),
        index_K=len(b_list) // len(K),
        D=D,
        radius=radius,
        centers=centers,
        balls=balls,
    )


def _measured_level(norm_matrix: np.ndarray) -> float:
    """Least D with P(value <= D) >= 1/D along every row and column."""
    finite = np.unique(norm_matrix[np.isfinite(norm_matrix)])
    best = math.inf
    n_rows, n_cols = norm_matrix.shape
    for i, v in enumerate(finite):
        le = norm_matrix <= v
        frac = min(le.sum(axis=1).min() / n_cols, le.sum(axis=0).min() / n_rows)
        if frac == 0:
            continue
        candidate = max(float(v), 1.0 / frac)
        upper = float(finite[i + 1]) if i + 1 < len(finite) else math.inf
        if candidate < upper or math.isclose(candidate, float(v)):
            best = min(best, candidate)
    if not math.isfinite(best):
        raise DegenerateFormError("no finite concentration level exists")
    return best


@dataclass
class ConverseReport:
    """Measured concentration implied by a ball cover of Comm(H, K)."""

    cover_ok: bool
    cover_size: int
    index_H: int
    index_K: int
    probability: Fraction        # P over G x G of norm([a, b]) <= 2C
    floor: Fraction              # the guaranteed 1/C^3 when cover_ok


def neumann_converse(
    G: TableGroup,
    norm: Callable[[int], float],
    C: float,
    H: Iterable[int],
    K: Iterable[int],
) -> ConverseReport:
    """Measure P(norm[a, b] <= 2C) given subgroups of index <= C whose
    mutual commutators admit a greedy cover by <= C balls of radius C."""
    norms = _norm_table(G, norm)
    h_arr = np.array(sorted(set(H)), dtype=np.int64)
    k_arr = np.array(sorted(set(K)), dtype=np.int64)
    comm_hk = G.commutators(h_arr[:, None], k_arr[None, :])
    centers = _separated_centers(G, norms, np.unique(comm_hk).tolist(), C)
    index_H = G.order // len(h_arr)
    index_K = G.order // len(k_arr)
    cover_ok = len(centers) <= C and index_H <= C and index_K <= C

    idx = np.arange(G.order)
    comm_all = G.commutators(idx[:, None], idx[None, :])
    hits = int((norms[comm_all] <= 2 * C).sum())
    prob = Fraction(hits, G.order**2)
    floor = Fraction(1, math.ceil(C**3)) if C >= 1 else Fraction(0)
    return ConverseReport(cover_ok, len(centers), index_H, index_K, prob, floor)


def subgroups(G: TableGroup, cap: int = SUBGROUP_ENUM_CAP) -> list[frozenset[int]]:
    """All subgroups, by closure of one-element extensions."""
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds subgroup enumeration cap {cap}")
    trivial = frozenset({0})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            for g in G.elements():
                if g in H:
                    continue
                K = subgroup_closure(G, set(H) | {g})
                if K not in found:
                    found.add(K)
                    fresh.append(K)
        frontier = fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def neumann_pareto(G: TableGroup, cap: int = SUBGROUP_ENUM_CAP) -> list[tuple[int, int]]:
    """Pareto frontier of ([G:H], |H'|) over all subgroups H."""
    pairs = set()
    for H in subgroups(G, cap):
        pairs.add((G.order // len(H), len(_derived(G, H))))
    frontier = [
        p for p in pairs
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    ]
    return sorted(frontier)
