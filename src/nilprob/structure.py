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
from .fieldlin import FpVector, all_vectors, nullspace, rref
from .groups import TableGroup, _element_indices, _orbit_labels, _power_closure, subgroup_closure

SERIES_CAP = 1 << 12
SUBGROUP_ENUM_CAP = 64


@dataclass
class SeriesReport:
    """A subgroup series as element-index sets, outermost first.

    kinds: "lower-central" (terms[i] = gamma_{i+1}, terms[0] = G),
    "upper-central" (terms[i] = Z_i, terms[0] = {identity}),
    "derived" (terms[i] = i-th derived subgroup, terms[0] = G).
    The series stops at the first term that its step maps to itself.
    """

    kind: str
    terms: list[frozenset[int]]

    @property
    def orders(self) -> list[int]:
        return [len(term) for term in self.terms]

    @property
    def stabilized_at(self) -> int:
        """First index whose term equals all later ones."""
        return len(self.terms) - 1

    def trivial_at(self) -> int | None:
        """Index of the first trivial term; None when there is none."""
        return next((i for i, term in enumerate(self.terms) if len(term) == 1), None)

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


def _fixed_point_series(
    kind: str, start: frozenset[int], step: Callable[[frozenset[int]], frozenset[int]]
) -> SeriesReport:
    """start, step(start), ... up to the first term that step maps to itself."""
    terms = [start]
    while (nxt := step(terms[-1])) != terms[-1]:
        terms.append(nxt)
    return SeriesReport(kind, terms)


def lower_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>, until stabilization."""
    _check_cap(G, cap)
    return _fixed_point_series(
        "lower-central",
        frozenset(G.elements()),
        lambda H: subgroup_closure(G, _commutator_values(G, H, G.elements())),
    )


def upper_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """Z_0 = 1, Z_{i+1}/Z_i = center of G/Z_i, until stabilization."""
    _check_cap(G, cap)
    idx = np.arange(G.order)
    comm = G.commutators(idx[:, None], idx[None, :])

    def step(Z: frozenset[int]) -> frozenset[int]:
        in_z = np.zeros(G.order, dtype=bool)
        in_z[list(Z)] = True
        return frozenset(np.flatnonzero(in_z[comm].all(axis=1)).tolist())

    return _fixed_point_series("upper-central", frozenset({0}), step)


def derived_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """G^(0) = G, G^(i+1) = [G^(i), G^(i)], until stabilization."""
    _check_cap(G, cap)
    return _fixed_point_series("derived", frozenset(G.elements()), lambda H: _derived(G, H))


def _derived(G: TableGroup, H: Iterable[int]) -> frozenset[int]:
    """H' = <[H, H]> for a subgroup H of G, as indices of G."""
    return subgroup_closure(G, _commutator_values(G, H, H))


def derived_subgroup(G: TableGroup) -> frozenset[int]:
    return _derived(G, G.elements())


def nilpotency_class(G: TableGroup, cap: int = SERIES_CAP) -> int | None:
    """Least c with gamma_{c+1} = 1; None when the series stabilizes above 1."""
    return lower_central_series(G, cap).trivial_at()


def derived_length(G: TableGroup, cap: int = SERIES_CAP) -> int | None:
    return derived_series(G, cap).trivial_at()


def _series_term(terms: list[frozenset[int]], i: int) -> frozenset[int]:
    """Term i of a stabilized series (terms stay constant past the end)."""
    return terms[min(i, len(terms) - 1)]


def baer_indices(G: TableGroup, s: int, t: int, cap: int = SERIES_CAP) -> tuple[int, int]:
    """([gamma_s : Z_t cap gamma_s], [gamma_{s+1} : Z_{t-1} cap gamma_{s+1}])."""
    return series_baer_indices(lower_central_series(G, cap), upper_central_series(G, cap), s, t)


def series_baer_indices(
    lower: SeriesReport, upper: SeriesReport, s: int, t: int
) -> tuple[int, int]:
    """`baer_indices` read from already computed lower and upper central series."""
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
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
    if max_l < 1:
        raise ValueError("Engel limit max_l must be >= 1")
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
    x = np.unique(_element_indices(G.order, np.fromiter(X, dtype=np.int64)))
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
    nonzero functionals, one per projective class: the functionals whose
    first nonzero coefficient is 1, in `all_vectors` order)."""
    funcs = all_vectors(p, d)[1:]
    lead = funcs[np.arange(len(funcs)), (funcs != 0).argmax(axis=1)]
    return [nullspace([row], p, d) for row in funcs[lead == 1].tolist()]


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
    B = np.array(rref([v.coords for v in h_basis], p)[0], dtype=np.int64).reshape(-1, d)
    basis = tuple(FpVector(p, tuple(row)) for row in B.tolist())
    codim = d - len(basis)
    if 2 * codim + 1 >= d:
        return ProbeWitness(
            basis, codim, None, None,
            reason=f"need 2*codim + 1 < dim V; got codim {codim}, dim {d}",
        )
    FA, FS = (np.array(f.coeffs, dtype=np.int64) for f in (params.antisymm, params.symm))

    # the first nonzero entry of a form matrix in row-major order
    pairs = np.argwhere(B @ FA @ B.T % p)
    if not len(pairs):
        raise DegenerateFormError(
            "antisymmetric part vanishes on H although 2*codim < dim V; "
            "the driving form is not generic"
        )
    x, w = B[pairs[0]]

    # H1 = H cap ker fS(x, .), solved in H-coordinates
    coeffs = nullspace([(x @ FS @ B.T % p).tolist()], p, len(B))
    H1 = np.array([c.coords for c in coeffs], dtype=np.int64).reshape(-1, len(B)) @ B % p

    pairs = np.argwhere(B @ FS @ H1.T % p)
    if not len(pairs):
        raise DegenerateFormError(
            "symmetric part vanishes on H x H1; the driving form is not generic"
        )
    y, z = B[pairs[0][0]], H1[pairs[0][1]]

    value = int(params.engine.lie4(x[None], y[None], z[None], w[None])[0])
    if value == 0:  # pragma: no cover - the construction forces a nonzero value
        raise DegenerateFormError("constructed witness has zero bracket")
    witnesses = tuple(FpVector(p, tuple(v.tolist())) for v in (x, y, z, w))
    return ProbeWitness(basis, codim, witnesses, value)


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


def neumann_extract(G: TableGroup, norm: Callable[[int], float], C: float) -> NeumannReport:
    """Extract subgroups H and K whose mutual commutators have a small ball
    cover, given that P(norm[a, b] <= C) >= 1/C over G x G."""
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be finite and positive")
    t, inv = G.table, G.inv_table
    norms = np.array([norm(g) for g in range(G.order)], dtype=float)
    idx = np.arange(G.order)
    comm = G.commutators(idx[:, None], idx[None, :])
    small = norms[comm] <= C

    prob = Fraction(int(small.sum()), small.size)
    if prob * C < 1:
        return NeumannReport(False, prob, C)

    # X = {a : P_b(norm[a,b] <= C) >= 1/(2C)}, H = <X>; symmetric for K.
    H = subgroup_closure(G, np.flatnonzero(small.sum(axis=1) * (2 * C) >= G.order))
    K = subgroup_closure(G, np.flatnonzero(small.sum(axis=0) * (2 * C) >= G.order))

    comm_hk = comm[np.ix_(sorted(H), sorted(K))]
    nm = norms[comm_hk]
    D = _measured_level(nm)
    radius = 4 * D + 1

    comm_vals = np.unique(comm_hk).tolist()
    # Greedy maximal separated set: each value in turn becomes a center unless
    # norm(c s^-1) <= radius for a center s already chosen.
    centers: list[int] = []
    for c in comm_vals:
        if all(norms[t[c, inv[s]]] > radius for s in centers):
            centers.append(c)
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
        index_H=G.order // len(H),
        index_K=G.order // len(K),
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


def _double_coset_reps(G: TableGroup, H: frozenset[int]) -> list[int]:
    """Least element of each double coset HgH other than H itself."""
    h = np.array(sorted(H), dtype=np.int64)
    labels = _orbit_labels(np.concatenate([G.table[h], G.table[:, h].T]))
    return np.flatnonzero(labels == np.arange(G.order))[1:].tolist()


def subgroups(G: TableGroup, cap: int = SUBGROUP_ENUM_CAP) -> list[frozenset[int]]:
    """All subgroups, by closure of one-element extensions.

    <H, g> = <H, h g h'> for h, h' in H, so one g per double coset HgH is
    enough.
    """
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds subgroup enumeration cap {cap}")
    trivial = frozenset({0})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            for g in _double_coset_reps(G, H):
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
