"""Structural probes: series, Engel degree, bounded generation, the
quadruple-bracket subspace probe, subgroup extraction from seminorm
concentration, and the subgroup lattice with its Pareto frontier.

All but the subspace probe work on Cayley-table groups, with subgroups as
boolean rows; the subspace probe works on the family's vector space V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import groups
from .algebra import AlgebraParams
from .errors import CapExceededError, DegenerateFormError
from .fieldlin import FpVector, all_vectors, nullspace, rref
from .groups import TableGroup, _element_indices, _power_closure, subgroup_closure

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

    def trivial_at(self) -> int | None:
        """Index of the first trivial term; None when there is none."""
        return next((i for i, term in enumerate(self.terms) if len(term) == 1), None)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "orders": self.orders,
            "stabilized_at": len(self.terms) - 1,   # the first term equal to all later ones
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


def _commutator_subgroup(G: TableGroup, H: np.ndarray, K: np.ndarray) -> np.ndarray:
    """<[H, K]> as a boolean row, for boolean rows H and K of G: the values of
    H x K in the commutator table, marked in one row (np.unique would import
    numpy.ma) and closed."""
    hit = np.zeros(G.order, dtype=bool)
    hit[G.commutator_table[np.ix_(H, K)]] = True
    return groups._generated(G, np.flatnonzero(hit))[0]


def _fixed_point_series(
    kind: str, start: np.ndarray, step: Callable[[np.ndarray], np.ndarray]
) -> SeriesReport:
    """start, step(start), ... up to the first term that step maps to itself;
    the terms stay boolean rows until the report is built."""
    terms = [start]
    while not np.array_equal(nxt := step(terms[-1]), terms[-1]):
        terms.append(nxt)
    return SeriesReport(kind, [frozenset(np.flatnonzero(t).tolist()) for t in terms])


def lower_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>, until stabilization."""
    _check_cap(G, cap)
    every = np.ones(G.order, dtype=bool)
    return _fixed_point_series("lower-central", every, lambda H: _commutator_subgroup(G, H, every))


def upper_central_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """Z_0 = 1, Z_{i+1}/Z_i = center of G/Z_i, until stabilization."""
    _check_cap(G, cap)
    comm, trivial = G.commutator_table, np.arange(G.order) == 0
    return _fixed_point_series("upper-central", trivial, lambda Z: Z[comm].all(axis=1))


def derived_series(G: TableGroup, cap: int = SERIES_CAP) -> SeriesReport:
    """G^(0) = G, G^(i+1) = [G^(i), G^(i)], until stabilization."""
    _check_cap(G, cap)
    every = np.ones(G.order, dtype=bool)
    return _fixed_point_series("derived", every, lambda H: _commutator_subgroup(G, H, H))


def derived_subgroup(G: TableGroup) -> frozenset[int]:
    every = np.ones(G.order, dtype=bool)
    return frozenset(np.flatnonzero(_commutator_subgroup(G, every, every)).tolist())


def _series_term(terms: list[frozenset[int]], i: int) -> frozenset[int]:
    """Term i of a stabilized series (terms stay constant past the end)."""
    return terms[min(i, len(terms) - 1)]


def baer_indices(lower: SeriesReport, upper: SeriesReport, s: int, t: int) -> tuple[int, int]:
    """([gamma_s : Z_t cap gamma_s], [gamma_{s+1} : Z_{t-1} cap gamma_{s+1}]),
    read from a group's lower and upper central series."""
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
    comm = G.commutator_table
    worst = 0
    for y in range(G.order):
        cur = step = comm[:, y]                      # x -> [x, y], and [x, 1 y]
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
    row = np.zeros((1, G.order), dtype=bool)
    row[0, _element_indices(G.order, np.fromiter(X, dtype=np.int64))] = True
    x = np.flatnonzero(row)
    if not row[0, 0]:
        raise ValueError("X must contain the identity")
    if not row[0, G.inv_table[x]].all():
        raise ValueError("X must be symmetric (closed under inverses)")
    r = _power_closure(G, row, x[None])[1]
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
    comm = G.commutator_table
    small = norms[comm] <= C

    prob = Fraction(int(small.sum()), small.size)
    if prob * C < 1:
        return NeumannReport(False, prob, C)

    # X = {a : P_b(norm[a,b] <= C) >= 1/(2C)}, H = <X>; symmetric for K.
    H = subgroup_closure(G, np.flatnonzero(small.sum(axis=1) * (2 * C) >= G.order))
    K = subgroup_closure(G, np.flatnonzero(small.sum(axis=0) * (2 * C) >= G.order))

    comm_hk = comm[np.ix_(sorted(H), sorted(K))]
    hit = np.zeros(G.order, dtype=bool)
    hit[comm_hk] = True
    D = _measured_level(norms, comm_hk, hit)
    radius = 4 * D + 1

    comm_vals = np.flatnonzero(hit).tolist()
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


def _measured_level(norms: np.ndarray, comm: np.ndarray, hit: np.ndarray) -> float:
    """Least D with P(norms[comm] <= D) >= 1/D along every row and column of
    the element matrix comm, whose entries are the elements marked in hit.

    The levels are the distinct finite norms of the marked elements.  Each
    entry of comm is replaced by the index of the first level its norm does
    not exceed (past the last for an infinite norm), so one bincount over
    rows and one over columns, summed cumulatively, count the entries at or
    below every level at once.
    """
    marked = norms[hit]
    levels = np.sort(marked[np.isfinite(marked)])
    levels = levels[np.diff(levels, prepend=-math.inf) > 0]   # np.unique would import numpy.ma
    n_rows, n_cols = comm.shape
    n = len(levels) + 1   # level indices, the last for no level
    index = np.searchsorted(levels, norms)[comm]
    by_row = np.bincount((index + n * np.arange(n_rows)[:, None]).ravel(), minlength=n * n_rows)
    by_col = np.bincount((index + n * np.arange(n_cols)).ravel(), minlength=n * n_cols)
    # entries at or below each level, least over the rows and over the columns
    row_le = by_row.reshape(n_rows, n).cumsum(axis=1).min(axis=0)
    col_le = by_col.reshape(n_cols, n).cumsum(axis=1).min(axis=0)
    best = math.inf
    for i, v in enumerate(levels):
        frac = min(row_le[i] / n_cols, col_le[i] / n_rows)
        if frac == 0:
            continue
        candidate = max(float(v), 1.0 / frac)
        upper = float(levels[i + 1]) if i + 1 < len(levels) else math.inf
        if candidate < upper or math.isclose(candidate, float(v)):
            best = min(best, candidate)
    if not math.isfinite(best):
        raise DegenerateFormError("no finite concentration level exists")
    return best


def _row_blocks(n_rows: int, row_entries: int) -> Iterator[slice]:
    """Slices covering range(n_rows), each of at least one row and of about
    `groups._TABLE_BLOCK_ENTRIES` entries at row_entries entries a row."""
    rows = max(1, groups._TABLE_BLOCK_ENTRIES // row_entries)
    return (slice(i, i + rows) for i in range(0, n_rows, rows))


def _double_coset_reps(G: TableGroup, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, reps): the least element reps[k] of each double coset H g H
    other than H itself, for H the subgroup in row rows[k] of the boolean
    matrix M; rows ascending, and each row's reps ascending.

    Two masked minima through the table: R[i, y] = min over h in H of h y is
    the least element of H y, and min over h in H of R[i, g h] is the least
    element of H g H.  Both make a len(M) x |G| x |G| temporary.
    """
    m, t = G.order, G.table
    by_row = M[:, :, None]   # the masked minima run over axis 1, the rows h of H
    least = np.min(np.broadcast_to(t, (len(M), m, m)), axis=1, where=by_row, initial=m)
    least = np.min(least[:, t.T], axis=1, where=by_row, initial=m)
    reps = least == np.arange(m)
    reps[:, 0] = False   # the double coset H itself
    return np.nonzero(reps)


def subgroups(G: TableGroup, cap: int = SUBGROUP_ENUM_CAP) -> list[frozenset[int]]:
    """All subgroups, ordered by size and then by sorted element list.

    The subgroups are found a frontier at a time, from the trivial one: the
    frontier is a boolean matrix with one row per subgroup first found at the
    previous level, and each row carries the generators it was found from.
    The next level extends every row H by one g per double coset H g H other
    than H (<H, g> = <H, h g h'> for h, h' in H; `_double_coset_reps`),
    closes all candidates H u {g} in one `groups._power_closure` call, each
    under right multiplication by the generators of H and g, and keeps the
    new subgroups by their row bytes.  Each extension at least doubles the
    order, so there are at most log2 |G| levels and generators.  The
    frontier is taken in row blocks of about `groups._TABLE_BLOCK_ENTRIES`
    entries of the rows x |G| x |G| coset temporaries.
    """
    if G.order > cap:
        raise CapExceededError(f"|G| = {G.order} exceeds subgroup enumeration cap {cap}")
    m = G.order
    frontier = np.zeros((1, m), dtype=bool)
    frontier[0, 0] = True
    gens = np.zeros((1, 0), dtype=np.int64)   # each frontier row's generators
    found = {frontier.tobytes()}
    while len(frontier):
        fresh, fresh_gens = [], []
        for block in _row_blocks(len(frontier), m * m):
            rows, reps = _double_coset_reps(G, frontier[block])
            cand = frontier[block][rows]
            cand[np.arange(len(rows)), reps] = True
            cand_gens = np.column_stack([gens[block][rows], reps])
            data = _power_closure(G, cand, cand_gens)[0].tobytes()
            for k in range(len(rows)):
                key = data[k * m : (k + 1) * m]
                if key not in found:
                    found.add(key)
                    fresh.append(key)
                    fresh_gens.append(cand_gens[k])
        frontier = np.frombuffer(b"".join(fresh), dtype=bool).reshape(-1, m)
        gens = np.array(fresh_gens, dtype=np.int64).reshape(len(fresh), gens.shape[1] + 1)
    member = np.frombuffer(b"".join(found), dtype=bool).reshape(-1, m)
    elements = np.nonzero(member)[1].tolist()
    ends = np.cumsum(member.sum(axis=1)).tolist()
    subs = [frozenset(elements[a:b]) for a, b in zip([0, *ends], ends)]
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def neumann_pareto(G: TableGroup, cap: int = SUBGROUP_ENUM_CAP) -> list[tuple[int, int]]:
    """Pareto frontier of ([G:H], |H'|) over all subgroups H.

    H' is found for every subgroup at once, a block of subgroups at a time:
    the commutator-table values of H x H are marked in one row per subgroup,
    and the rows are closed in one `groups._power_closure` call, each under
    right multiplication by its own marked elements.  The blocks hold about
    `groups._TABLE_BLOCK_ENTRIES` entries of the rows x |G| x |G| pair masks.
    """
    subs = subgroups(G, cap)
    m, comm = G.order, G.commutator_table
    member = np.zeros((len(subs), m), dtype=bool)
    member[np.repeat(np.arange(len(subs)), [len(H) for H in subs]),
           np.fromiter(chain.from_iterable(subs), dtype=np.int64)] = True
    pairs = set()
    for block in _row_blocks(len(subs), m * m):
        M = member[block]
        hit = np.zeros_like(M)
        flat = comm + np.arange(0, M.size, m)[:, None, None]   # value [h, k] in row i
        hit.reshape(-1)[flat[M[:, :, None] & M[:, None, :]]] = True
        # each row's marked elements, in order, padded with the identity 0
        first = np.argsort(~hit, axis=1, kind="stable")[:, : hit.sum(axis=1).max()]
        gens = np.where(np.take_along_axis(hit, first, axis=1), first, 0)
        derived = _power_closure(G, hit, gens)[0].sum(axis=1)
        pairs.update(zip((m // M.sum(axis=1)).tolist(), derived.tolist()))
    frontier = [
        p for p in pairs
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    ]
    return sorted(frontier)
