"""Multilinear maps over F_p modules, vanishing probability, and
bounded-rank structured-expression certificates.

There is one map type, `MultilinearMap`, evaluated by one vectorized
function: a closure (the family brackets), a coefficient tensor through
`MultilinearMap.from_tensor`, or a sum of terms (`StructuredExpression`).
A structured expression writes a multilinear map as a sum of terms, each
feeding disjoint slot groups through small-codomain inner maps before a
multilinear outer map.  The rank (product of inner codomain sizes) measures
the certificate; small rank forces high vanishing probability.

By multilinearity, verification reads the prod d_i basis tuples, and the
exact bias reads each fibre of the last slot from its d_k basis images.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import AlgebraParams
from .errors import CapExceededError, DimensionMismatchError, ExpressionShapeError
from .fieldlin import FpVector, all_vectors, check_prime, matrix_rank, rank_stack
from .stats import DEFAULT_SEED, StatReport, clopper_pearson

BIAS_ENUM_CAP = 1 << 24
_EVAL_CHUNK = 1 << 16


class MultilinearMap:
    """Multilinear F : F_p^{d_1} x ... x F_p^{d_k} -> F_p^{e}, given by a
    vectorized evaluator `batch_fn(*arrays)` that maps (N, d_i) slot arrays
    to an (N, e) array.  `batch_fn` must be multilinear in every slot:
    verification and the image span read F on basis tuples only, and the
    exact bias reads each fibre of the last slot from its d_k basis images.
    """

    def __init__(
        self,
        p: int,
        dims: tuple[int, ...],
        cod_dim: int,
        batch_fn: Callable[..., np.ndarray],
        name: str = "",
    ):
        check_prime(p)
        if len(dims) < 1 or len(dims) > 4:
            raise ValueError("arity must be between 1 and 4")
        self.p = p
        self.dims = tuple(dims)
        self.cod_dim = cod_dim
        self.batch_fn = batch_fn
        self.name = name

    @property
    def arity(self) -> int:
        return len(self.dims)

    @staticmethod
    def from_tensor(p: int, tensor: np.ndarray, name: str = "") -> "MultilinearMap":
        """The map of a coefficient tensor of shape dims + (e,): a
        `tensordot` with the first slot, then one `einsum` per further slot."""
        check_prime(p)
        tensor = np.asarray(tensor, dtype=np.int64) % p

        def batch(*arrays: np.ndarray) -> np.ndarray:
            cur = np.tensordot(arrays[0] % p, tensor, axes=(1, 0)) % p
            for arr in arrays[1:]:
                cur = np.einsum("nd,nd...->n...", arr % p, cur) % p
            return cur

        return MultilinearMap(p, tensor.shape[:-1], tensor.shape[-1], batch, name=name)

    @staticmethod
    def bilinear_form(p: int, coeffs: Sequence[Sequence[int]], name: str = "") -> "MultilinearMap":
        arr = np.asarray(coeffs, dtype=np.int64)
        return MultilinearMap.from_tensor(p, arr[:, :, None], name=name)

    def eval(self, xs: Sequence[FpVector]) -> FpVector:
        """F at one point, as a one-row `eval_batch`."""
        for x, d in zip(xs, self.dims):
            if x.p != self.p or x.dim != d:
                raise DimensionMismatchError("argument does not match the domain")
        out = self.eval_batch([np.array([x.coords], dtype=np.int64) for x in xs])
        return FpVector(self.p, tuple(out[0].tolist()))

    def eval_batch(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """(N, d_i) arrays in, (N, cod_dim) array out, all mod p."""
        if len(arrays) != self.arity:
            raise DimensionMismatchError(f"expected {self.arity} arguments")
        for arr, d in zip(arrays, self.dims):
            if arr.shape[-1] != d:
                raise DimensionMismatchError(f"slot dim {arr.shape[-1]} != {d}")
        return np.asarray(self.batch_fn(*arrays)) % self.p

    def image_span_dim(self) -> int:
        """Dimension of the span of the image (the subgroup the image
        generates), computed from all basis tuples in one batch."""
        return matrix_rank(self.eval_batch(_basis_tuples(self.dims)[1]).tolist(), self.p)

    def effective_cod_size(self) -> int:
        return self.p ** self.image_span_dim()

    def cod_size(self) -> int:
        return self.p**self.cod_dim

    def __repr__(self) -> str:
        return f"MultilinearMap({self.name or 'anon'}, dims={self.dims}, cod={self.cod_dim})"


@dataclass(frozen=True)
class Term:
    """inners: ((slots, map), ...) over disjoint ascending slot tuples; the
    outer map consumes the inner outputs (in listed order) then the free
    slots in ascending order."""

    inners: tuple[tuple[tuple[int, ...], MultilinearMap], ...]
    outer: MultilinearMap


class StructuredExpression(MultilinearMap):
    """Sum-of-terms certificate for a multilinear map F_p^{dims} -> F_p^{e},
    itself the multilinear map that evaluates the sum."""

    def __init__(self, p: int, dims: tuple[int, ...], cod_dim: int, terms: Sequence[Term]):
        super().__init__(p, dims, cod_dim, self._sum_terms)
        self.terms = tuple(terms)
        for term in self.terms:
            self._validate_term(term)

    def _validate_term(self, term: Term) -> None:
        used: set[int] = set()
        for slots, inner in term.inners:
            if not slots:
                raise ExpressionShapeError("inner slot set must be nonempty")
            if any(s < 0 or s >= len(self.dims) for s in slots):
                raise ExpressionShapeError("slot index out of range")
            if used & set(slots):
                raise ExpressionShapeError("inner slot sets overlap")
            if tuple(sorted(slots)) != tuple(slots):
                raise ExpressionShapeError("slots must be ascending")
            used |= set(slots)
            if inner.p != self.p or inner.dims != tuple(self.dims[s] for s in slots):
                raise DimensionMismatchError("inner map domain mismatch")
        free = tuple(i for i in range(len(self.dims)) if i not in used)
        expected = tuple(inner.cod_dim for _, inner in term.inners) + tuple(
            self.dims[i] for i in free
        )
        if term.outer.p != self.p or term.outer.dims != expected:
            raise DimensionMismatchError(
                f"outer map domain {term.outer.dims} != {expected}"
            )
        if term.outer.cod_dim != self.cod_dim:
            raise DimensionMismatchError("outer codomain mismatch")

    @property
    def rank(self) -> int:
        """Product of inner codomain sizes over all terms."""
        r = 1
        for term in self.terms:
            for _, inner in term.inners:
                r *= inner.cod_size()
        return r

    def free_slots(self, term: Term) -> tuple[int, ...]:
        used = {s for slots, _ in term.inners for s in slots}
        return tuple(i for i in range(len(self.dims)) if i not in used)

    def _sum_terms(self, *arrays: np.ndarray) -> np.ndarray:
        n = arrays[0].shape[0]
        acc = np.zeros((n, self.cod_dim), dtype=np.int64)
        for term in self.terms:
            args = [
                inner.eval_batch([arrays[s] for s in slots]) for slots, inner in term.inners
            ]
            args += [arrays[i] for i in self.free_slots(term)]
            acc = (acc + term.outer.eval_batch(args)) % self.p
        return acc


def _basis_tuples(dims: Sequence[int]) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
    """Every basis tuple (e_i1, ..., e_ik) in `itertools.product` order, as
    the index arrays (i_1, ..., i_k) and the (prod d_i, d_s) slot arrays."""
    idx = np.unravel_index(np.arange(math.prod(dims)), dims)
    return idx, [np.eye(d, dtype=np.int64)[i] for i, d in zip(idx, dims)]


def _iter_grid(p: int, dims: Sequence[int], chunk: int = _EVAL_CHUNK) -> Iterator[list[np.ndarray]]:
    """Every point of the domain in chunks, the last slot counting fastest."""
    tables = [all_vectors(p, d) for d in dims]
    sizes = tuple(len(t) for t in tables)
    total = math.prod(sizes)
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        yield [table[i] for table, i in zip(tables, idx)]


def _enumerates(p: int, dims: Sequence[int], mode: str, cap: int, samples: int) -> bool:
    """Whether the domain is enumerated: mode "exhaustive" does (the
    p^(sum d) domain points must fit the cap), "random" samples, and
    "auto" enumerates under the cap and samples above it."""
    if mode not in ("auto", "exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("need samples >= 1")
    total = p ** sum(dims)
    if mode == "exhaustive" and total > cap:
        raise CapExceededError(f"domain size {total} exceeds cap {cap}")
    return mode == "exhaustive" or (mode == "auto" and total <= cap)


def _sample_chunks(
    p: int, dims: Sequence[int], samples: int, seed: int
) -> Iterator[list[np.ndarray]]:
    """`samples` uniform points, one `rng.integers` call per slot per chunk."""
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _EVAL_CHUNK):
        size = min(_EVAL_CHUNK, samples - start)
        yield [rng.integers(0, p, size=(size, d), dtype=np.int64) for d in dims]


def _fibres(p: int, dims: Sequence[int]) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The domain fibre by fibre, as (fibre count, arrays) chunks.

    A fibre fixes the head slots dims[:-1]; the head points run in
    mixed-radix order, each repeated d_k times beside the identity rows of
    F_p^(d_k), so a chunk of m fibres has m d_k <= _EVAL_CHUNK rows.  A
    multilinear map is linear in its last slot, so these basis images fix
    it on the whole fibre.  With no head slot there is one empty fibre."""
    *head, dk = dims
    basis = np.eye(dk, dtype=np.int64)
    heads = _iter_grid(p, head, max(1, _EVAL_CHUNK // max(dk, 1))) if head else iter([[]])
    for points in heads:
        m = len(points[0]) if points else 1
        yield m, [np.repeat(a, dk, axis=0) for a in points] + [np.tile(basis, (m, 1))]


def _first_difference(
    expr: StructuredExpression, F: MultilinearMap, arrays: Sequence[np.ndarray]
) -> tuple[int, tuple[FpVector, ...]] | None:
    """The first row on which expr and F differ, and its point, if any."""
    bad = np.nonzero((expr.eval_batch(arrays) != F.eval_batch(arrays)).any(axis=1))[0]
    if not bad.size:
        return None
    return int(bad[0]), tuple(FpVector(expr.p, tuple(a[bad[0]].tolist())) for a in arrays)


@dataclass
class VerifyResult:
    """Pointwise comparison of an expression against a multilinear map."""

    exhaustive: bool
    points_checked: int
    counterexample: tuple[FpVector, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.ok


def verify_expression(
    expr: StructuredExpression,
    F: MultilinearMap,
    mode: str = "auto",
    cap: int = BIAS_ENUM_CAP,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
) -> VerifyResult:
    """Check expr(x) == F(x) on the whole domain under the cap, else on
    random points with the sample count reported.

    expr - F is multilinear, so the whole domain is decided by its prod d_i
    basis tuples, in one batch.  A failure is the first failing point in
    mixed-radix order and `points_checked` its index: the first vector
    outside a proper subspace (in `all_vectors` order) is the least basis
    vector outside it, so slot by slot that point is the first failing basis
    tuple (e_i1, ..., e_ik), at index sum_s p^(i_s + d_(s+1) + ... + d_k)."""
    if F.p != expr.p or F.dims != expr.dims or F.cod_dim != expr.cod_dim:
        raise DimensionMismatchError("expression and map domains differ")
    p, dims = expr.p, expr.dims
    if _enumerates(p, dims, mode, cap, samples):
        idx, arrays = _basis_tuples(dims)
        if (hit := _first_difference(expr, F, arrays)) is None:
            return VerifyResult(True, p ** sum(dims))
        row, point = hit
        index = sum(p ** (int(i[row]) + sum(dims[s + 1:])) for s, i in enumerate(idx))
        return VerifyResult(True, index, point)
    checked = 0
    for arrays in _sample_chunks(p, dims, samples, seed):
        if (hit := _first_difference(expr, F, arrays)) is not None:
            return VerifyResult(False, checked + hit[0], hit[1])
        checked += arrays[0].shape[0]
    return VerifyResult(False, checked)


def bias_probability(
    F: MultilinearMap,
    mode: str = "auto",
    cap: int = BIAS_ENUM_CAP,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
) -> StatReport:
    """P(F = 0) over the uniform domain: an exact rational under the cap,
    else a Monte Carlo estimate with a 99% Clopper-Pearson interval.

    The exact value counts zeros fibre by fibre: F is linear in its last
    slot, so a fibre with basis images of rank r holds p^(d_k - r) zeros."""
    t0 = time.perf_counter()
    p = F.p
    if _enumerates(p, F.dims, mode, cap, samples):
        dk = F.dims[-1]
        zeros = 0
        for m, arrays in _fibres(p, F.dims):
            ranks = rank_stack(F.eval_batch(arrays).reshape(m, dk, F.cod_dim), p)
            counts = np.bincount(ranks, minlength=dk + 1)
            zeros += sum(int(c) * p ** (dk - r) for r, c in enumerate(counts))
        total = p ** sum(F.dims)
        return StatReport("exact", Fraction(zeros, total), elapsed_s=time.perf_counter() - t0)
    zeros = sum(int((~F.eval_batch(arrays).any(axis=1)).sum())
                for arrays in _sample_chunks(p, F.dims, samples, seed))
    lo, hi = clopper_pearson(zeros, samples)
    return StatReport(
        "monte-carlo", zeros / samples, ci_low=lo, ci_high=hi, samples=samples,
        seed=seed, elapsed_s=time.perf_counter() - t0,
    )


# Certificates for the family's commutator maps.


def family_quad_map(params: AlgebraParams) -> MultilinearMap:
    """The 4-linear bracket (x, y, z, w) -> [x, y, z, w] into R4."""
    eng, d = params.engine, params.d
    return MultilinearMap(params.p, (d, d, d, d), 1, lambda *xs: eng.lie4(*xs)[:, None],
                          name="quad-bracket")


def family_trilinear_map(params: AlgebraParams) -> MultilinearMap:
    """The 3-linear bracket (x, y, z) -> [x, y, z] into R3 coordinates."""
    d = params.d
    return MultilinearMap(params.p, (d, d, d), d, params.engine.lie3, name="triple-bracket")


def _product_map(p: int, negate: bool = False) -> MultilinearMap:
    val = (p - 1) if negate else 1
    tensor = np.full((1, 1, 1), val, dtype=np.int64)
    return MultilinearMap.from_tensor(p, tensor, name="-uv" if negate else "uv")


def family_quad_expression(params: AlgebraParams) -> StructuredExpression:
    """Two-term rank-p^4 certificate for the quadruple bracket:
    fA(x,w) * fS(y,z) - fA(y,w) * fS(x,z)."""
    p, d = params.p, params.d
    fa = MultilinearMap.bilinear_form(p, params.antisymm.coeffs, name="fA")
    fs = MultilinearMap.bilinear_form(p, params.symm.coeffs, name="fS")
    term_xw = Term(inners=(((0, 3), fa), ((1, 2), fs)), outer=_product_map(p))
    term_yw = Term(inners=(((1, 3), fa), ((0, 2), fs)), outer=_product_map(p, negate=True))
    return StructuredExpression(p, (d, d, d, d), 1, (term_xw, term_yw))


def family_trilinear_expression(params: AlgebraParams) -> StructuredExpression:
    """Three-term certificate for the triple bracket in the shape
    G4(g4(x,y), z) + G5(g5(x,z), y) + G6(g6(y,z), x) with g4 = 0 and
    g5 = g6 = fS feeding scalar multiples of the remaining slot."""
    p, d = params.p, params.d
    fs = MultilinearMap.bilinear_form(p, params.symm.coeffs, name="fS")
    g4 = MultilinearMap.from_tensor(p, np.zeros((d, d, 0), dtype=np.int64), name="0")
    outer4 = MultilinearMap.from_tensor(p, np.zeros((0, d, d), dtype=np.int64), name="G4")
    scale = np.eye(d, dtype=np.int64)[None, :, :]          # (u, v) -> u * v
    outer5 = MultilinearMap.from_tensor(p, (-scale) % p, name="-u*y")
    outer6 = MultilinearMap.from_tensor(p, scale, name="u*x")
    terms = (
        Term(inners=(((0, 1), g4),), outer=outer4),
        Term(inners=(((0, 2), fs),), outer=outer5),
        Term(inners=(((1, 2), fs),), outer=outer6),
    )
    return StructuredExpression(p, (d, d, d), d, terms)


_TRILINEAR_SHAPE = ((0, 1), (0, 2), (1, 2))


def trilinear_lower_bound(expr: StructuredExpression) -> Fraction:
    """Guaranteed floor on P(F = 0) for a trilinear expression of the shape
    G4(g4(x,y), z) + G5(g5(x,z), y) + G6(g6(y,z), x):
    the product of inverse effective inner-codomain sizes.

    Effective size restricts each codomain to the subgroup the inner map's
    image generates.  Any other shape raises, because the bound's
    justification is shape-specific.
    """
    if len(expr.dims) != 3:
        raise ExpressionShapeError("bound applies to trilinear expressions only")
    if len(expr.terms) != 3:
        raise ExpressionShapeError("expected exactly three terms")
    seen = []
    bound = Fraction(1)
    for term in expr.terms:
        if len(term.inners) != 1:
            raise ExpressionShapeError("each term must have exactly one inner map")
        slots, inner = term.inners[0]
        if slots not in _TRILINEAR_SHAPE:
            raise ExpressionShapeError(f"unexpected inner slots {slots}")
        seen.append(slots)
        bound /= inner.effective_cod_size()
    if sorted(seen) != sorted(_TRILINEAR_SHAPE):
        raise ExpressionShapeError("terms must cover the slot pairs (x,y), (x,z), (y,z)")
    return bound
