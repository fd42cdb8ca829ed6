"""Multilinear maps over F_p modules, vanishing probability, and
bounded-rank structured-expression certificates.

A structured expression writes a multilinear map as a sum of terms, each
feeding disjoint slot groups through small-codomain inner maps before a
multilinear outer map.  The rank (product of inner codomain sizes) measures
the certificate; small rank forces high vanishing probability.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import AlgebraParams
from .errors import CapExceededError, DimensionMismatchError, ExpressionShapeError
from .fieldlin import FpVector, check_prime, matrix_rank
from .stats import DEFAULT_SEED, StatReport, clopper_pearson

BIAS_ENUM_CAP = 1 << 24
_EVAL_CHUNK = 1 << 16


class MultilinearMap:
    """Multilinear F : F_p^{d_1} x ... x F_p^{d_k} -> F_p^{e}.

    Backed either by a dense coefficient tensor of shape dims + (e,) or by a
    vectorized closed-form evaluator.
    """

    def __init__(
        self,
        p: int,
        dims: tuple[int, ...],
        cod_dim: int,
        tensor: np.ndarray | None = None,
        batch_fn: Callable[..., np.ndarray] | None = None,
        name: str = "",
    ):
        check_prime(p)
        if len(dims) < 1 or len(dims) > 4:
            raise ValueError("arity must be between 1 and 4")
        if (tensor is None) == (batch_fn is None):
            raise ValueError("exactly one of tensor / batch_fn must be given")
        if tensor is not None:
            tensor = np.asarray(tensor, dtype=np.int64) % p
            if tensor.shape != tuple(dims) + (cod_dim,):
                raise DimensionMismatchError(
                    f"tensor shape {tensor.shape} != {tuple(dims) + (cod_dim,)}"
                )
        self.p = p
        self.dims = tuple(dims)
        self.cod_dim = cod_dim
        self.tensor = tensor
        self.batch_fn = batch_fn
        self.name = name

    @property
    def arity(self) -> int:
        return len(self.dims)

    @staticmethod
    def from_tensor(p: int, tensor: np.ndarray, name: str = "") -> "MultilinearMap":
        tensor = np.asarray(tensor)
        return MultilinearMap(
            p, tuple(tensor.shape[:-1]), tensor.shape[-1], tensor=tensor, name=name
        )

    @staticmethod
    def bilinear_form(p: int, coeffs: Sequence[Sequence[int]], name: str = "") -> "MultilinearMap":
        arr = np.asarray(coeffs, dtype=np.int64)
        return MultilinearMap.from_tensor(p, arr[:, :, None], name=name)

    def _check_args(self, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) != self.arity:
            raise DimensionMismatchError(f"expected {self.arity} arguments")
        for arr, d in zip(arrays, self.dims):
            if arr.shape[-1] != d:
                raise DimensionMismatchError(f"slot dim {arr.shape[-1]} != {d}")

    def eval(self, xs: Sequence[FpVector]) -> FpVector:
        for x, d in zip(xs, self.dims):
            if x.p != self.p or x.dim != d:
                raise DimensionMismatchError("argument does not match map domain")
        out = self.eval_batch([np.array([x.coords], dtype=np.int64) for x in xs])
        return FpVector(self.p, tuple(int(v) for v in out[0]))

    def eval_batch(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """(N, d_i) arrays in, (N, cod_dim) array out, all mod p."""
        self._check_args(arrays)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(*arrays)) % self.p
        cur = np.tensordot(arrays[0] % self.p, self.tensor, axes=(1, 0)) % self.p
        for arr in arrays[1:]:
            cur = np.einsum("nd,nd...->n...", arr % self.p, cur) % self.p
        return cur

    def image_span_dim(self) -> int:
        """Dimension of the span of the image (the subgroup the image
        generates), computed from all basis tuples."""
        rows = []
        for combo in _cartesian(*(range(d) for d in self.dims)):
            arrays = [
                np.eye(d, dtype=np.int64)[[i]] for i, d in zip(combo, self.dims)
            ]
            rows.append([int(v) for v in self.eval_batch(arrays)[0]])
        if not rows or self.cod_dim == 0:
            return 0
        return matrix_rank(rows, self.p)

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


class StructuredExpression:
    """Sum-of-terms certificate for a multilinear map F_p^{dims} -> F_p^{e}."""

    def __init__(self, p: int, dims: tuple[int, ...], cod_dim: int, terms: Sequence[Term]):
        check_prime(p)
        self.p = p
        self.dims = tuple(dims)
        self.cod_dim = cod_dim
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

    def eval_batch(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if len(arrays) != len(self.dims):
            raise DimensionMismatchError("argument count mismatch")
        n = arrays[0].shape[0]
        acc = np.zeros((n, self.cod_dim), dtype=np.int64)
        for term in self.terms:
            args = [
                inner.eval_batch([arrays[s] for s in slots]) for slots, inner in term.inners
            ]
            args += [arrays[i] for i in self.free_slots(term)]
            acc = (acc + term.outer.eval_batch(args)) % self.p
        return acc

    def to_json_dict(self) -> dict:
        terms = []
        for term in self.terms:
            terms.append(
                {
                    "inners": [
                        {
                            "slots": list(slots),
                            "cod_dim": inner.cod_dim,
                            "coeffs": None if inner.tensor is None else inner.tensor.tolist(),
                        }
                        for slots, inner in term.inners
                    ],
                    "outer_coeffs": None if term.outer.tensor is None else term.outer.tensor.tolist(),
                }
            )
        return {"p": self.p, "dims": list(self.dims), "cod_dim": self.cod_dim,
                "rank": self.rank, "terms": terms}


def evaluate_expression(expr: StructuredExpression, xs: Sequence[FpVector]) -> FpVector:
    arrays = [np.array([x.coords], dtype=np.int64) for x in xs]
    for x, d in zip(xs, expr.dims):
        if x.p != expr.p or x.dim != d:
            raise DimensionMismatchError("argument does not match expression domain")
    return FpVector(expr.p, tuple(int(v) for v in expr.eval_batch(arrays)[0]))


def _domain_size(p: int, dims: Sequence[int]) -> int:
    return p ** sum(dims)


def _all_vectors(p: int, d: int) -> np.ndarray:
    """All p^d vectors as rows, counting in little-endian digits."""
    count = p**d
    idx = np.arange(count)
    cols = []
    for _ in range(d):
        cols.append(idx % p)
        idx = idx // p
    return np.stack(cols, axis=1).astype(np.int64) if d else np.zeros((count, 0), np.int64)


def _iter_grid(p: int, dims: Sequence[int], chunk: int = _EVAL_CHUNK) -> Iterator[list[np.ndarray]]:
    tables = [_all_vectors(p, d) for d in dims]
    sizes = [t.shape[0] for t in tables]
    total = math.prod(sizes)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        arrays = []
        rem = idx
        for size, table in zip(reversed(sizes), reversed(tables)):
            arrays.append(table[rem % size])
            rem = rem // size
        arrays.reverse()
        yield arrays


def _domain_chunks(
    p: int, dims: Sequence[int], mode: str, cap: int, samples: int, seed: int
) -> tuple[bool, Iterator[list[np.ndarray]]]:
    """Whether the domain is enumerated, and its points in chunks.

    mode "exhaustive" enumerates (the domain must fit the cap), "random"
    draws `samples` uniform points, one `rng.integers` call per slot per
    chunk, and "auto" enumerates under the cap and samples above it.
    """
    if mode not in ("auto", "exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    total = _domain_size(p, dims)
    if mode == "exhaustive" and total > cap:
        raise CapExceededError(f"domain size {total} exceeds cap {cap}")
    if mode == "exhaustive" or (mode == "auto" and total <= cap):
        return True, _iter_grid(p, dims)
    if samples < 1:
        raise ValueError("need samples >= 1")
    rng = np.random.default_rng(seed)
    sizes = [min(_EVAL_CHUNK, samples - start) for start in range(0, samples, _EVAL_CHUNK)]
    return False, (
        [rng.integers(0, p, size=(size, d), dtype=np.int64) for d in dims] for size in sizes
    )


@dataclass
class VerifyResult:
    """Pointwise comparison of an expression against a multilinear map."""

    ok: bool
    exhaustive: bool
    points_checked: int
    counterexample: tuple[FpVector, ...] | None = None

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
    """Check expr(x) == F(x): exhaustively under the cap, else on random
    points with the sample count reported."""
    if F.p != expr.p or F.dims != expr.dims or F.cod_dim != expr.cod_dim:
        raise DimensionMismatchError("expression and map domains differ")
    exhaustive, chunks = _domain_chunks(expr.p, expr.dims, mode, cap, samples, seed)
    checked = 0
    for arrays in chunks:
        lhs = expr.eval_batch(arrays)
        rhs = F.eval_batch(arrays)
        bad = np.nonzero((lhs != rhs).any(axis=1))[0]
        if bad.size:
            i = int(bad[0])
            point = tuple(FpVector(expr.p, tuple(int(v) for v in arr[i])) for arr in arrays)
            return VerifyResult(False, exhaustive, checked + i, point)
        checked += arrays[0].shape[0]
    return VerifyResult(True, exhaustive, checked)


def bias_probability(
    F: MultilinearMap,
    mode: str = "auto",
    cap: int = BIAS_ENUM_CAP,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
) -> StatReport:
    """P(F = 0) over the uniform domain: exact rational by enumeration, or a
    Monte Carlo estimate with a 99% Clopper-Pearson interval."""
    t0 = time.perf_counter()
    exhaustive, chunks = _domain_chunks(F.p, F.dims, mode, cap, samples, seed)
    zeros = sum(int((~F.eval_batch(arrays).any(axis=1)).sum()) for arrays in chunks)
    if exhaustive:
        total = _domain_size(F.p, F.dims)
        return StatReport("exact", Fraction(zeros, total), elapsed_s=time.perf_counter() - t0)
    lo, hi = clopper_pearson(zeros, samples)
    return StatReport(
        "monte-carlo", zeros / samples, ci_low=lo, ci_high=hi, samples=samples,
        seed=seed, elapsed_s=time.perf_counter() - t0,
    )


# Certificates for the family's commutator maps.


def family_quad_map(params: AlgebraParams) -> MultilinearMap:
    """The 4-linear bracket (x, y, z, w) -> [x, y, z, w] into R4."""
    eng = params.engine
    d = params.d

    def batch(x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return eng.lie4(x, y, z, w)[:, None]

    return MultilinearMap(params.p, (d, d, d, d), 1, batch_fn=batch, name="quad-bracket")


def family_trilinear_map(params: AlgebraParams) -> MultilinearMap:
    """The 3-linear bracket (x, y, z) -> [x, y, z] into R3 coordinates."""
    eng = params.engine
    d = params.d

    def batch(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return eng.lie3(x, y, z)

    return MultilinearMap(params.p, (d, d, d), d, batch_fn=batch, name="triple-bracket")


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
