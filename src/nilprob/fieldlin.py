"""Exact linear algebra over small prime fields F_p (p in {2, 3, 5, 7}).

Scalars are plain ints reduced to [0, p); vectors and bilinear forms carry
the modulus.  All values are immutable after construction.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError

SUPPORTED_PRIMES = (2, 3, 5, 7)
_SMALL_F2_STACK = 2   # F_2 stacks up to this many matrices eliminate on Python ints


def check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; expected one of {SUPPORTED_PRIMES}")


@dataclass(frozen=True)
class FpVector:
    """Vector over F_p with coordinates stored as a tuple of residues."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        if any(not 0 <= c < self.p for c in self.coords):
            object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def basis(p: int, dim: int, i: int) -> "FpVector":
        return FpVector(p, tuple(1 if j == i else 0 for j in range(dim)))


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear form f(x, y) = sum_ij x_i coeffs[i][j] y_j over F_p."""

    p: int
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        d = len(self.coeffs)
        if any(len(row) != d for row in self.coeffs):
            raise DimensionMismatchError("form coefficient array must be square")
        if any(not 0 <= c < self.p for row in self.coeffs for c in row):
            object.__setattr__(
                self, "coeffs", tuple(tuple(c % self.p for c in row) for row in self.coeffs)
            )

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def from_rows(p: int, rows: Sequence[Sequence[int]]) -> "BilinearForm":
        return BilinearForm(p, tuple(tuple(c % p for c in row) for row in rows))


def form_eval(f: BilinearForm, x: FpVector, y: FpVector) -> int:
    """Evaluate f(x, y) mod p."""
    if x.p != f.p or y.p != f.p or x.dim != f.dim or y.dim != f.dim:
        raise DimensionMismatchError(
            f"form_eval: form is F_{f.p}^{f.dim}, got vectors of dim {x.dim}/{y.dim}"
        )
    rows = zip(x.coords, f.coeffs)
    return sum(xi * c * yj for xi, row in rows if xi for c, yj in zip(row, y.coords)) % f.p


def symm_part(f: BilinearForm) -> BilinearForm:
    """f^S(x, y) = f(x, y) + f(y, x)."""
    F = np.array(f.coeffs, dtype=np.int64)
    return BilinearForm.from_rows(f.p, ((F + F.T) % f.p).tolist())


def antisymm_part(f: BilinearForm) -> BilinearForm:
    """f^A(x, y) = f(x, y) - f(y, x)."""
    F = np.array(f.coeffs, dtype=np.int64)
    return BilinearForm.from_rows(f.p, ((F - F.T) % f.p).tolist())


def hyperbolic_form(p: int, n: int) -> BilinearForm:
    """Form on F_p^(2n) with f(e_i, e'_j) = delta_ij and all other basis pairings 0.

    Coordinates are ordered (e_1 .. e_n, e'_1 .. e'_n).
    """
    check_prime(p)
    if n < 1:
        raise ValueError("hyperbolic_form requires n >= 1")
    return BilinearForm.from_rows(p, np.eye(2 * n, k=n, dtype=np.int64).tolist())


def all_vectors(p: int, d: int) -> np.ndarray:
    """All p^d vectors of F_p^d as rows, counting in little-endian digits
    (row k has digits k mod p, k // p mod p, ...); one empty row at d = 0."""
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack(np.unravel_index(np.arange(p**d), (p,) * d)[::-1], axis=1)


# Row reduction helpers (dense, exact, small dimensions).


def rref(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    work = [[c % p for c in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], p - 2, p) if p > 2 else 1
        work[r] = [c * inv % p for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                m = work[i][col]
                work[i] = [(a - m * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def matrix_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    if not rows:
        return 0
    return len(rref(rows, p)[0])


def pivot_rows(mats: np.ndarray, p: int) -> np.ndarray:
    """The (N, r) mask of pivot rows mod p of a stack (N, r, c) of matrices,
    by one elimination loop over columns that steps every matrix at once.

    Each column's pivot is the first unused row with a nonzero entry; it is
    marked used, not swapped up, and changes only unused rows below it.  So
    used rows and earlier columns are never read again (nor kept up to
    date), and a row is used iff it is not in the span of the rows above
    it: the used rows among the first k number rank(first k rows).

    At p = 2 the rows are packed into uint64 words (bit j of word w is
    column 64 w + j) and a column step XORs the pivot row into every row
    with that bit, the pivot row included: that zeroes it, so a used row is
    never a candidate again and the mask is the same as the int8 loop's.

    That column loop costs about ten numpy calls per column, which is nearly
    all of a one-matrix call.  So an F_2 stack of at most _SMALL_F2_STACK
    matrices instead turns each packed row into one Python int and inserts
    the rows, in order, into an XOR basis keyed by leading bit: a row is
    marked used iff it is still nonzero after reduction by the basis, i.e.
    iff it is not in the span of the rows above it, the same mask.  Per
    call, column loop -> ints, best of 5 x 200 calls on a 2-vCPU Xeon VM:

        (N, r, c)                  loop      ints
        (1, 20, 17)  (2,2) ad     174 us    35 us
        (1, 39, 37)  (2,3) ad     401 us    42 us
        (1, 7, 5)    random        78 us    10 us
        (1, 37, 39)  random       465 us    60 us
        (2, 20, 17)  (2,2) ad     135 us    30 us
        (2, 37, 39)  random       596 us   106 us
        (16, 20, 17) (2,2) ad     158 us   203 us
        (8, 64, 64)  random       733 us   840 us

    The ints cost grows with N and the loop's barely does, so larger stacks
    keep the column loop."""
    check_prime(p)
    mats = np.asarray(mats)
    n, nrows, ncols = mats.shape
    used = np.zeros((n, nrows), dtype=bool)
    idx = np.arange(n)
    if p == 2:
        # rows padded to whole bytes, so that packing the flat array packs each row
        nbytes = -(-ncols // 8)
        bits = np.zeros((n, nrows, 8 * nbytes), dtype=np.uint8)
        # mats % 2, negative entries included; integer stacks are not copied
        bits[:, :, :ncols] = mats.astype(np.int64, copy=False) & 1
        flat = np.packbits(bits, axis=None, bitorder="little")
        if n <= _SMALL_F2_STACK:
            data = flat.tobytes()
            for k in range(n):
                basis: dict[int, int] = {}   # leading bit -> the basis row with it
                for r in range(nrows):
                    start = (k * nrows + r) * nbytes
                    v = int.from_bytes(data[start : start + nbytes], "little")
                    while v and (top := v.bit_length()) in basis:
                        v ^= basis[top]
                    if v:
                        basis[top] = v
                        used[k, r] = True
            return used
        packed = np.zeros((n, nrows, -(-nbytes // 8) * 8), dtype=np.uint8)
        packed[:, :, :nbytes] = flat.reshape(n, nrows, nbytes)
        rows = packed.view("<u8")
        for col in range(ncols):
            candidates = (rows[:, :, col // 64] & np.uint64(1 << col % 64)) != 0
            if not candidates.any():
                continue
            pivot = candidates.argmax(axis=1)
            used[idx, pivot] |= candidates[idx, pivot]
            rows ^= rows[idx, pivot][:, None, :] * candidates[:, :, None]
        return used
    # int8 holds every intermediate: entries and factors lie in [0, p), p <= 7
    a = (mats % p).astype(np.int8, order="C")
    inverse = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int8)
    for col in range(ncols):
        column = a[:, :, col]
        candidates = (column != 0) & ~used
        has = candidates.any(axis=1)
        if not has.any():
            continue
        pivot = candidates.argmax(axis=1)
        used[idx[has], pivot[has]] = True
        rest = a[:, :, col + 1 :]
        pivot_row = rest[idx, pivot]
        factors = column * inverse[column[idx, pivot]][:, None] % p * candidates
        rest -= factors[:, :, None] * pivot_row[:, None, :]
        rest %= p
    return used


def rank_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a stack (N, r, c): its pivot rows on the short side."""
    a = np.asarray(mats)
    return pivot_rows(a.transpose(0, 2, 1) if a.shape[2] > a.shape[1] else a, p).sum(axis=1)


def nullspace(rows: Sequence[Sequence[int]], p: int, ncols: int) -> list[FpVector]:
    """Basis of {y : rows @ y = 0} over F_p."""
    if not rows:
        return [FpVector.basis(p, ncols, i) for i in range(ncols)]
    reduced, pivots = rref(rows, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-reduced[r][free]) % p
        basis.append(FpVector(p, tuple(vec)))
    return basis


# Form file I/O.  Text format: line 1 "p d", then d lines of d residues.
# The keyword "hyperbolic:p:n" is accepted wherever a form file is accepted.


def parse_form(text: str) -> BilinearForm:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("form file must start with 'p d'")
    try:
        p, d = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"bad form header: {exc}") from exc
    check_prime(p)
    if d < 1:
        raise ValueError("form dimension must be >= 1")
    if len(tokens) != 2 + d * d:
        raise ValueError(f"form file needs {d * d} entries, found {len(tokens) - 2}")
    try:
        entries = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise ValueError(f"bad form entry: {exc}") from exc
    if any(not 0 <= e < p for e in entries):
        raise ValueError("form entries must lie in [0, p)")
    rows = [entries[i * d : (i + 1) * d] for i in range(d)]
    return BilinearForm.from_rows(p, rows)


def load_form(source: "str | Path | io.TextIOBase") -> BilinearForm:
    """Load a form from a path, file object, or 'hyperbolic:p:n' keyword."""
    if isinstance(source, str) and source.startswith("hyperbolic:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ValueError("expected hyperbolic:p:n")
        return hyperbolic_form(int(parts[1]), int(parts[2]))
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    return parse_form(text)
