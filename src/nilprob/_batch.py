"""The arithmetic engine: products of graded-algebra elements, on stacks.

This is the only place where products are computed.  The element
operations, `algebra.alg_mul` and `lie_bracket` and the `mul`, `inverse`,
`commutator`, `long_commutator` and `conjugate` of `groups.AlgebraGroup`,
are each one call on one-element stacks, through the engine each
`AlgebraParams` shares as `params.engine`.

Stacks hold one int64 array per grade.  Products go through
`BatchAlg._prod`, the grade 2..4 part of the product of two L1 parts (an
L1 product has no grade-0 or grade-1 part), with its contractions written
as matmuls: the R2 x R2 -> R4 term <A F B, F> is one bilinear form on
flattened d^2 vectors, vec(A) M vec(B) with M[(i,k),(l,j)] = F_kl F_ij.
Products with the constant matrices F and M run in float64 (`_times`),
where numpy has BLAS; they are exact.  Each output component is summed
exactly and reduced mod p once, at the end.

The group operations on L1 stacks (g = 1 + a, h = 1 + b) are closed forms
by grade:

    g h     = 1 + a + b + ab
    g^-1    = 1 + v,  v = -a - a v, solved one grade at a time
    [g, h]  = g^-1 h^-1 g h = 1 + g^-1 h^-1 (ab - ba) = 1 + c + u c

since gh - hg = ab - ba = c.  c = C + c3 + c4 lies in grades >= 2, with
C = a1 b1^T - b1 a1^T, and grades above 4 vanish, so only the grade <= 2
part of g^-1 h^-1 - 1 matters: u1 = -s with s = a1 + b1, and
U = a1 s^T + b1 b1^T - A - B.  With <X,F> = sum_ij X_ij F_ij, u c is

    w3 = -<C,F> s - (s^T F a1) b1 + (s^T F b1) a1
    w4 = -s^T F c3 + <U,F><C,F> + (U F a1)^T F b1 - (U F b1)^T F a1,

and in the last two terms the rank-one part of U leaves
(s^T F a1)(a1^T F b1) - (s^T F b1)(a1^T F a1), the rest is
-vec(A + B) M vec(C).  `commutator` evaluates these terms and no others:
no U matrix and no general product.

A commutator value has no grade-1 part.  For an a with a1 = 0, C = 0
and u c is the one term -b1^T F c3, so [1+a, 1+b] has grades 1 and 2 zero
and

    c3 = A F b1 - b1^T F A
    c4 = a3^T (F - F^T) b1 + vec(A) M_A vec(B) - b1^T F c3,  M_A = M - M^T.

`long_commutator` of two stacks is `commutator`, run in blocks of BLOCK
rows like the steps below.  A longer chain computes only the grades its
later steps read.  Step 2 reads of [1+a, 1+b] only C and the grade-3 part
u3 = c3 + w3, where w3 = (b1^T F s) a1 - (a1^T F s) b1, so step 1 builds
nothing else: no grade-4 terms and no d x d matrix.
Since C = a1 b1^T - b1 a1^T has rank two, step 2, against 1+z, is

    c3' = (b1^T F z1 + z1^T F b1) a1 - (a1^T F z1 + z1^T F a1) b1
    c4' = u3^T (F - F^T) z1 - z1^T F c3' + vec(C) M_A vec(Z),

four dot products where the general step has two batched d x d products,
and vec(C) is formed only on the rows of the cut M_A.  Its value lies in
grades 3 and 4, so every later step has A = 0: c3 = 0 and
c4 = c3_prev^T (F - F^T) w1, which makes every 5-fold commutator 1.
Steps 1 and 2 each run in blocks of BLOCK rows, which keep their
temporaries in cache and bounded.  The chain draws each stack only when
it reaches it: it holds the first two while step 1 runs, then a1, b1 and
u3 (3d columns) and the third stack, then only (c3, c4), d + 1 columns,
while each later stack is drawn.  So the third stack reuses the memory the
first two just freed, and a Monte Carlo tuple of three or more entries is
decided from (c3, c4) alone (`trivial_long_commutator`): no full output
stack is built.

The independent oracle lives in the tests: the structure-constant tensor
of R, built from the generating rules on basis vectors alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraParams

BLOCK = 1 << 12   # rows per long_commutator step (see the module docstring)


class Batch(NamedTuple):
    """N stacked elements: c0 (N,), r1 (N,d), r2 (N,d,d), r3 (N,d), c4 (N,)."""

    c0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    c4: np.ndarray

    @property
    def count(self) -> int:
        return self.c0.shape[0]


def _rows(b: Batch, rows: slice) -> Batch:
    return Batch(*(x[rows] for x in b))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ni,nj->nij", x, y)


def _vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x^T A for every entry of the stack."""
    return (x[:, None, :] @ A)[:, 0]


def _matvec(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for every entry of the stack."""
    return (A @ y[:, :, None])[:, :, 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("nj,nj->n", x, y)


def _times(x: np.ndarray, K: np.ndarray) -> np.ndarray:
    """x K for an int64 stack x and a constant float64 matrix K.  numpy has
    no BLAS path for int64 products; the float64 one is exact here, since
    every entry and sum stays far below 2^53."""
    return (x @ K).astype(np.int64)


def _cut(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M restricted to its nonzero rows and columns (for the hyperbolic form
    at d = 4, the 16 x 16 M keeps 4 rows and 4 columns)."""
    rows, cols = np.flatnonzero(M.any(axis=1)), np.flatnonzero(M.any(axis=0))
    return rows, cols, M[np.ix_(rows, cols)].astype(np.float64)


def _bilinear(X: np.ndarray, Y: np.ndarray, cut: tuple) -> np.ndarray:
    """vec(X) M vec(Y) for every entry of two (N, d^2) stacks; cut = _cut(M)."""
    rows, cols, block = cut
    return _dot(_times(X[:, rows], block), Y[:, cols])


class BatchAlg:
    """Algebra arithmetic over stacks, bound to one parameter set."""

    def __init__(self, params: AlgebraParams):
        self.params = params
        p, d = params.p, params.d
        self.p, self.d = p, d
        F = np.array(params.form.coeffs, dtype=np.int64)
        # The constant matrices are float64 operands of `_times`.
        self.F = F.astype(np.float64)
        self.FS = np.array(params.symm.coeffs, dtype=np.float64)
        self.FA = np.array(params.antisymm.coeffs, dtype=np.float64)
        self.vecF = self.F.reshape(d * d)
        # <A F B, F> = vec(A) M vec(B), and M - M^T gives <AFB - BFA, F>.
        M = np.einsum("kl,ij->iklj", F, F).reshape(d * d, d * d)
        self.M = _cut(M)
        self.MA = _cut((M - M.T) % p)

    def _mod(self, x: np.ndarray) -> np.ndarray:
        # numpy has a fast path for integer floor division by a scalar that
        # its integer `%` lacks (about 3x on int64 stacks).
        return x - x // self.p * self.p

    def zeros(self, n: int) -> Batch:
        d = self.d
        return Batch(
            np.zeros(n, dtype=np.int64),
            np.zeros((n, d), dtype=np.int64),
            np.zeros((n, d, d), dtype=np.int64),
            np.zeros((n, d), dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )

    def from_elements(self, elems: Sequence[AlgebraElement]) -> Batch:
        flat = np.array([e.digits for e in elems], dtype=np.int64)
        flat = flat.reshape(len(elems), 1 + self.params.dim_l1)
        return self.from_coords(flat[:, 1:])._replace(c0=flat[:, 0])

    def to_elements(self, b: Batch) -> list[AlgebraElement]:
        flat = np.concatenate([b.c0[:, None], self.coords(b)], axis=1)
        return [AlgebraElement.of(self.params, row) for row in flat.tolist()]

    def add(self, a: Batch, b: Batch) -> Batch:
        return Batch(*(self._mod(x + y) for x, y in zip(a, b)))

    def sub(self, a: Batch, b: Batch) -> Batch:
        return Batch(*(self._mod(x - y) for x, y in zip(a, b)))

    def _prod(self, a1, A, a3, b1, B, b3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grades 2, 3, 4 of (a1 + A + a3)(b1 + B + b3), unreduced:

            R1 R1               -> R2: a1 b1^T
            R1 R2, R2 R1        -> R3: <B,F> a1 + a1^T F B + <A,F> b1 + A F b1
            R1 R3, R3 R1, R2 R2 -> R4: a1^T F b3 + a3^T F b1 + <A,F><B,F>
                                       + vec(A) M vec(B)
        """
        n, dd, F = len(a1), self.d * self.d, self.F
        Af, Bf = A.reshape(n, dd), B.reshape(n, dd)
        tA, tB = _times(Af, self.vecF), _times(Bf, self.vecF)
        ga = _times(a1, F)
        r3 = tB[:, None] * a1 + tA[:, None] * b1 + _vecmat(ga, B) + _matvec(A, _times(b1, F.T))
        c4 = _dot(ga, b3) + _dot(_times(a3, F), b1) + tA * tB + _bilinear(Af, Bf, self.M)
        return _outer(a1, b1), r3, c4

    def mul(self, a: Batch, b: Batch) -> Batch:
        """(a0 + a')(b0 + b') = a0 b0 + a0 b' + b0 a' + a' b' for any stacks."""
        a0, b0 = a.c0[:, None], b.c0[:, None]
        w2, w3, w4 = self._prod(a.r1, a.r2, a.r3, b.r1, b.r2, b.r3)
        m = self._mod
        return Batch(
            m(a.c0 * b.c0),
            m(a0 * b.r1 + b0 * a.r1),
            m(a0[:, :, None] * b.r2 + b0[:, :, None] * a.r2 + w2),
            m(a0 * b.r3 + b0 * a.r3 + w3),
            m(a.c0 * b.c4 + b.c0 * a.c4 + w4),
        )

    def lie_bracket(self, a: Batch, b: Batch) -> Batch:
        return self.sub(self.mul(a, b), self.mul(b, a))

    # Closed-form brackets on (N, d) vector stacks.

    def lie3(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        fs_yz = _dot(_times(y, self.FS), z)
        fs_xz = _dot(_times(x, self.FS), z)
        return self._mod(fs_yz[:, None] * x - fs_xz[:, None] * y)

    def lie4(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        FS, FA = self.FS, self.FA
        return self._mod(
            _dot(_times(x, FA), w) * _dot(_times(y, FS), z)
            - _dot(_times(y, FA), w) * _dot(_times(x, FS), z)
        )

    # Group operations on L1 stacks (c0 identically 0).

    def grp_mul(self, a: Batch, b: Batch) -> Batch:
        """(1+a)(1+b) = 1 + a + b + ab."""
        w2, w3, w4 = self._prod(a.r1, a.r2, a.r3, b.r1, b.r2, b.r3)
        m = self._mod
        return Batch(
            np.zeros(a.count, dtype=np.int64),
            m(a.r1 + b.r1),
            m(a.r2 + b.r2 + w2),
            m(a.r3 + b.r3 + w3),
            m(a.c4 + b.c4 + w4),
        )

    def grp_inv(self, a: Batch) -> Batch:
        """(1+a)^-1 = 1 + v with v = -a - a v, solved one grade at a time."""
        a1, A, a3 = a.r1, a.r2, a.r3
        v1 = -a1
        V = _outer(a1, a1) - A
        _, w3, w4 = self._prod(a1, A, a3, v1, V, np.zeros_like(a3))
        v3 = -a3 - w3
        # The R1 x R3 term of a v needs v3, so it joins after.
        v4 = -a.c4 - w4 - _dot(_times(a1, self.F), v3)
        m = self._mod
        return Batch(np.zeros(a.count, dtype=np.int64), m(v1), m(V), m(v3), m(v4))

    def commutator(self, a: Batch, b: Batch) -> Batch:
        """[1+a, 1+b] = 1 + c + u c in closed form (see the module docstring)."""
        a1, A, a3, b1, B, b3 = a.r1, a.r2, a.r3, b.r1, b.r2, b.r3
        n, dd, F = a.count, self.d * self.d, self.F
        fa, fb, ga, gb = _times(a1, F.T), _times(b1, F.T), _times(a1, F), _times(b1, F)
        Af, Bf = A.reshape(n, dd), B.reshape(n, dd)
        # c = ab - ba: the <A,F> b1, <B,F> a1 and <A,F><B,F> terms cancel,
        # and the R1 x R3 and R2 x R2 terms pair up into F - F^T and M - M^T.
        C = _outer(a1, b1) - _outer(b1, a1)
        c3 = _vecmat(ga, B) + _matvec(A, fb) - _vecmat(gb, A) - _matvec(B, fa)
        c4 = _dot(ga - fa, b3) + _dot(a3, fb - gb) + _bilinear(Af, Bf, self.MA)
        # u c, from the scalars x^T F y with x, y in {a1, b1, s}.
        s, Df = a1 + b1, Af + Bf
        a_fa, a_fb, b_fa, b_fb = _dot(a1, fa), _dot(a1, fb), _dot(b1, fa), _dot(b1, fb)
        s_fa, s_fb, tC = a_fa + b_fa, a_fb + b_fb, a_fb - b_fa
        tU = a_fa + a_fb + b_fb - _times(Df, self.vecF)
        w3 = s_fb[:, None] * a1 - s_fa[:, None] * b1 - tC[:, None] * s
        w4 = (
            tU * tC + s_fa * a_fb - s_fb * a_fa
            - _bilinear(Df, C.reshape(n, dd), self.M) - _dot(ga + gb, c3)
        )
        m = self._mod
        return Batch(np.zeros(n, dtype=np.int64), np.zeros_like(a1), m(C), m(c3 + w3), m(c4 + w4))

    def _first_step(self, a: Batch, b: Batch) -> np.ndarray:
        """Grade 3 of [1+a, 1+b], c3 + w3, where w3 = (b1^T F s) a1 - (a1^T F s) b1
        with s = a1 + b1; it reads only the grade-1 and grade-2 parts."""
        a1, A, b1, B, F = a.r1, a.r2, b.r1, b.r2, self.F
        fa, fb, ga, gb = _times(a1, F.T), _times(b1, F.T), _times(a1, F), _times(b1, F)
        fs = fa + fb
        c3 = _vecmat(ga, B) + _matvec(A, fb) - _vecmat(gb, A) - _matvec(B, fa)
        return self._mod(c3 + _dot(b1, fs)[:, None] * a1 - _dot(a1, fs)[:, None] * b1)

    def _second_step(self, a1, b1, u3, z: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Grades 3 and 4 of [[1+a, 1+b], 1+z] from a1, b1, the grade-3 part
        u3 of [1+a, 1+b] and z (see the module docstring)."""
        z1, F = z.r1, self.F
        fz, gz = _times(z1, F.T), _times(z1, F)
        hz = fz + gz
        c3 = _dot(b1, hz)[:, None] * a1 - _dot(a1, hz)[:, None] * b1
        # vec(C) on the rows of the cut M_A only, C_ik = a1_i b1_k - b1_i a1_k.
        rows, cols, block = self.MA
        i, k = np.divmod(rows, self.d)
        C = a1[:, i] * b1[:, k] - b1[:, i] * a1[:, k]
        Z = z.r2.reshape(len(z1), self.d * self.d)[:, cols]
        c4 = _dot(u3, fz - gz) - _dot(gz, c3) + _dot(_times(C, block), Z)
        return self._mod(c3), self._mod(c4)

    def _chain(self, draw: Callable[[], Batch], count: int) -> Batch | tuple[np.ndarray, np.ndarray]:
        """Left-normed [1+a_1, ..., 1+a_count] for count >= 2 stacks, each
        taken from `draw()` only when the chain reaches it (see the module
        docstring): the `commutator` stack of two stacks, and the grades 3
        and 4, (c3, c4), of more."""
        if count < 2:
            raise ValueError("long commutator needs at least 2 entries")
        first, second = draw(), draw()
        n, d = first.count, self.d
        blocks = [slice(i, i + BLOCK) for i in range(0, n, BLOCK)]
        if count == 2:
            out = self.zeros(n)
            for rows in blocks:
                step = self.commutator(_rows(first, rows), _rows(second, rows))
                for dst, src in zip(out, step):
                    dst[rows] = src
            return out
        a1, b1, u3 = first.r1, second.r1, np.empty((n, d), dtype=np.int64)
        for rows in blocks:
            u3[rows] = self._first_step(_rows(first, rows), _rows(second, rows))
        del first, second   # free them before the next stack is drawn
        z = draw()
        c3, c4 = np.empty_like(u3), np.empty(n, dtype=np.int64)
        for rows in blocks:
            c3[rows], c4[rows] = self._second_step(a1[rows], b1[rows], u3[rows], _rows(z, rows))
        del a1, b1, u3, z
        for _ in range(count - 3):
            w1 = draw().r1
            c3, c4 = np.zeros_like(c3), self._mod(_dot(c3, _times(w1, self.F.T - self.F)))
        return c3, c4

    def long_commutator(self, stacks: Iterable[Batch]) -> Batch:
        """Left-normed [1+a_1, ..., 1+a_k] for k >= 2 stacks."""
        stacks = list(stacks)
        out = self._chain(iter(stacks).__next__, len(stacks))
        if isinstance(out, Batch):
            return out
        c3, c4 = out
        return self.zeros(len(c4))._replace(r3=c3, c4=c4)

    def trivial_long_commutator(self, draw: Callable[[], Batch], count: int) -> np.ndarray:
        """Which entries of the left-normed commutator of `count` stacks,
        drawn one at a time by `draw()`, are the identity; reads only the
        grades the chain computes."""
        out = self._chain(draw, count)
        if isinstance(out, Batch):
            return self.is_identity(out)
        c3, c4 = out
        return ~c3.any(1) & (c4 == 0)

    def conjugate(self, a: Batch, by: Batch) -> Batch:
        inv = self.grp_inv(by)
        return self.grp_mul(self.grp_mul(inv, a), by)

    def is_identity(self, a: Batch) -> np.ndarray:
        return ~(a.r1.any(1) | a.r2.any((1, 2)) | a.r3.any(1) | (a.c4 != 0))

    def random_l1(self, rng: np.random.Generator, n: int) -> Batch:
        """Uniform over L1: independent uniform digits in every coordinate."""
        d, p = self.d, self.p
        return Batch(
            np.zeros(n, dtype=np.int64),
            rng.integers(0, p, size=(n, d), dtype=np.int64),
            rng.integers(0, p, size=(n, d, d), dtype=np.int64),
            rng.integers(0, p, size=(n, d), dtype=np.int64),
            rng.integers(0, p, size=n, dtype=np.int64),
        )

    # Flat L1 coordinates in the documented order (r1, r2 row-major, r3, c4).

    def coords(self, a: Batch) -> np.ndarray:
        n, d = a.count, self.d
        return np.concatenate(
            [a.r1, a.r2.reshape(n, d * d), a.r3, a.c4[:, None]], axis=1
        )

    def from_coords(self, flat: np.ndarray) -> Batch:
        n, d = flat.shape[0], self.d
        return Batch(
            np.zeros(n, dtype=np.int64),
            flat[:, :d].astype(np.int64),
            flat[:, d : d + d * d].reshape(n, d, d).astype(np.int64),
            flat[:, d + d * d : 2 * d + d * d].astype(np.int64),
            flat[:, -1].astype(np.int64),
        )
