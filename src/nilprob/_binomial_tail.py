"""Correctly rounded roots of binomial tails, for Clopper-Pearson bounds.

For X ~ Bin(n, u) and j >= 1,

    P(X >= j) = C(n, j) u^j v^(n-j) S(u),   v = 1 - u,
    S(u) = sum_k t_k,  t_0 = 1,  t_k = t_(k-1) rho_k r,  r = u / v,

with rho_k = (n - j - k + 1) / (j + k): the pmf at j times the tail summed
outward from j.  `tail_root` solves P(X >= j) = tail for u.  A lower
Clopper-Pearson bound for j hits is that u; an upper bound for n - j hits
is 1 - u, since P(Bin(n, 1 - u) <= n - j) = P(X >= j).  It works on g(y) = ln P(X >= j) - ln tail
with y = ln u, which is increasing and concave (the Beta CDF is
log-concave), with g' = j / S and g'' = -j M / (v S^2), M = sum_k k t_k.

Two phases, both Halley steps in y:

- in floats from the Wilson score bound, inside a bracket, until the
  error a step leaves is below 2^-36 (or u stops moving).  ln C(n, j)
  comes from `math.lgamma`, so this phase stops within about 1e-12 of the
  root;
- on a 36-digit decimal u, with g computed to about 1e-26: C(n, j), u^j
  and v^(n-j) in `decimal` (ln k! from a Stirling series above 64), and S
  as the float products t_k plus first-order corrections, carried in
  doubles, for the rounding of rho_k, of r and of each partial product
  (exact two-product error terms), summed with the large parts added
  exactly.  After a step below 2^-36 the third-order error is under
  1e-9 ulp for n up to 10^8, so u (or 1 - u) rounded once to a double is
  the correctly rounded root unless the root lies that close to a tie.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from statistics import NormalDist

import numpy as np

_DEC = Context(prec=36, Emax=MAX_EMAX, Emin=MIN_EMIN)
_HALF_LOG_2PI = Decimal("0.918938533204672741780329736405617639861397473637783")
# B_2i / (2i (2i - 1)): the Stirling series of ln k!, with a term below
# 2e-36 left out at k >= 64
_STIRLING = tuple(_DEC.divide(a, b) for a, b in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156),
    (-3617, 122400), (43867, 244188), (-174611, 125400)))
_STIRLING_FROM = 64
_SPLIT = 134217729.0            # 2^27 + 1: Dekker's splitter for doubles
_TAIL_TOL = 2.0 ** -84          # S is summed until the rest is below this share
_CORRECT_FROM = 2.0 ** -60      # smaller terms are summed without corrections
_STEP_TOL = 2.0 ** -36


def _split(a):
    """a = hi + lo with 26-bit halves, so products of halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, a_parts, b, b_parts):
    """The error e of p = fl(a b): a b = p + e exactly."""
    (ah, al), (bh, bl) = a_parts, b_parts
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _log_factorial(k: int) -> tuple[Decimal, Decimal | int]:
    """(f, e) with ln k! = ln f + e."""
    if k < _STIRLING_FROM:
        return Decimal(math.factorial(k)), 0
    K = Decimal(k)
    inv_square = _DEC.divide(1, _DEC.multiply(K, K))
    s = Decimal(0)
    for c in reversed(_STIRLING):
        s = _DEC.fma(s, inv_square, c)
    return (_DEC.multiply(_DEC.power(K, k), _DEC.sqrt(K)),
            _DEC.add(_DEC.divide(s, K), _DEC.subtract(_HALF_LOG_2PI, k)))


def binomial(n: int, k: int) -> Decimal:
    """C(n, k) to 36 digits."""
    (fn, en), (fa, ea), (fb, eb) = map(_log_factorial, (n, k, n - k))
    return _DEC.multiply(_DEC.divide(fn, _DEC.multiply(fa, fb)),
                         _DEC.exp(_DEC.subtract(en, _DEC.add(ea, eb))))


class _Series:
    """The terms t_1, t_2, ... of S for fixed (n, j), as functions of r."""

    def __init__(self, n: int, j: int, u: float):
        self.n, self.j = n, j
        # t_k falls like exp(-(k gap + k^2 / 2) / sd^2): e^-60 < 2^-84 here
        sd2, gap = n * u * (1 - u), j - n * u
        self._grow(min(n - j, 32 + int(math.sqrt(gap * gap + 120 * sd2) - gap)))

    def _grow(self, size: int) -> None:
        self.k = np.arange(1, size + 1, dtype=float)
        self.rho = ((self.n - self.j + 1) - self.k) / (self.j + self.k)

    def terms(self, r: float):
        """(q, t): the ratios q_k = rho_k r and t = cumprod(q), long enough
        that the terms left out sum to under 2^-84 S."""
        while True:
            q = self.rho * r
            t = np.cumprod(q)
            # rho_k falls, so the rest is at most t_last q_last / (1 - q_last)
            if len(t) == self.n - self.j or (
                    q[-1] < 1 and t[-1] * q[-1] <= _TAIL_TOL * (1 - q[-1]) * (1 + t.sum())):
                return q, t
            self._grow(min(2 * len(t), self.n - self.j))

    def float_sums(self, r: float) -> tuple[float, float]:
        """(S, M) in floats."""
        _, t = self.terms(r)
        return 1 + float(t.sum()), float(self.k @ t)

    def exact_sums(self, r: Decimal) -> tuple[float, float, float]:
        """(S_hi, S_lo, M): S = S_hi + S_lo to about 1e-26 relative."""
        r_hi = float(r)
        r_lo = float(_DEC.subtract(r, Decimal(r_hi)))
        q, t = self.terms(r_hi)
        # t is unimodal (q falls), and S >= 1, so these are its large terms
        size = np.count_nonzero(t > _CORRECT_FROM)
        k, rho, qs, ts = self.k[:size], self.rho[:size], q[:size], t[:size]
        # relative error of each q_k, from the rounding of rho_k, of r and of
        # the product, then of each rounded partial product
        num, den, rho_parts = (self.n - self.j + 1) - k, self.j + k, _split(rho)
        rho_lo = (num - rho * den - _two_prod(rho, rho_parts, den, _split(den))) / den
        rel = (_two_prod(rho, rho_parts, r_hi, _split(r_hi)) + rho * r_lo + rho_lo * r_hi) / qs
        rel[1:] += _two_prod(ts[:-1], _split(ts[:-1]), qs[1:], _split(qs[1:])) / ts[1:]
        fix = ts @ np.expm1(np.cumsum(rel))
        # the high parts are multiples of ulp(sigma) below sigma: they add exactly
        full = np.concatenate(([1.0], t))
        sigma = math.ldexp(1.0, math.frexp(full.max())[1] + len(full).bit_length())
        top = (sigma + full) - sigma
        return float(top.sum()), float((full - top).sum() + fix), float(self.k @ t)


def _halley(g: float, s: float, m: float, v: float, j: int) -> float:
    """The Halley step in y from g, g' = j / S and g'' = -j M / (v S^2)."""
    newton = -g * s / j
    return newton / max(0.5, 1 - newton * m / (2 * v * s))


def tail_root(n: int, j: int, tail: float, binom: Decimal, upper: bool = False) -> float:
    """The double nearest the u with P(Bin(n, u) >= j) = tail, or nearest
    1 - u if `upper`, for 1 <= j <= n and 0 < tail < 1/2; `binom` is
    `binomial(n, j)`."""
    # at u = (j + 1)/(n + 1) the mean is at least j, so P(X >= j) >= 1/2:
    # the root lies below, where every q_k < 1
    lo, hi = 0.0, (j + 1) / (n + 1)
    z = -NormalDist().inv_cdf(tail)
    u = (j + z * z / 2 - z * math.sqrt(j * (n - j) / n + z * z / 4)) / (n + z * z)
    if not lo < u < hi:
        u = hi / 2
    series = _Series(n, j, u)
    log_c = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    log_tail = math.log(tail)
    for _ in range(200):
        v = 1 - u
        s, m = series.float_sums(u / v)
        g = log_c + j * math.log(u) + (n - j) * math.log1p(-u) + math.log(s) - log_tail
        if g > 0:
            hi = u
        else:
            lo = u
        dy = _halley(g, s, m, v, j)
        new = u * math.exp(dy)
        halley = lo < new < hi
        if not halley:
            new = (lo + hi) / 2
        if new == u:
            break
        u = new
        # a Halley step leaves an error of about (g'' dy / g')^2 |dy|
        if halley and (dy * m / (v * s)) ** 2 * abs(dy) <= _STEP_TOL:
            break
    U = Decimal(u)
    for _ in range(8):
        V = _DEC.subtract(1, U)
        s_hi, s_lo, m = series.exact_sums(_DEC.divide(U, V))
        p = _DEC.multiply(_DEC.multiply(binom, _DEC.power(U, j)), _DEC.power(V, n - j))
        p = _DEC.multiply(p, _DEC.add(Decimal(s_hi), Decimal(s_lo)))
        g = math.log1p(float(_DEC.subtract(_DEC.divide(p, Decimal(tail)), 1)))
        dy = _halley(g, s_hi + s_lo, m, float(V), j)
        U = _DEC.fma(U, Decimal(math.expm1(dy)), U)
        if abs(dy) <= _STEP_TOL:
            return float(_DEC.subtract(1, U) if upper else U)
    raise ArithmeticError(f"no binomial tail root for n={n}, j={j}, tail={tail!r}")
