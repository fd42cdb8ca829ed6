"""Graded algebra R = R0 + R1 + R2 + R3 + R4 driven by a bilinear form.

R0 = F_p, R1 = V, R2 = V (x) V, R3 = V (identified with R1 by the coordinate
map), R4 = F_p; products landing in grade > 4 vanish.  The generating rules
on pure vectors are

    x * y          = x (x) y                         (R1 x R1 -> R2)
    x * (y (x) z)  = f(y,z) x' + f(x,y) z'           (R1 x R2 -> R3)
    (y (x) z) * x  = f(z,x) y' + f(y,z) x'           (R2 x R1 -> R3)
    x * w' = f(x,w),  w' * x = f(w,x)                (R1 x R3, R3 x R1 -> R4)

where ' marks the R3 copy of a vector; R2 x R2 follows by associativity.
This module keeps elements as exact tuples.  Their products are computed
by the one arithmetic engine, `_batch.BatchAlg` (shared per parameter set
as `AlgebraParams.engine`), on one-element stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, ParamsMismatchError
from .fieldlin import BilinearForm, FpVector, antisymm_part, check_prime, hyperbolic_form, symm_part

if TYPE_CHECKING:
    from ._batch import BatchAlg

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AlgebraParams:
    """Prime p, vector space dimension d, and the driving form on V."""

    p: int
    d: int
    form: BilinearForm

    def __post_init__(self) -> None:
        check_prime(self.p)
        if self.form.p != self.p:
            raise DimensionMismatchError("form modulus does not match params")
        if self.form.dim != self.d:
            raise DimensionMismatchError("form dimension does not match params")

    @staticmethod
    def hyperbolic(p: int, n: int) -> "AlgebraParams":
        return AlgebraParams(p, 2 * n, hyperbolic_form(p, n))

    @property
    def dim_l1(self) -> int:
        """Dimension of L1 = R1 + R2 + R3 + R4."""
        return self.d * self.d + 2 * self.d + 1

    @cached_property
    def symm(self) -> BilinearForm:
        return symm_part(self.form)

    @cached_property
    def antisymm(self) -> BilinearForm:
        return antisymm_part(self.form)

    @cached_property
    def engine(self) -> "BatchAlg":
        """The arithmetic engine for these parameters, shared by every caller."""
        from ._batch import BatchAlg  # _batch imports this module

        return BatchAlg(self)


def _zero_matrix(d: int) -> Matrix:
    return tuple((0,) * d for _ in range(d))


class AlgebraElement:
    """Element of R with components (c0, r1, r2, r3, c4), all reduced mod p."""

    __slots__ = ("params", "c0", "r1", "r2", "r3", "c4", "_hash")

    def __init__(
        self,
        params: AlgebraParams,
        c0: int,
        r1: tuple[int, ...],
        r2: Matrix,
        r3: tuple[int, ...],
        c4: int,
    ):
        d, p = params.d, params.p
        if len(r1) != d or len(r3) != d or len(r2) != d or any(len(row) != d for row in r2):
            raise DimensionMismatchError("component dimensions do not match params")
        self.params = params
        self.c0 = c0 % p
        self.r1 = tuple(c % p for c in r1)
        self.r2 = tuple(tuple(c % p for c in row) for row in r2)
        self.r3 = tuple(c % p for c in r3)
        self.c4 = c4 % p
        self._hash: int | None = None

    @staticmethod
    def zero(params: AlgebraParams) -> "AlgebraElement":
        d = params.d
        z = (0,) * d
        return AlgebraElement(params, 0, z, _zero_matrix(d), z, 0)

    @staticmethod
    def one(params: AlgebraParams) -> "AlgebraElement":
        d = params.d
        z = (0,) * d
        return AlgebraElement(params, 1, z, _zero_matrix(d), z, 0)

    @staticmethod
    def from_r1(params: AlgebraParams, vec: FpVector) -> "AlgebraElement":
        if vec.p != params.p or vec.dim != params.d:
            raise DimensionMismatchError("vector does not match params")
        d = params.d
        return AlgebraElement(params, 0, vec.coords, _zero_matrix(d), (0,) * d, 0)

    @staticmethod
    def from_r3(params: AlgebraParams, vec: FpVector) -> "AlgebraElement":
        if vec.p != params.p or vec.dim != params.d:
            raise DimensionMismatchError("vector does not match params")
        d = params.d
        return AlgebraElement(params, 0, (0,) * d, _zero_matrix(d), vec.coords, 0)

    def components(self) -> tuple[int, tuple[int, ...], Matrix, tuple[int, ...], int]:
        return (self.c0, self.r1, self.r2, self.r3, self.c4)

    def grade_components_zero(self, grades: tuple[int, ...]) -> bool:
        """True when every listed graded component vanishes."""
        checks = {
            0: self.c0 == 0,
            1: all(c == 0 for c in self.r1),
            2: all(c == 0 for row in self.r2 for c in row),
            3: all(c == 0 for c in self.r3),
            4: self.c4 == 0,
        }
        return all(checks[g] for g in grades)

    def is_zero(self) -> bool:
        return self.grade_components_zero((0, 1, 2, 3, 4))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.params == other.params and self.components() == other.components()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.c0, self.r1, self.r2, self.r3, self.c4))
        return self._hash

    def __repr__(self) -> str:
        return f"AlgebraElement({to_text(self)!r})"

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_sub(self, other)

    def __neg__(self) -> "AlgebraElement":
        return alg_neg(self)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_mul(self, other)


def _same_params(a: AlgebraElement, b: AlgebraElement) -> AlgebraParams:
    if a.params != b.params:
        raise ParamsMismatchError("elements belong to different algebras")
    return a.params


def alg_add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    params = _same_params(a, b)
    p, d = params.p, params.d
    return AlgebraElement(
        params,
        (a.c0 + b.c0) % p,
        tuple((x + y) % p for x, y in zip(a.r1, b.r1)),
        tuple(tuple((a.r2[i][j] + b.r2[i][j]) % p for j in range(d)) for i in range(d)),
        tuple((x + y) % p for x, y in zip(a.r3, b.r3)),
        (a.c4 + b.c4) % p,
    )


def alg_neg(a: AlgebraElement) -> AlgebraElement:
    p, d = a.params.p, a.params.d
    return AlgebraElement(
        a.params,
        -a.c0 % p,
        tuple(-x % p for x in a.r1),
        tuple(tuple(-a.r2[i][j] % p for j in range(d)) for i in range(d)),
        tuple(-x % p for x in a.r3),
        -a.c4 % p,
    )


def alg_sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return alg_add(a, alg_neg(b))


def alg_scale(a: AlgebraElement, c: int) -> AlgebraElement:
    p, d = a.params.p, a.params.d
    c %= p
    return AlgebraElement(
        a.params,
        a.c0 * c % p,
        tuple(x * c % p for x in a.r1),
        tuple(tuple(a.r2[i][j] * c % p for j in range(d)) for i in range(d)),
        tuple(x * c % p for x in a.r3),
        a.c4 * c % p,
    )


def alg_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Graded product; components of grade > 4 are discarded as zero."""
    eng = _same_params(a, b).engine
    return eng.to_elements(eng.mul(eng.from_elements([a]), eng.from_elements([b])))[0]


def lie_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b] = a*b - b*a."""
    return alg_sub(alg_mul(a, b), alg_mul(b, a))


def basis_elements(params: AlgebraParams) -> list[AlgebraElement]:
    """The graded basis of R: unit, e_i, e_i (x) e_j, e_i', R4 unit."""
    d = params.d
    out = [AlgebraElement.one(params)]
    for i in range(d):
        out.append(AlgebraElement.from_r1(params, FpVector.basis(params.p, d, i)))
    for i in range(d):
        for j in range(d):
            r2 = tuple(
                tuple(1 if (a, b) == (i, j) else 0 for b in range(d)) for a in range(d)
            )
            out.append(AlgebraElement(params, 0, (0,) * d, r2, (0,) * d, 0))
    for i in range(d):
        out.append(AlgebraElement.from_r3(params, FpVector.basis(params.p, d, i)))
    z = (0,) * d
    out.append(AlgebraElement(params, 0, z, _zero_matrix(d), z, 1))
    return out


# Text serialization: "c0 | r1 | r2 rows ; separated | r3 | c4", digits in
# base 10 separated by spaces.  Example (d = 2): "1 | 0 1 | 0 0 ; 1 0 | 0 0 | 1".


def to_text(a: AlgebraElement) -> str:
    r2_text = " ; ".join(" ".join(str(c) for c in row) for row in a.r2)
    return " | ".join(
        [
            str(a.c0),
            " ".join(str(c) for c in a.r1),
            r2_text,
            " ".join(str(c) for c in a.r3),
            str(a.c4),
        ]
    )


def from_text(params: AlgebraParams, text: str) -> AlgebraElement:
    parts = [part.strip() for part in text.split("|")]
    if len(parts) != 5:
        raise ValueError("element text must have 5 '|'-separated fields")
    d, p = params.d, params.p

    def digits(field: str) -> tuple[int, ...]:
        values = tuple(int(t) for t in field.split())
        bad = next((v for v in values if not 0 <= v < p), None)
        if bad is not None:
            raise ValueError(f"digit {bad} outside [0, {p})")
        return values

    rows = [row.strip() for row in parts[2].split(";")]
    if len(rows) != d:
        raise ValueError(f"expected {d} rows in r2 field")
    (c0,), r1, r3, (c4,) = (digits(parts[i]) for i in (0, 1, 3, 4))
    return AlgebraElement(params, c0, r1, tuple(digits(row) for row in rows), r3, c4)
