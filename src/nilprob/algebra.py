"""Graded algebra R = R0 + R1 + R2 + R3 + R4 driven by a bilinear form.

R0 = F_p, R1 = V, R2 = V (x) V, R3 = V (identified with R1 by the coordinate
map), R4 = F_p; products landing in grade > 4 vanish.  The generating rules
on pure vectors are

    x * y          = x (x) y                         (R1 x R1 -> R2)
    x * (y (x) z)  = f(y,z) x' + f(x,y) z'           (R1 x R2 -> R3)
    (y (x) z) * x  = f(z,x) y' + f(y,z) x'           (R2 x R1 -> R3)
    x * w' = f(x,w),  w' * x = f(w,x)                (R1 x R3, R3 x R1 -> R4)

where ' marks the R3 copy of a vector; R2 x R2 follows by associativity.
An element is one tuple of digits mod p: c0, then the L1 digits in the
order r1, r2 row-major, r3, c4 (`split_grades` reads the grades back, as
read-only views).  Sums and negations are digitwise; `alg_mul` and
`lie_bracket` are one call each of the engine `_batch.BatchAlg` (shared per
parameter set as `AlgebraParams.engine`) on one-element stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DimensionMismatchError, ParamsMismatchError
from .fieldlin import BilinearForm, FpVector, antisymm_part, hyperbolic_form, symm_part

if TYPE_CHECKING:
    from ._batch import BatchAlg

Matrix = tuple[tuple[int, ...], ...]
Grades = tuple[tuple[int, ...], Matrix, tuple[int, ...], int]   # (r1, r2, r3, c4)


@dataclass(frozen=True)
class AlgebraParams:
    """The driving form on V; its modulus is the prime p and its size the
    dimension d, which are plain attributes because digit loops read them."""

    form: BilinearForm
    p: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", self.form.p)
        object.__setattr__(self, "d", self.form.dim)

    @staticmethod
    def hyperbolic(p: int, n: int) -> "AlgebraParams":
        return AlgebraParams(hyperbolic_form(p, n))

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


def split_grades(d: int, l1: Sequence[int]) -> Grades:
    """(r1, r2, r3, c4) of flat L1 digits, which run r1, r2 row-major, r3, c4.

    With `join_grades` and, for stacks, `BatchAlg.coords` / `from_coords`,
    this is the only code that knows the coordinate order.
    """
    r2 = l1[d : d + d * d]
    rows = tuple(tuple(r2[i : i + d]) for i in range(0, d * d, d))
    return tuple(l1[:d]), rows, tuple(l1[d + d * d : 2 * d + d * d]), l1[-1]


def join_grades(params: AlgebraParams, r1, r2: Matrix, r3, c4: int) -> tuple[int, ...]:
    """The inverse of `split_grades`, checking the dimensions."""
    d = params.d
    if len(r1) != d or len(r3) != d or len(r2) != d or any(len(row) != d for row in r2):
        raise DimensionMismatchError("component dimensions do not match params")
    return (*r1, *(c for row in r2 for c in row), *r3, c4)


class FlatDigits:
    """Digits mod p in one tuple, compared and hashed whole.

    The L1 digits start at `_L1_AT`; `r1`, `r2`, `r3`, `c4` are read-only
    views of them.
    """

    __slots__ = ("params", "digits")
    _L1_AT = 0

    def _set(self, params: AlgebraParams, digits: Iterable[int]) -> None:
        self.params = params
        self.digits = tuple(c % params.p for c in digits)

    @classmethod
    def of(cls, params: AlgebraParams, digits: Iterable[int]):
        """The element with these digits, reduced mod p (no length check)."""
        obj = cls.__new__(cls)
        obj._set(params, digits)
        return obj

    def _grades(self) -> Grades:
        return split_grades(self.params.d, self.digits[self._L1_AT :])

    r1 = property(lambda self: self._grades()[0])
    r2 = property(lambda self: self._grades()[1])
    r3 = property(lambda self: self._grades()[2])
    c4 = property(lambda self: self._grades()[3])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)


class AlgebraElement(FlatDigits):
    """Element of R as one digit tuple: c0, then the L1 digits."""

    __slots__ = ()
    _L1_AT = 1

    def __init__(
        self,
        params: AlgebraParams,
        c0: int,
        r1: tuple[int, ...],
        r2: Matrix,
        r3: tuple[int, ...],
        c4: int,
    ):
        self._set(params, (c0, *join_grades(params, r1, r2, r3, c4)))

    @property
    def c0(self) -> int:
        return self.digits[0]

    @staticmethod
    def zero(params: AlgebraParams) -> "AlgebraElement":
        return AlgebraElement.of(params, (0,) * (1 + params.dim_l1))

    @staticmethod
    def one(params: AlgebraParams) -> "AlgebraElement":
        return AlgebraElement.of(params, (1,) + (0,) * params.dim_l1)

    @staticmethod
    def from_r1(params: AlgebraParams, vec: FpVector) -> "AlgebraElement":
        if vec.p != params.p or vec.dim != params.d:
            raise DimensionMismatchError("vector does not match params")
        z = (0,) * params.d
        return AlgebraElement(params, 0, vec.coords, (z,) * params.d, z, 0)

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
    return AlgebraElement.of(_same_params(a, b), map(add, a.digits, b.digits))


def alg_neg(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement.of(a.params, (-x for x in a.digits))


def alg_sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return alg_add(a, alg_neg(b))


def alg_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Graded product; components of grade > 4 are discarded as zero."""
    eng = _same_params(a, b).engine
    return eng.to_elements(eng.mul(eng.from_elements([a]), eng.from_elements([b])))[0]


def lie_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b] = a*b - b*a."""
    eng = _same_params(a, b).engine
    return eng.to_elements(eng.lie_bracket(eng.from_elements([a]), eng.from_elements([b])))[0]


def basis_elements(params: AlgebraParams) -> list[AlgebraElement]:
    """The graded basis of R: unit, e_i, e_i (x) e_j, e_i', R4 unit (the rows
    of the identity matrix on the digits)."""
    n = 1 + params.dim_l1
    return [AlgebraElement.of(params, (0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]


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
            raise DimensionMismatchError(f"digit {bad} outside [0, {p})")
        return values

    rows = [row.strip() for row in parts[2].split(";")]
    if len(rows) != d:
        raise ValueError(f"expected {d} rows in r2 field")
    (c0,), r1, r3, (c4,) = (digits(parts[i]) for i in (0, 1, 3, 4))
    return AlgebraElement(params, c0, r1, tuple(digits(row) for row in rows), r3, c4)
