"""Group arithmetic: the class-4 family G = 1 + L1 and Cayley-table groups.

A family element 1 + a is one tuple, the L1 digits of a, in the layout
that engine stacks use (`BatchAlg.coords` / `from_coords`), so elements
and stacks share one coordinate layout.  Each element operation of
`AlgebraGroup` (`mul`, `inverse`, `commutator`, `long_commutator`,
`conjugate`) is one call of the shared engine `params.engine` on one-row
stacks.  The module function `commutator` is the one composition kept:
g^-1 h^-1 g h from the engine's `grp_inv` and `grp_mul`, the definitional
reference for the engine's closed-form commutator.  Family class sizes
come from linear algebra: 1+t commutes with 1+a exactly when at = ta, so
the centralizer of 1+a is 1 + ker(ad_a) and its class has p^rank(ad_a)
elements, where ad_a = [a, .] on L1.
Conjugation by a fixed element is linear on L1, so each family generator
contributes one matrix; `conjugacy_orbit` closes one orbit under these
matrices, which works past the enumeration cap.
Cayley-table groups are validated on load, exactly, by a proof that the
table is a group (entries in range, a two-sided identity, a 0 in every row,
then Light's test over a generating set), which reads a copy of the table
in its narrowest unsigned dtype; rows and columns are checked for
permutations only when the proof fails, to name the failure.  Table groups
cache their inverse array; every table commutator is one gather from an
m x m commutator table, built on first use by flat gathers in cache-sized
row blocks, and a chain of commutators stays in the table's narrow dtype.

Conjugacy classes of both types come from one pass, `_orbit_labels`, over
the permutations of the enumerated elements that conjugation by each
generator induces: every element is labelled by the least index in its
class.  Both group types share a set of stack operations (`all_elements`,
`from_indices`, `repeat`, `stack`, `commutators`,
`trivial_long_commutators`, `quotients`, `class_labels`, `class_sizes`,
`sample_batch`) and the sum behind d2, `commutator_centralizer_sum` (|G|
quotients for tables, a graded average over grade-1 pairs for the family),
so statistics are written once for both.  A stack
is a `Batch` of L1-parts for the family and an index array for tables.
"""

from __future__ import annotations

import io
import math
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._batch import BLOCK, Batch, BatchAlg
from .algebra import AlgebraElement, AlgebraParams, FlatDigits
from .errors import (
    CapExceededError,
    CayleyAssociativityError,
    CayleyIdentityError,
    CayleyParseError,
    CayleyPermutationError,
    DimensionMismatchError,
    OrbitOverflowError,
    ParamsMismatchError,
)
from .fieldlin import pivot_rows, rank_stack

DEFAULT_ORBIT_CAP = 1 << 16
DEFAULT_ENUM_CAP = 1 << 14
_AD_CHUNK_ENTRIES = 1 << 22   # ad-matrix entries per rank_stack call, bounds memory
_TABLE_BLOCK_ENTRIES = 1 << 16   # table entries per block of a whole-table pass, cache-sized


def _element_indices(m: int, idx) -> np.ndarray:
    """`idx` as int64 indices into a group of order m; ValueError naming the
    first entry outside [0, m), which numpy would wrap or reject unclearly."""
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size and arr.view(np.uint64).max() >= m:   # a negative entry views as >= 2^63
        bad = arr[(arr < 0) | (arr >= m)].flat[0]
        raise ValueError(f"element index {bad} outside [0, {m})")
    return arr


def _integer_table(table) -> np.ndarray:
    """table as a new square int64 array, so the caller's array can change
    without changing the group.  Integer arrays are copied without a check
    of their own; other input must hold whole numbers, and a value that
    int64 cannot hold is out of range for any table."""
    try:
        arr = np.asarray(table)
    except ValueError as exc:   # ragged rows
        raise CayleyParseError("table must be square") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CayleyParseError("table must be square")
    if arr.dtype.kind in "biu":
        return np.array(arr, dtype=np.int64)
    entries = arr.astype(object)
    try:
        ints = entries.astype(np.int64)   # int() of each entry
    except OverflowError:
        raise CayleyParseError("table entries must lie in [0, m)") from None
    except (TypeError, ValueError):
        raise CayleyParseError("table entries must be integers") from None
    if not (ints == entries).all():   # int() truncated an entry
        raise CayleyParseError("table entries must be integers")
    return ints


def _check_permutations(t: np.ndarray) -> None:
    """CayleyPermutationError naming the first row or column of the table t
    that is not a permutation, row i before column i."""
    m = len(t)
    full = np.arange(m)
    in_row = np.zeros((m, m), dtype=bool)   # in_row[i, v]: row i holds v
    in_row[full[:, None], t] = True
    in_col = np.zeros((m, m), dtype=bool)   # in_col[v, j]: column j holds v
    in_col[t, full] = True
    bad_row, bad_col = ~in_row.all(axis=1), ~in_col.all(axis=0)
    if bad_row.any() or bad_col.any():
        i = int(np.argmax(bad_row | bad_col))   # row i is reported before column i
        kind = "row" if bad_row[i] else "column"
        raise CayleyPermutationError(f"{kind} {i} is not a permutation")


def _orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Least point of each point's orbit under the group that the rows of
    perms (permutations of range(n)) generate.

    Each pass lowers every label to the least label among its images, so
    labels stay inside orbits and stop changing once every orbit carries its
    least point (an orbit of a finite group is reached by forward steps).
    """
    label = np.arange(perms.shape[1])
    while True:
        lowered = np.minimum(label, label[perms].min(axis=0, initial=len(label)))
        if np.array_equal(lowered, label):
            return label
        label = lowered


def _check_enum_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceededError(f"group order {order} exceeds enumeration cap {cap}")


class GroupElement(FlatDigits):
    """Element 1 + a of the family group, stored by the L1 digits of a."""

    __slots__ = ()

    @staticmethod
    def identity(params: AlgebraParams) -> "GroupElement":
        return GroupElement.of(params, (0,) * params.dim_l1)

    @staticmethod
    def from_l1(a: AlgebraElement) -> "GroupElement":
        if a.c0 != 0:
            raise ValueError("L1-part must have zero grade-0 component")
        return GroupElement.of(a.params, a.digits[1:])

    def coords(self) -> tuple[int, ...]:
        """Flat L1 digits in the order (r1, r2 row-major, r3, c4)."""
        return self.digits

    @staticmethod
    def from_coords(params: AlgebraParams, flat: Sequence[int]) -> "GroupElement":
        if len(flat) != params.dim_l1:
            raise DimensionMismatchError("coordinate length does not match params")
        return GroupElement.of(params, flat)

    def is_identity(self) -> bool:
        return not any(self.digits)

    def __lt__(self, other: "GroupElement") -> bool:
        return self.digits < other.digits

    def __repr__(self) -> str:
        return f"GroupElement(coords={self.digits!r})"


def _checked(params: AlgebraParams, elems: Sequence[GroupElement]) -> Sequence[GroupElement]:
    """elems, checked to be elements of the group of params."""
    if [g.params for g in elems].count(params) != len(elems):
        raise ParamsMismatchError("elements belong to different groups")
    return elems


def _stack(params: AlgebraParams, elems: Sequence[GroupElement]) -> Batch:
    flat = np.array([g.digits for g in _checked(params, elems)], dtype=np.int64)
    return params.engine.from_coords(flat.reshape(len(elems), params.dim_l1))


def _elements(params: AlgebraParams, flat: np.ndarray) -> list[GroupElement]:
    return [GroupElement.of(params, row) for row in flat.tolist()]


def _one(params: AlgebraParams, b: Batch) -> GroupElement:
    return _elements(params, params.engine.coords(b))[0]


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h, composed from the engine's `grp_inv` and
    `grp_mul` on one-row stacks.  This definitional composition is the
    reference that the closed form `BatchAlg.commutator` (and with it
    `AlgebraGroup.commutator`) is checked against."""
    params, eng = g.params, g.params.engine
    a, b = _stack(params, [g]), _stack(params, [h])
    return _one(params, eng.grp_mul(eng.grp_mul(eng.grp_inv(a), eng.grp_inv(b)), eng.grp_mul(a, b)))


class AlgebraGroup:
    """The family group G = 1 + L1 for a fixed parameter set.

    Immutable after construction; cached data (the ad structure tensor,
    conjugation matrices, class labels) is built idempotently and is safe
    for concurrent readers afterwards.
    """

    def __init__(self, params: AlgebraParams):
        self.params = params
        self.dim_l1 = params.dim_l1
        self.order = params.p ** self.dim_l1
        self.identity = GroupElement.identity(params)
        self.class_log_base = params.p   # class sizes are p-powers

    @property
    def batch(self) -> BatchAlg:
        return self.params.engine

    @cached_property
    def generators(self) -> list[GroupElement]:
        """1 + e for e over the basis of L1, in coordinate order."""
        return _elements(self.params, np.eye(self.dim_l1, dtype=np.int64))

    @cached_property
    def _ad_tensor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tensor, rows, cols): tensor[k] is the matrix of ad_{e_k} = [e_k, .]
        on the basis of L1, cut to the L1 coordinates `rows` and `cols` that
        are nonzero for some k (brackets land in grades 2..4, and the grade-4
        line is central)."""
        eng, m = self.batch, self.dim_l1
        eye = np.eye(m, dtype=np.int64)
        brackets = eng.lie_bracket(
            eng.from_coords(np.repeat(eye, m, axis=0)), eng.from_coords(np.tile(eye, (m, 1)))
        )
        tensor = eng.coords(brackets).reshape(m, m, m).transpose(0, 2, 1)
        rows, cols = np.flatnonzero(tensor.any(axis=(0, 2))), np.flatnonzero(tensor.any(axis=(0, 1)))
        return np.ascontiguousarray(tensor[:, rows][:, :, cols]), rows, cols

    @cached_property
    def _graded_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(X, rho, sigma, Sigma), slices of `_ad_tensor` by grade.  The first
        three are the blocks of ad_c for c = C + c3 + c4 in grades >= 2: X[k]
        maps R1 to R3 and rho[k] maps R2 to R4 for the R2 coordinate k of C,
        and sigma[k] maps R1 to R4 for the R3 coordinate k of c3.  Every other
        block of ad_c is 0 by grade.  Sigma[k][j] = sigma([e_k, e_j]) for the
        R1 coordinate k and the kept R2 coordinates j, so the rows of
        a1 @ Sigma span sigma([a1, R2]).  The R4 row is cut, and rho, sigma
        and Sigma have no rows, when F is symmetric."""
        tensor, rows, cols = self._ad_tensor
        d = self.params.d
        grade = np.repeat([1, 2, 3, 4], [d, d * d, d, 1])   # grade of each L1 coordinate
        gr, gc = grade[rows], grade[cols]

        def block(k: int, row: int, col: int) -> np.ndarray:
            return tensor[grade == k][:, gr == row][:, :, gc == col]

        sigma = block(3, 4, 1)
        # sigma covers every R3 coordinate, the tensor only the kept R3 rows
        kept3 = rows[gr == 3] - d - d * d
        Sigma = np.einsum("kij,iab->kjab", block(1, 3, 2), sigma[kept3]) % self.params.p
        return block(2, 3, 1), block(2, 4, 2), sigma, Sigma

    @cached_property
    def _conj_matrices(self) -> np.ndarray:
        """Stack (n_gen, m, m): column image of each basis vector under
        a -> (1+t)^-1 a (1+t), which is linear in a for fixed t, for each
        generator 1+t; one engine `conjugate` over every (generator, basis
        vector) pair."""
        eng, m = self.batch, self.dim_l1
        eye = np.eye(m, dtype=np.int64)   # the basis, and the generators' coordinates
        basis, gens = np.tile(eye, (m, 1)), np.repeat(eye, m, axis=0)
        images = eng.coords(eng.conjugate(eng.from_coords(basis), eng.from_coords(gens)))
        return np.ascontiguousarray(images.reshape(m, m, m).transpose(0, 2, 1))

    # Element operations: one engine call each, on one-row stacks.

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return _one(self.params, self.batch.grp_mul(self.stack([g]), self.stack([h])))

    def inverse(self, g: GroupElement) -> GroupElement:
        return _one(self.params, self.batch.grp_inv(self.stack([g])))

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return _one(self.params, self.batch.commutator(self.stack([g]), self.stack([h])))

    def long_commutator(self, elems: Sequence[GroupElement]) -> GroupElement:
        """Left-normed [g1, ..., gk] = [[g1, ..., g_{k-1}], gk]; needs k >= 2."""
        return _one(self.params, self.batch.long_commutator(self.stack([g]) for g in elems))

    def conjugate(self, g: GroupElement, by: GroupElement) -> GroupElement:
        """g^by = by^-1 g by."""
        return _one(self.params, self.batch.conjugate(self.stack([g]), self.stack([by])))

    def random_elements(self, rng: np.random.Generator, count: int) -> list[GroupElement]:
        return _elements(self.params, self.batch.coords(self.sample_batch(rng, count)))

    def elements(self, cap: int = DEFAULT_ENUM_CAP,
                 at: np.ndarray | None = None) -> Iterator[GroupElement]:
        """All elements in lexicographic coordinate order (small groups only),
        or only those at the `all_elements` indices `at`, in that order."""
        _check_enum_cap(self.order, cap)
        idx = np.arange(self.order) if at is None else _element_indices(self.order, at)
        return iter(_elements(self.params, self._digits(idx)))

    @cached_property
    def _place_values(self) -> np.ndarray:
        """p^(m-1), ..., p, 1: coordinates times these give the index in
        `all_elements` (read only for enumerable orders)."""
        return self.params.p ** np.arange(self.dim_l1 - 1, -1, -1)

    def all_elements(self, cap: int = DEFAULT_ENUM_CAP) -> Batch:
        """Every element, in lexicographic coordinate order."""
        _check_enum_cap(self.order, cap)
        return self.from_indices(np.arange(self.order))

    def from_indices(self, idx: np.ndarray) -> Batch:
        """The stack of the elements at the given `all_elements` indices."""
        return self.batch.from_coords(self._digits(_element_indices(self.order, idx)))

    def _digits(self, idx: np.ndarray) -> np.ndarray:
        """Coordinates of the elements at the given `all_elements` indices."""
        return idx[:, None] // self._place_values % self.params.p

    def repeat(self, g: GroupElement, n: int) -> Batch:
        _checked(self.params, (g,))
        return self.batch.from_coords(np.tile(np.array(g.digits, dtype=np.int64), (n, 1)))

    def stack(self, elems: Sequence[GroupElement]) -> Batch:
        return _stack(self.params, elems)

    def commutators(self, a: Batch, b: Batch) -> Batch:
        return self.batch.commutator(a, b)

    def trivial_long_commutators(self, draw: Callable[[], Batch], count: int) -> np.ndarray:
        """Which left-normed commutators of `count` stacks, drawn one at a
        time by `draw()`, are 1."""
        return self.batch.trivial_long_commutator(draw, count)

    def quotients(self, a: Batch, b: Batch) -> Batch:
        """a b^-1 entrywise."""
        return self.batch.grp_mul(a, self.batch.grp_inv(b))

    @cached_property
    def _labels(self) -> np.ndarray:
        """`_orbit_labels` over `all_elements`; an element's index is the
        base-p number its coordinates spell.  Read it only after checking
        the enumeration cap."""
        images = np.einsum("gij,nj->gni", self._conj_matrices, self._digits(np.arange(self.order)))
        return _orbit_labels((images % self.params.p) @ self._place_values)

    def class_labels(self, a: Batch, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
        """Index in `all_elements` of the least member of each entry's class;
        `cap` bounds the enumeration that the labels are built from."""
        _check_enum_cap(self.order, cap)
        return self._labels[self.batch.coords(a) @ self._place_values]

    def class_sizes(self, a: Batch) -> np.ndarray:
        """|(1+a)^G| = p^rank(ad_a) for every entry of the stack.

        int64 while the group order fits it (so order // sizes does too),
        Python ints otherwise.
        """
        p, (tensor, _, _) = self.params.p, self._ad_tensor
        m, r, c = tensor.shape
        flat = self.batch.coords(a)
        chunk = max(1, _AD_CHUNK_ENTRIES // max(1, r * c))
        parts = (flat[i : i + chunk] for i in range(0, max(len(flat), 1), chunk))
        # r = c = 0 when every bracket vanishes (d = 1): each rank is 0
        ranks = np.concatenate([
            rank_stack((x @ tensor.reshape(m, r * c)).reshape(len(x), r, c), p) for x in parts
        ])
        dtype = np.int64 if self.order < 1 << 63 else object
        return np.array(p, dtype=dtype) ** ranks.astype(dtype)

    def sample_batch(self, rng: np.random.Generator, count: int) -> Batch:
        return self.batch.random_l1(rng, count)

    def commutator_centralizer_sum(self, cap: int) -> int:
        """The sum of |C_G([x, y])| over x, y in G, computed by grade (d2 is
        this sum over |G|^3); `cap` bounds the p^(2d) grade-1 pairs (a1, b1).

        Write [x, y] = 1 + c for x = 1 + a, y = 1 + b.  c has no grade-1
        part, so ad_c has two nonzero row blocks (`_graded_blocks`): [X | 0]
        into R3, where X depends only on C = a1 b1^T - b1 a1^T, and one R4
        row [sigma(c3) | rho(C)] on the R1 and R2 columns.  So
        rank ad_c = rank X + beta, with beta = 0 exactly when rho(C) = 0 and
        sigma(c3) lies in row X.  For fixed (a1, b1), c3 is affine in (A, B)
        and free of a3, b3, c4, so it is uniform on a coset u + W.  With
        r0 = rank X, k = rank [X; sigma W] - r0 and q = p^-k, the mean of
        |C_G(1 + c)| / |G| = p^-rank(ad_c) over the pair is

            p^-(r0 + 1)               if rho(C) != 0 or sigma(u) is not in
                                      row X + sigma W,
            p^-r0 (q + (1 - q) / p)   otherwise.

        u is c3 at A = B = 0.  The part of c3 linear in (A, B) is
        [a1, B]_3 + [A, b1]_3, so W = [a1, R2] + [R2, b1] and the rows of
        a1 @ Sigma and b1 @ Sigma span sigma W.  One elimination per block of
        16 BLOCK // (1 + 2d^2) pairs (about 2^16 stack rows) gives all three:
        the pivot rows of [X; sigma W; sigma(u)] number r0 among the X rows,
        k among the sigma W rows, and hold the last row iff sigma(u) is not
        in row X + sigma W.
        """
        p, d = self.params.p, self.params.d
        pairs = p ** (2 * d)
        if pairs > cap:
            raise CapExceededError(f"p^(2d) = {pairs} grade-1 pairs exceed d2 cap {cap}")
        eng, dd = self.batch, d * d
        X_of, rho_of, sigma_of, Sigma = self._graded_blocks
        (_, n3, n1), (_, n2, n4, _) = X_of.shape, Sigma.shape   # n4 = 0 or 1 R4 rows
        X_of, rho_of = X_of.reshape(dd, n3 * n1), rho_of.reshape(dd, n4 * n2)
        sigma_of, Sigma = sigma_of.reshape(d, n4 * n1), Sigma.reshape(d, n2 * n4 * n1)
        place = p ** np.arange(2 * d - 1, -1, -1)
        step = max(1, 16 * BLOCK // (1 + 2 * dd))   # per-call overhead dominates smaller blocks
        total = 0
        for start in range(0, pairs, step):
            ab = np.arange(start, min(start + step, pairs))[:, None] // place % p
            n, a1, b1 = len(ab), ab[:, :d], ab[:, d:]
            c = eng.commutator(eng.zeros(n)._replace(r1=a1), eng.zeros(n)._replace(r1=b1))
            C = c.r2.reshape(n, dd)
            X = (C @ X_of).reshape(n, n3, n1)
            sigma_u = (c.r3 @ sigma_of).reshape(n, n4, n1)
            sigma_W = (ab.reshape(n, 2, d) @ Sigma).reshape(n, 2 * n2 * n4, n1)   # a1, b1 @ Sigma
            used = pivot_rows(np.concatenate([X, sigma_W, sigma_u], axis=1), p)
            in_X, in_W, in_u = np.split(used, [n3, n3 + 2 * n2 * n4], axis=1)
            # the pair means above, times p^(d + 1)
            r0, k, full = in_X.sum(1), in_W.sum(1), (C @ rho_of % p).any(1) | in_u.any(1)
            total += int(np.where(full, p ** (d - r0), p ** (d - r0 - k) * (p + p**k - 1)).sum())
        # the sum is |G|^3 d2 = p^(3m) total / p^(3d + 1), and m = d^2 + 2d + 1 >= 3d + 1
        return total * p ** (3 * self.dim_l1 - 3 * d - 1)

    def conjugacy_orbit(self, g: GroupElement, cap: int = DEFAULT_ORBIT_CAP) -> set[GroupElement]:
        """The class of g, closed under the conjugation matrices one layer at
        a time; needs no enumeration of G."""
        start = self.batch.coords(self.stack([g]))[0].astype(np.uint8)
        seen = {start.tobytes()}
        frontier = [start]
        while frontier:
            images = np.einsum("gij,nj->gni", self._conj_matrices, np.array(frontier, np.int64))
            images = (images % self.params.p).reshape(-1, self.dim_l1).astype(np.uint8)
            frontier = []
            for row in np.unique(images, axis=0):
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    frontier.append(row)
            if len(seen) > cap:
                raise OrbitOverflowError(f"orbit exceeded cap {cap}")
        flat = np.frombuffer(b"".join(seen), dtype=np.uint8).reshape(len(seen), self.dim_l1)
        return set(_elements(self.params, flat))

    def class_size(self, g: GroupElement) -> int:
        return int(self.class_sizes(self.stack([g]))[0])

    def conjugacy_classes(self, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[GroupElement, int]]:
        """(representative, size) pairs, each class represented by its least
        member in coordinate order; requires an enumerable group."""
        _check_enum_cap(self.order, cap)
        labels = self._labels
        reps = np.flatnonzero(labels == np.arange(self.order))
        sizes = np.bincount(labels)[reps].tolist()
        return list(zip(_elements(self.params, self._digits(reps)), sizes))


class TableGroup:
    """Finite group given by an m x m Cayley table of indices; identity is 0.

    The table is validated exactly on construction, by a proof that it is a
    group, in this order: entries in [0, m), 0 a two-sided identity, a 0 in
    every row (a right inverse, at the column kept in `inv_table`), and
    associativity by Light's test over `generators`.  Light's argument
    needs no Latin square: in any table the elements g with
    (g x) y = g (x y) for all x, y are closed under products, and
    `generators` closes under the table's own product, so if they include
    every generator they include every element.  A two-sided identity,
    right inverses and associativity make a group, whose rows and columns
    are permutations.  The right-inverse scan and Light's test read a copy
    of the table in the narrowest unsigned dtype that holds m - 1 (uint8
    up to order 256, uint16 up to 65,536).  Only when the proof fails are
    rows and columns checked, to name the first failure in the order: row
    or column, identity, associativity.
    """

    class_log_base = math.e

    def __init__(self, table: Sequence[Sequence[int]] | np.ndarray, name: str = "table"):
        self.table = _integer_table(table)
        self.order = self.table.shape[0]
        self.name = name
        self.identity = 0
        self.inv_table = self._validate()
        self.table.flags.writeable = False   # a validated group stays a group
        self.inv_table.flags.writeable = False

    def _validate(self) -> np.ndarray:
        """The inverse array of a group table; otherwise the first failure,
        in the order range, rows and columns, identity, associativity."""
        m, t = self.order, self.table
        if m == 0:
            raise CayleyParseError("empty table")
        if t.view(np.uint64).max() >= m:   # a negative entry views as >= 2^63
            raise CayleyParseError("table entries must lie in [0, m)")
        full = np.arange(m)
        failing = None   # the generator that fails Light's test
        if np.array_equal(t[0], full) and np.array_equal(t[:, 0], full):
            narrow = t.astype(np.min_scalar_type(m - 1))
            inv = narrow.argmin(axis=1)   # the first least entry of each row: g^-1 in a group
            if not narrow[full, inv].any():   # a 0 in every row: every g has a right inverse
                failing = self._light_failure(narrow)
                if failing is None:
                    return inv
        # the proof failed; only now are rows and columns checked, to name the failure
        _check_permutations(t)
        if failing is None:   # a Latin table has a 0 in every row, so the identity failed
            raise CayleyIdentityError("index 0 is not a two-sided identity")
        raise CayleyAssociativityError(f"associativity fails with a = {failing}")

    def _light_failure(self, narrow: np.ndarray) -> int | None:
        """The first generator g with (g x) y != g (x y) for some x, y, or
        None.  Both sides are gathered from `narrow`, the table in the
        narrowest unsigned dtype that holds m - 1, one block of rows x at a
        time, at int64 indices read from the table."""
        m, t = self.order, self.table
        rows = max(1, _TABLE_BLOCK_ENTRIES // m)
        for g in self.generators:
            for x in range(0, m, rows):
                # (g x) y and g (x y) for the rows x .. x + rows - 1 and every y
                if not np.array_equal(narrow.take(t[g, x : x + rows], axis=0),
                                      narrow[g].take(t[x : x + rows])):
                    return g
        return None

    @cached_property
    def generators(self) -> list[int]:
        """Greedy generating set: the least element outside the closure of
        the generators so far, until that closure is everything
        (`_generated` over every index).

        The closure is taken under the table's own product (`_power_closure`),
        so every element is a product of generators before the table is known
        to be a group, as Light's test needs.  In a group each new generator
        at least doubles the subgroup, so there are at most log2 m of them,
        and none for the trivial group.
        """
        return _generated(self, range(self.order))[1]

    # Element operations (elements are indices; one outside [0, |G|) raises ValueError).

    def mul(self, a: int, b: int) -> int:
        m = self.order
        return int(self.table[_element_indices(m, a), _element_indices(m, b)])

    def inverse(self, a: int) -> int:
        return int(self.inv_table[_element_indices(self.order, a)])

    def commutator(self, a: int, b: int) -> int:
        return int(self.commutators(a, b))

    def long_commutator(self, elems: Sequence[int]) -> int:
        return int(self.long_commutators(elems))

    def conjugate(self, a: int, by: int) -> int:
        t, a, by = self.table, _element_indices(self.order, a), _element_indices(self.order, by)
        return int(t[t[self.inv_table[by], a], by])

    def elements(self, cap: int | None = None, at: np.ndarray | None = None) -> range | list[int]:
        """Every index, or the indices `at` as ints; a given `cap` bounds |G|
        as in `all_elements` (the table is already in memory, so by default
        nothing does)."""
        if cap is not None:
            _check_enum_cap(self.order, cap)
        return range(self.order) if at is None else _element_indices(self.order, at).tolist()

    def random_elements(self, rng: np.random.Generator, count: int) -> list[int]:
        return [int(v) for v in self.sample_batch(rng, count)]

    def all_elements(self, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
        _check_enum_cap(self.order, cap)
        return np.arange(self.order)

    def repeat(self, g: int, n: int) -> np.ndarray:
        return np.full(n, _element_indices(self.order, g))

    def stack(self, elems: Sequence[int]) -> np.ndarray:
        return _element_indices(self.order, elems)

    from_indices = stack   # an element is its own index

    @cached_property
    def commutator_table(self) -> np.ndarray:
        """The m x m table of [a, b] = a^-1 b^-1 a b at row a, column b, in
        the narrowest unsigned dtype that holds m - 1; built on first use by
        two flat gathers from the table per block of rows, each block about
        `_TABLE_BLOCK_ENTRIES` entries.  Index it directly only with indices
        known to lie in [0, m); `commutators` checks the indices it is given."""
        m, t, inv = self.order, self.table, self.inv_table
        flat = t.ravel()
        comm = np.empty((m, m), dtype=np.min_scalar_type(m - 1))
        rows = max(1, _TABLE_BLOCK_ENTRIES // m)
        for x in range(0, m, rows):
            r = slice(x, x + rows)
            left = flat.take(inv[r, None] * m + inv)   # a^-1 b^-1 for the rows a, every b
            left *= m
            left += t[r]                                # flat index of (a^-1 b^-1, a b)
            comm[r] = flat.take(left)
        comm.flags.writeable = False   # shared by every caller
        return comm

    def _commutator_chain(self, stacks: Iterable) -> np.ndarray:
        """Left-normed [a_1, ..., a_k] entrywise in the commutator table's
        dtype, for k >= 2 index arrays drawn from the iterable one at a time;
        each is checked once.  The table is built, on first use, before
        anything is drawn, so its block temporaries and the drawn stacks are
        never held at once."""
        m, comm = self.order, self.commutator_table.ravel()
        it = iter(stacks)
        acc, nxt = next(it, None), next(it, None)
        if nxt is None:
            raise ValueError("long commutator needs at least 2 entries")
        acc = _element_indices(m, acc)
        while nxt is not None:
            flat = np.multiply(acc, m, dtype=np.int64) + _element_indices(m, nxt)
            acc, nxt = comm.take(flat), next(it, None)
        return acc

    def commutators(self, a, b) -> np.ndarray:
        """[a, b] entrywise as int64; index arrays broadcast like numpy, and
        an index outside [0, |G|) raises ValueError."""
        return self._commutator_chain((a, b)).astype(np.int64)

    def long_commutators(self, stacks: Iterable) -> np.ndarray:
        """Left-normed [a_1, ..., a_k] entrywise as int64 for k >= 2 index
        arrays, drawn from the iterable one at a time."""
        return self._commutator_chain(stacks).astype(np.int64)

    def quotients(self, a, b) -> np.ndarray:
        """a b^-1 entrywise."""
        m = self.order
        return self.table[_element_indices(m, a), self.inv_table[_element_indices(m, b)]]

    def trivial_long_commutators(self, draw: Callable[[], np.ndarray], count: int) -> np.ndarray:
        return self._commutator_chain(draw() for _ in range(count)) == 0

    @cached_property
    def _labels(self) -> np.ndarray:
        """`_orbit_labels` under conjugation x -> g^-1 x g by each generator."""
        t, g = self.table, np.array(self.generators, dtype=np.int64)
        return _orbit_labels(t[t[self.inv_table[g]], g[:, None]])

    def class_labels(self, a, cap: int | None = None) -> np.ndarray:
        """Least member of each entry's class; a given `cap` bounds |G| as in
        `conjugacy_classes`."""
        if cap is not None:
            _check_enum_cap(self.order, cap)
        return self._labels[_element_indices(self.order, a)]

    @cached_property
    def _class_size_of(self) -> np.ndarray:
        """The size of every element's conjugacy class."""
        return np.bincount(self._labels)[self._labels]

    def class_sizes(self, a) -> np.ndarray:
        return self._class_size_of[_element_indices(self.order, a)]

    def conjugacy_orbit(self, g: int, cap: int | None = None) -> set[int]:
        t, g = self.table, _element_indices(self.order, g)
        orbit = np.unique(t[t[self.inv_table, g], np.arange(self.order)])
        if cap is not None and len(orbit) > cap:
            raise OrbitOverflowError(f"orbit exceeded cap {cap}")
        return set(int(x) for x in orbit)

    def conjugacy_classes(self, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[int, int]]:
        """(representative, size) pairs, each class represented by its least
        member."""
        _check_enum_cap(self.order, cap)
        reps = np.flatnonzero(self._labels == np.arange(self.order))
        return list(zip(reps.tolist(), self._class_size_of[reps].tolist()))

    def class_size(self, g: int) -> int:
        return int(self.class_sizes(g))

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, self.order, size=count, dtype=np.int64)

    def commutator_centralizer_sum(self, cap: int) -> int:
        """The sum of |C_G([x, y])| over x, y in G (d2 is this sum over
        |G|^3), from |G| quotients; `cap` bounds |G|.

        [x, y] = x^-1 x^y, so as y runs over G, [x, y] runs over x^-1 z for
        z in x^G, each |C_G(x)| times.  Conjugating x to rho(x), the least
        member of its class, maps these onto rho(x)^-1 z for z in the same
        class, and the members x of a class weigh |x^G| |C_G(x)| = |G| in
        all.  So the sum is |G| times the sum over z in G of the centralizer
        order of rho(z)^-1 z, or of its conjugate z rho(z)^-1:
        |G| / |(z rho(z)^-1)^G|, from the quotients `commutator_set` reads.
        The commutator table is not built.
        """
        m = self.order
        if m > cap:
            raise CapExceededError(f"|G| = {m} exceeds d2 cap {cap}")
        quotients = self.table[np.arange(m), self.inv_table[self._labels]]   # z rho(z)^-1
        return m * int((m // self._class_size_of[quotients]).sum())

    def __repr__(self) -> str:
        return f"TableGroup({self.name!r}, order={self.order})"


def _power_closure(G: TableGroup, S: np.ndarray, gens: np.ndarray) -> tuple[np.ndarray, int]:
    """Close each row of the C-contiguous boolean (N, |G|) matrix S, in place,
    under right multiplication by its generators gens[i] (padded with the
    identity 0); returns (S, r), r the number of passes.

    Each pass multiplies only the newest layer by the generators through the
    table's own product, reading no inverse.  A row holding 1 inside
    <gens[i]> closes to that subgroup, since the powers of an element of a
    finite group include its inverse.  For a row X holding 1 with
    generators X, the layers are X^r minus X^{r-1}, and r is the least with
    X^r = X^{r+1}.
    """
    flat = S.reshape(-1)
    # products[j, i |G| + x] = i |G| + x gens[i, j], a flat index into S
    products = (G.table.T[gens.T] + np.arange(0, S.size, G.order)[:, None]).reshape(
        gens.shape[1], S.size)
    layer, grown = flat.nonzero()[0], np.zeros_like(flat)   # grown: the scatter buffer
    r = 1
    while True:
        grown[products[:, layer]] = True
        np.greater(grown, flat, out=grown)   # drop the members, the last layer too
        layer = grown.nonzero()[0]
        if not layer.size:
            return S, r
        flat |= grown
        r += 1


def _generated(G: TableGroup, candidates: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """(row, gens): the boolean row of the closure of {0} and gens, where gens
    takes each candidate, in order, that lies outside the closure of the ones
    before it.  In a group each one at least doubles the closure, so there
    are at most log2 |G| of them."""
    c = _element_indices(G.order, np.fromiter(candidates, dtype=np.int64))
    row = np.zeros((1, G.order), dtype=bool)
    row[0, 0] = True
    gens: list[int] = []
    while (outside := c[~row[0, c]]).size:
        gens.append(int(outside[0]))
        row[0, gens[-1]] = True
        _power_closure(G, row, np.array([gens]))
    return row[0], gens


def subgroup_closure(G: TableGroup, seed: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the given element indices."""
    return frozenset(np.flatnonzero(_generated(G, seed)[0]).tolist())


def is_normal(G: TableGroup, H: Iterable[int]) -> bool:
    """Whether g^-1 h g lies in H for every g in G and h in H."""
    h = _element_indices(G.order, np.fromiter(H, dtype=np.int64))
    t = G.table
    return bool(np.isin(t[t[G.inv_table[:, None], h], np.arange(G.order)[:, None]], h).all())


def subgroup_table(G: TableGroup, H: Iterable[int]) -> tuple[TableGroup, list[int]]:
    """Reindex a subgroup as its own TableGroup; returns (group, element list).

    element list maps new indices back to indices in G; index 0 is G's identity.
    Raises ValueError unless H is a subset of [0, |G|) closed under products
    and containing 0.
    """
    members = np.unique(_element_indices(G.order, np.fromiter(H, dtype=np.int64)))
    if not members.size or members[0] != 0:
        raise ValueError("subgroup must contain the identity 0")
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[members] = np.arange(len(members))
    tbl = pos[G.table[np.ix_(members, members)]]
    if (tbl < 0).any():
        raise ValueError("element set is not closed under multiplication")
    return TableGroup(tbl, name=f"{G.name}|sub{len(members)}"), members.tolist()


def quotient_table(G: TableGroup, N: Iterable[int]) -> tuple[TableGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (G/N, coset index per element).

    Cosets are numbered in the order of their least elements.
    """
    n = np.unique(_element_indices(G.order, np.fromiter(N, dtype=np.int64)))
    if subgroup_closure(G, n) != frozenset(n.tolist()):
        raise ValueError("element set is not a subgroup")
    if not is_normal(G, n):
        raise ValueError("subgroup is not normal")
    reps, coset_of = np.unique(G.table[:, n].min(axis=1), return_inverse=True)
    tbl = coset_of[G.table[np.ix_(reps, reps)]]
    return TableGroup(tbl, name=f"{G.name}/N{len(n)}"), coset_of


def direct_product(A: TableGroup, B: TableGroup) -> TableGroup:
    """Direct product with index (a, b) -> a * |B| + b."""
    m, mb = A.order * B.order, B.order
    # axes (a, b, a', b'): row (a, b), column (a', b'), entry (a a') |B| + b b'
    tbl = (A.table[:, None, :, None] * mb + B.table[None, :, None, :]).reshape(m, m)
    return TableGroup(tbl, name=f"{A.name}x{B.name}")


# Cayley table text format: line 1 "m"; then m lines of m indices in [0, m).


def parse_cayley_table(text: str, name: str = "table") -> TableGroup:
    if not text.strip():
        raise CayleyParseError("empty table source")
    try:
        values = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError as exc:
        raise CayleyParseError(f"bad entry: {exc}") from exc
    m = int(values[0])
    if m <= 0:
        raise CayleyParseError("order must be positive")
    if len(values) != 1 + m * m:
        raise CayleyParseError(f"expected {m * m} entries, found {len(values) - 1}")
    # an entry past int64 reads as +-2^63, which TableGroup's [0, m) check rejects
    return TableGroup(values[1:].reshape(m, m), name=name)


def load_cayley_table(source: "str | Path | io.TextIOBase", name: str | None = None) -> TableGroup:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return parse_cayley_table(path.read_text(), name=name or path.stem)
    return parse_cayley_table(source.read(), name=name or "table")


def format_cayley_table(G: TableGroup) -> str:
    lines = [str(G.order)]
    lines += [" ".join(str(int(x)) for x in row) for row in G.table]
    return "\n".join(lines) + "\n"
