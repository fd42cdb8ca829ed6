"""Group arithmetic: the class-4 family G = 1 + L1 and Cayley-table groups.

Family elements are stored by the L1-part a of 1 + a.  `grp_mul` and
`grp_inv` are one-element calls of the shared engine `params.engine`, and
`commutator`, `conjugate` and `long_commutator` are their definitional
compositions.  Family class sizes come from linear algebra: 1+t commutes
with 1+a exactly when at = ta, so the centralizer of 1+a is 1 + ker(ad_a)
and its class has p^rank(ad_a) elements, where ad_a = [a, .] on L1.
Conjugation by a fixed element is linear on L1, so each family generator
contributes one matrix; `conjugacy_orbit` closes one orbit under these
matrices, which works past the enumeration cap.
Cayley-table groups are validated on load, exactly, by Light's test over a
generating set, and cache their inverse array.

Conjugacy classes of both types come from one pass, `_orbit_labels`, over
the permutations of the enumerated elements that conjugation by each
generator induces: every element is labelled by the least index in its
class.  Both group types share a set of stack operations (`all_elements`,
`repeat`, `stack`, `commutators`, `quotients`, `identity_mask`,
`class_labels`, `class_sizes`, `sample_batch`), so statistics are written
once for both.  A stack is a `Batch` of L1-parts for the family and an
index array for tables.
"""

from __future__ import annotations

import io
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._batch import Batch, BatchAlg
from .algebra import AlgebraElement, AlgebraParams
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
from .fieldlin import rank_stack

DEFAULT_ORBIT_CAP = 1 << 16
DEFAULT_ENUM_CAP = 1 << 14
_AD_CHUNK_ENTRIES = 1 << 22   # ad-matrix entries per rank_stack call, bounds memory
_ASSOC_BLOCK_ENTRIES = 1 << 20   # table entries per associativity comparison, bounds memory

Matrix = tuple[tuple[int, ...], ...]


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


def _label_classes(labels: np.ndarray) -> tuple[list[int], list[int]]:
    """Class representatives (the labelled points, in index order) and sizes."""
    reps = np.flatnonzero(labels == np.arange(len(labels)))
    return reps.tolist(), np.bincount(labels)[reps].tolist()


class GroupElement:
    """Element 1 + a of the family group, stored by the L1-part a."""

    __slots__ = ("params", "r1", "r2", "r3", "c4", "_hash")

    def __init__(
        self,
        params: AlgebraParams,
        r1: tuple[int, ...],
        r2: Matrix,
        r3: tuple[int, ...],
        c4: int,
    ):
        d, p = params.d, params.p
        if len(r1) != d or len(r3) != d or len(r2) != d or any(len(row) != d for row in r2):
            raise DimensionMismatchError("component dimensions do not match params")
        self.params = params
        self.r1 = tuple(c % p for c in r1)
        self.r2 = tuple(tuple(c % p for c in row) for row in r2)
        self.r3 = tuple(c % p for c in r3)
        self.c4 = c4 % p
        self._hash: int | None = None

    @staticmethod
    def identity(params: AlgebraParams) -> "GroupElement":
        d = params.d
        z = (0,) * d
        return GroupElement(params, z, tuple((0,) * d for _ in range(d)), z, 0)

    @staticmethod
    def from_l1(a: AlgebraElement) -> "GroupElement":
        if a.c0 != 0:
            raise ValueError("L1-part must have zero grade-0 component")
        return GroupElement(a.params, a.r1, a.r2, a.r3, a.c4)

    def l1_part(self) -> AlgebraElement:
        return AlgebraElement(self.params, 0, self.r1, self.r2, self.r3, self.c4)

    def coords(self) -> tuple[int, ...]:
        """Flat L1 digits in the order (r1, r2 row-major, r3, c4)."""
        flat = list(self.r1)
        for row in self.r2:
            flat.extend(row)
        flat.extend(self.r3)
        flat.append(self.c4)
        return tuple(flat)

    @staticmethod
    def from_coords(params: AlgebraParams, flat: Sequence[int]) -> "GroupElement":
        d = params.d
        if len(flat) != params.dim_l1:
            raise DimensionMismatchError("coordinate length does not match params")
        r1 = tuple(flat[:d])
        r2 = tuple(tuple(flat[d + i * d : d + (i + 1) * d]) for i in range(d))
        r3 = tuple(flat[d + d * d : 2 * d + d * d])
        return GroupElement(params, r1, r2, r3, flat[-1])

    def is_identity(self) -> bool:
        return (
            self.c4 == 0
            and all(c == 0 for c in self.r1)
            and all(c == 0 for c in self.r3)
            and all(c == 0 for row in self.r2 for c in row)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.params == other.params
            and self.r1 == other.r1
            and self.r2 == other.r2
            and self.r3 == other.r3
            and self.c4 == other.c4
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.r1, self.r2, self.r3, self.c4))
        return self._hash

    def __lt__(self, other: "GroupElement") -> bool:
        return self.coords() < other.coords()

    def __repr__(self) -> str:
        return f"GroupElement(coords={self.coords()!r})"


def _same_params(g: GroupElement, h: GroupElement) -> AlgebraParams:
    if g.params != h.params:
        raise ParamsMismatchError("elements belong to different groups")
    return g.params


def _stack(params: AlgebraParams, elems: Sequence[GroupElement]) -> Batch:
    flat = np.array([g.coords() for g in elems], dtype=np.int64)
    return params.engine.from_coords(flat.reshape(len(elems), params.dim_l1))


def _elements(params: AlgebraParams, flat: np.ndarray) -> list[GroupElement]:
    return [GroupElement.from_coords(params, row) for row in flat.tolist()]


def _one(params: AlgebraParams, b: Batch) -> GroupElement:
    return _elements(params, params.engine.coords(b))[0]


def grp_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """(1+a)(1+b) = 1 + a + b + ab."""
    params = _same_params(g, h)
    return _one(params, params.engine.grp_mul(_stack(params, [g]), _stack(params, [h])))


def grp_inv(g: GroupElement) -> GroupElement:
    """(1+a)^-1 = 1 + v with v = -a - a v."""
    return _one(g.params, g.params.engine.grp_inv(_stack(g.params, [g])))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h."""
    return grp_mul(grp_mul(grp_inv(g), grp_inv(h)), grp_mul(g, h))


def long_commutator(elems: Sequence[GroupElement]) -> GroupElement:
    """Left-normed [g1, ..., gk] = [[g1, ..., g_{k-1}], gk]; needs k >= 2."""
    if len(elems) < 2:
        raise ValueError("long commutator needs at least 2 entries")
    acc = elems[0]
    for nxt in elems[1:]:
        acc = commutator(acc, nxt)
    return acc


def conjugate(g: GroupElement, by: GroupElement) -> GroupElement:
    """g^by = by^-1 g by."""
    return grp_mul(grp_mul(grp_inv(by), g), by)


class AlgebraGroup:
    """The family group G = 1 + L1 for a fixed parameter set.

    Immutable after construction; cached data (the ad structure tensor,
    conjugation matrices, class labels) is built idempotently and is safe
    for concurrent readers afterwards.
    """

    def __init__(self, params: AlgebraParams, orbit_cap: int = DEFAULT_ORBIT_CAP):
        self.params = params
        self.orbit_cap = orbit_cap
        self.dim_l1 = params.dim_l1
        self.order = params.p ** self.dim_l1
        self.identity = GroupElement.identity(params)
        self._labels: np.ndarray | None = None

    @property
    def batch(self) -> BatchAlg:
        return self.params.engine

    @cached_property
    def generators(self) -> list[GroupElement]:
        """1 + e for e over the graded basis of L1 (r1, r2, r3, c4 order)."""
        out = []
        m = self.dim_l1
        for i in range(m):
            flat = [0] * m
            flat[i] = 1
            out.append(GroupElement.from_coords(self.params, flat))
        return out

    @cached_property
    def _ad_tensor(self) -> np.ndarray:
        """(m, r, c): slice k is the matrix of ad_{e_k} = [e_k, .] on the
        basis of L1, cut to the r rows and c columns that are nonzero for some
        k (brackets land in grades 2..4, and the grade-4 line is central)."""
        eng, m = self.batch, self.dim_l1
        eye = np.eye(m, dtype=np.int64)
        brackets = eng.lie_bracket(
            eng.from_coords(np.repeat(eye, m, axis=0)), eng.from_coords(np.tile(eye, (m, 1)))
        )
        tensor = eng.coords(brackets).reshape(m, m, m).transpose(0, 2, 1)
        rows, cols = tensor.any(axis=(0, 2)), tensor.any(axis=(0, 1))
        return np.ascontiguousarray(tensor[:, rows][:, :, cols])

    @cached_property
    def _conj_matrices(self) -> np.ndarray:
        """Stack (n_gen, m, m): column image of each basis vector under
        a -> (1+t)^-1 a (1+t), which is linear in a for fixed t."""
        eng = self.batch
        m = self.dim_l1
        basis = eng.from_coords(np.eye(m, dtype=np.int64))
        mats = np.empty((len(self.generators), m, m), dtype=np.int64)
        for k, gen in enumerate(self.generators):
            conj = eng.conjugate(basis, self.repeat(gen, m))
            mats[k] = eng.coords(conj).T % self.params.p
        return mats

    # Element-level conveniences mirroring the module functions.

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return grp_mul(g, h)

    def inverse(self, g: GroupElement) -> GroupElement:
        return grp_inv(g)

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return commutator(g, h)

    def long_commutator(self, elems: Sequence[GroupElement]) -> GroupElement:
        return long_commutator(elems)

    def conjugate(self, g: GroupElement, by: GroupElement) -> GroupElement:
        return conjugate(g, by)

    def random_elements(self, rng: np.random.Generator, count: int) -> list[GroupElement]:
        return _elements(self.params, self.batch.coords(self.sample_batch(rng, count)))

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[GroupElement]:
        """All elements in lexicographic coordinate order (small groups only)."""
        return iter(_elements(self.params, self.batch.coords(self.all_elements(cap))))

    def _check_cap(self, cap: int) -> None:
        if self.order > cap:
            raise CapExceededError(f"group order {self.order} exceeds enumeration cap {cap}")

    @cached_property
    def _place_values(self) -> np.ndarray:
        """p^(m-1), ..., p, 1: coordinates times these give the index in
        `all_elements` (read only for enumerable orders)."""
        return self.params.p ** np.arange(self.dim_l1 - 1, -1, -1)

    def all_elements(self, cap: int = DEFAULT_ENUM_CAP) -> Batch:
        """Every element, in lexicographic coordinate order."""
        self._check_cap(cap)
        return self.batch.from_coords(self._digits(np.arange(self.order)))

    def _digits(self, idx: np.ndarray) -> np.ndarray:
        """Coordinates of the elements at the given `all_elements` indices."""
        return idx[:, None] // self._place_values % self.params.p

    def repeat(self, g: GroupElement, n: int) -> Batch:
        return self.batch.from_coords(np.tile(np.array(g.coords(), dtype=np.int64), (n, 1)))

    def stack(self, elems: Sequence[GroupElement]) -> Batch:
        return _stack(self.params, elems)

    def commutators(self, a: Batch, b: Batch) -> Batch:
        return self.batch.commutator(a, b)

    def quotients(self, a: Batch, b: Batch) -> Batch:
        """a b^-1 entrywise."""
        return self.batch.grp_mul(a, self.batch.grp_inv(b))

    def identity_mask(self, a: Batch) -> np.ndarray:
        return self.batch.is_identity(a)

    def _class_label_array(self, cap: int) -> np.ndarray:
        """`_orbit_labels` over `all_elements`, built once; an element's index
        is the base-p number its coordinates spell."""
        self._check_cap(cap)
        if self._labels is None:
            flat = self.batch.coords(self.all_elements(cap))
            images = np.einsum("gij,nj->gni", self._conj_matrices, flat) % self.params.p
            self._labels = _orbit_labels(images @ self._place_values)
        return self._labels

    def class_labels(self, a: Batch) -> np.ndarray:
        """Index in `all_elements` of the least member of each entry's class."""
        return self._class_label_array(DEFAULT_ENUM_CAP)[self.batch.coords(a) @ self._place_values]

    def class_sizes(self, a: Batch) -> np.ndarray:
        """|(1+a)^G| = p^rank(ad_a) for every entry of the stack.

        int64 while the group order fits it (so order // sizes does too),
        Python ints otherwise.
        """
        p, tensor = self.params.p, self._ad_tensor
        m, r, c = tensor.shape
        flat = self.batch.coords(a)
        chunk = max(1, _AD_CHUNK_ENTRIES // max(1, r * c))
        ranks = np.concatenate([
            rank_stack((flat[i : i + chunk] @ tensor.reshape(m, r * c)).reshape(-1, r, c), p)
            for i in range(0, max(len(flat), 1), chunk)
        ])
        dtype = np.int64 if self.order < 1 << 63 else object
        return np.array(p, dtype=dtype) ** ranks.astype(dtype)

    def sample_batch(self, rng: np.random.Generator, count: int) -> Batch:
        return self.batch.random_l1(rng, count)

    def conjugacy_orbit(self, g: GroupElement, cap: int | None = None) -> set[GroupElement]:
        """The class of g, closed under the conjugation matrices one layer at
        a time; needs no enumeration of G."""
        cap = self.orbit_cap if cap is None else cap
        start = np.array(g.coords(), dtype=np.uint8)
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

    def centralizer_order(self, g: GroupElement) -> int:
        return self.order // self.class_size(g)

    def conjugacy_classes(self, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[GroupElement, int]]:
        """(representative, size) pairs, each class represented by its least
        member in coordinate order; requires an enumerable group."""
        reps, sizes = _label_classes(self._class_label_array(cap))
        return list(zip(_elements(self.params, self._digits(np.array(reps))), sizes))


class TableGroup:
    """Finite group given by an m x m Cayley table of indices; identity is 0.

    The table is validated on construction: permutation rows and columns, a
    two-sided identity, and associativity by Light's test, which is exact.
    The elements g with (g x) y = g (x y) for all x, y are closed under
    products; if they include every generator, they include every product
    of generators, which is all of G.
    """

    def __init__(self, table: Sequence[Sequence[int]] | np.ndarray, name: str = "table"):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise CayleyParseError("table must be square")
        self.table = tbl
        self.order = tbl.shape[0]
        self.name = name
        self.identity = 0
        self._validate()
        self.inv_table = np.nonzero(tbl == 0)[1]   # row g holds one 0, at column g^-1

    def _validate(self) -> None:
        m, t = self.order, self.table
        if m == 0:
            raise CayleyParseError("empty table")
        if t.min() < 0 or t.max() >= m:
            raise CayleyParseError("table entries must lie in [0, m)")
        full = np.arange(m)
        for i in range(m):
            if not np.array_equal(np.sort(t[i]), full):
                raise CayleyPermutationError(f"row {i} is not a permutation")
            if not np.array_equal(np.sort(t[:, i]), full):
                raise CayleyPermutationError(f"column {i} is not a permutation")
        if not np.array_equal(t[0], full) or not np.array_equal(t[:, 0], full):
            raise CayleyIdentityError("index 0 is not a two-sided identity")
        rows = max(1, _ASSOC_BLOCK_ENTRIES // m)
        for g in self.generators:
            for x in range(0, m, rows):
                # (g x) y and g (x y) for the rows x .. x + rows - 1 and every y
                if not np.array_equal(t[t[g, x : x + rows]], t[g][t[x : x + rows]]):
                    raise CayleyAssociativityError(f"associativity fails with a = {g}")

    @cached_property
    def generators(self) -> list[int]:
        """Greedy generating set: the least element outside the closure of
        the generators so far, until that closure is everything.

        In a group each new generator at least doubles the subgroup, so there
        are at most log2 m of them, and none for the trivial group.
        """
        gens: list[int] = []
        closure = np.zeros(1, dtype=np.int64)
        while len(closure) < self.order:
            gens.append(int(np.setdiff1d(np.arange(self.order), closure, assume_unique=True)[0]))
            closure = _power_closure(self, np.array([0, *gens]))[0]
        return gens

    # Element operations (elements are indices).

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv_table[a])

    def commutator(self, a: int, b: int) -> int:
        return int(self.commutators(a, b))

    def long_commutator(self, elems: Sequence[int]) -> int:
        if len(elems) < 2:
            raise ValueError("long commutator needs at least 2 entries")
        acc = elems[0]
        for nxt in elems[1:]:
            acc = self.commutator(acc, nxt)
        return acc

    def conjugate(self, a: int, by: int) -> int:
        t = self.table
        return int(t[t[self.inv_table[by], a], by])

    def elements(self) -> range:
        return range(self.order)

    def random_elements(self, rng: np.random.Generator, count: int) -> list[int]:
        return [int(v) for v in self.sample_batch(rng, count)]

    def all_elements(self, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
        if self.order > cap:
            raise CapExceededError(f"group order {self.order} exceeds enumeration cap {cap}")
        return np.arange(self.order)

    def repeat(self, g: int, n: int) -> np.ndarray:
        return np.full(n, g, dtype=np.int64)

    def stack(self, elems: Sequence[int]) -> np.ndarray:
        return np.array(elems, dtype=np.int64)

    def commutators(self, a, b) -> np.ndarray:
        """[a, b] = a^-1 b^-1 a b entrywise; index arrays broadcast like numpy."""
        t, inv = self.table, self.inv_table
        return t[t[inv[a], inv[b]], t[a, b]]

    def quotients(self, a, b) -> np.ndarray:
        """a b^-1 entrywise."""
        return self.table[a, self.inv_table[b]]

    def identity_mask(self, a: np.ndarray) -> np.ndarray:
        return a == 0

    @cached_property
    def _labels(self) -> np.ndarray:
        """`_orbit_labels` under conjugation x -> g^-1 x g by each generator."""
        t, g = self.table, np.array(self.generators, dtype=np.int64)
        return _orbit_labels(t[t[self.inv_table[g]], g[:, None]])

    def class_labels(self, a) -> np.ndarray:
        """Least member of each entry's class."""
        return self._labels[a]

    def class_sizes(self, a) -> np.ndarray:
        return np.bincount(self._labels)[self._labels[a]]

    def conjugacy_orbit(self, g: int, cap: int | None = None) -> set[int]:
        t = self.table
        orbit = np.unique(t[t[self.inv_table, g], np.arange(self.order)])
        if cap is not None and len(orbit) > cap:
            raise OrbitOverflowError(f"orbit exceeded cap {cap}")
        return set(int(x) for x in orbit)

    def conjugacy_classes(self) -> list[tuple[int, int]]:
        """(representative, size) pairs, each class represented by its least
        member."""
        return list(zip(*_label_classes(self._labels)))

    def class_size(self, g: int) -> int:
        return int(self.class_sizes(g))

    def centralizer_order(self, g: int) -> int:
        """Exact loop: count h with gh = hg."""
        return int(np.count_nonzero(self.table[g, :] == self.table[:, g]))

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, self.order, size=count, dtype=np.int64)

    def __repr__(self) -> str:
        return f"TableGroup({self.name!r}, order={self.order})"


def _power_closure(G: TableGroup, X: np.ndarray) -> tuple[np.ndarray, int]:
    """(X^r, r) for the least r with X^r = X^{r+1}, given indices X containing 0.

    With 1 in X the powers grow, and X^{r+1} = X^r u L X for the newest layer
    L = X^r minus X^{r-1}.  In a finite group the fixed point is <X>.
    """
    X = layer = np.unique(X)
    member = np.zeros(G.order, dtype=bool)
    member[X] = True
    r = 1
    while True:
        prods = G.table[layer[:, None], X].ravel()
        layer = np.unique(prods[~member[prods]])
        if not layer.size:
            return np.flatnonzero(member), r
        member[layer] = True
        r += 1


def subgroup_closure(G: TableGroup, seed: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the given element indices."""
    X = np.append(np.fromiter(seed, dtype=np.int64), 0)
    return frozenset(_power_closure(G, X)[0].tolist())


def is_normal(G: TableGroup, H: Iterable[int]) -> bool:
    """Whether g^-1 h g lies in H for every g in G and h in H."""
    h = np.fromiter(H, dtype=np.int64)
    t = G.table
    return bool(np.isin(t[t[G.inv_table[:, None], h], np.arange(G.order)[:, None]], h).all())


def subgroup_table(G: TableGroup, H: Iterable[int]) -> tuple[TableGroup, list[int]]:
    """Reindex a subgroup as its own TableGroup; returns (group, element list).

    element list maps new indices back to indices in G; index 0 is G's identity.
    """
    members = np.unique(np.fromiter(H, dtype=np.int64))
    if members[0] != 0:
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
    n = np.unique(np.fromiter(N, dtype=np.int64))
    if subgroup_closure(G, n) != frozenset(n.tolist()):
        raise ValueError("element set is not a subgroup")
    if not is_normal(G, n):
        raise ValueError("subgroup is not normal")
    reps, coset_of = np.unique(G.table[:, n].min(axis=1), return_inverse=True)
    tbl = coset_of[G.table[np.ix_(reps, reps)]]
    return TableGroup(tbl, name=f"{G.name}/N{len(n)}"), coset_of


def direct_product(A: TableGroup, B: TableGroup) -> TableGroup:
    """Direct product with index (a, b) -> a * |B| + b."""
    ma, mb = A.order, B.order
    ia, ib = np.divmod(np.arange(ma * mb), mb)
    tbl = A.table[np.ix_(ia, ia)] * mb + B.table[np.ix_(ib, ib)]
    return TableGroup(tbl, name=f"{A.name}x{B.name}")


# Cayley table text format: line 1 "m"; then m lines of m indices in [0, m).


def parse_cayley_table(text: str, name: str = "table") -> TableGroup:
    tokens = text.split()
    if not tokens:
        raise CayleyParseError("empty table source")
    try:
        m = int(tokens[0])
    except ValueError as exc:
        raise CayleyParseError(f"bad order: {tokens[0]!r}") from exc
    if m <= 0:
        raise CayleyParseError("order must be positive")
    if len(tokens) != 1 + m * m:
        raise CayleyParseError(f"expected {m * m} entries, found {len(tokens) - 1}")
    try:
        entries = np.array(tokens[1:], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CayleyParseError(f"bad entry: {exc}") from exc
    return TableGroup(entries.reshape(m, m), name=name)


def load_cayley_table(source: "str | Path | io.TextIOBase", name: str | None = None) -> TableGroup:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return parse_cayley_table(path.read_text(), name=name or path.stem)
    return parse_cayley_table(source.read(), name=name or "table")


def format_cayley_table(G: TableGroup) -> str:
    lines = [str(G.order)]
    lines += [" ".join(str(int(x)) for x in row) for row in G.table]
    return "\n".join(lines) + "\n"
