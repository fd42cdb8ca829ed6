"""Builders for the shipped Cayley-table corpus.

Corpus: trivial, C2..C8, S3, D4, Q8, A4, and the Heisenberg group of order
27.  Tables are also shipped as text files under nilprob/corpus/ (see
corpus_path); builders and files are tested to agree.
"""

from __future__ import annotations

import itertools
from importlib import resources
from pathlib import Path

import numpy as np

from .groups import TableGroup


def trivial() -> TableGroup:
    return TableGroup([[0]], name="trivial")


def cyclic(n: int) -> TableGroup:
    idx = np.arange(n)
    return TableGroup((idx[:, None] + idx[None, :]) % n, name=f"c{n}")


def _perm_table(perms: list[tuple[int, ...]], name: str) -> TableGroup:
    # (sigma . tau)(i) = sigma(tau(i)); identity must sit at index 0.
    pos = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    tbl = [
        [pos[tuple(sigma[t] for t in tau)] for tau in perms]
        for sigma in perms
    ]
    return TableGroup(np.array(tbl), name=name)


def symmetric3() -> TableGroup:
    return _perm_table(list(itertools.permutations(range(3))), "s3")


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return inversions % 2


def alternating4() -> TableGroup:
    perms = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    return _perm_table(perms, "a4")


def dihedral4() -> TableGroup:
    """Symmetries of the square: element r^a s^b with index a + 4b."""
    def mul(x: int, y: int) -> int:
        a1, b1 = x % 4, x // 4
        a2, b2 = y % 4, y // 4
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        return a + 4 * ((b1 + b2) % 2)

    tbl = [[mul(x, y) for y in range(8)] for x in range(8)]
    return TableGroup(np.array(tbl), name="d4")


def quaternion8() -> TableGroup:
    """Unit quaternions {+-1, +-i, +-j, +-k}; index = axis + 4 * sign."""
    # axis products: (axis, axis) -> (sign, axis) with 0 = 1, 1 = i, 2 = j, 3 = k
    unit = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }

    def mul(x: int, y: int) -> int:
        ax, sx = x % 4, x // 4
        ay, sy = y % 4, y // 4
        s, a = unit[(ax, ay)]
        return a + 4 * ((sx + sy + s) % 2)

    tbl = [[mul(x, y) for y in range(8)] for x in range(8)]
    return TableGroup(np.array(tbl), name="q8")


def heisenberg3() -> TableGroup:
    """Upper unitriangular 3x3 matrices over F_3; index = 9a + 3b + c."""
    def mul(x: int, y: int) -> int:
        a1, b1, c1 = x // 9, (x // 3) % 3, x % 3
        a2, b2, c2 = y // 9, (y // 3) % 3, y % 3
        a, b = (a1 + a2) % 3, (b1 + b2) % 3
        c = (c1 + c2 + a1 * b2) % 3
        return 9 * a + 3 * b + c

    tbl = [[mul(x, y) for y in range(27)] for x in range(27)]
    return TableGroup(np.array(tbl), name="heis27")


_BUILDERS = {
    "trivial": trivial,
    "c2": lambda: cyclic(2),
    "c3": lambda: cyclic(3),
    "c4": lambda: cyclic(4),
    "c5": lambda: cyclic(5),
    "c6": lambda: cyclic(6),
    "c7": lambda: cyclic(7),
    "c8": lambda: cyclic(8),
    "s3": symmetric3,
    "d4": dihedral4,
    "q8": quaternion8,
    "a4": alternating4,
    "heis27": heisenberg3,
}
CORPUS_NAMES = tuple(_BUILDERS)


def corpus_group(name: str) -> TableGroup:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown corpus group {name!r}; known: {CORPUS_NAMES}") from None


def corpus() -> dict[str, TableGroup]:
    return {name: corpus_group(name) for name in CORPUS_NAMES}


def corpus_path(name: str) -> Path:
    """Path of the shipped .tbl file for a corpus group."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus group {name!r}")
    return Path(str(resources.files("nilprob").joinpath("corpus", f"{name}.tbl")))
