"""The shipped Cayley-table corpus: one text file per group under
nilprob/corpus/ (see corpus_path), in the format of groups.load_cayley_table.

Element labelling, index 0 being the identity throughout:
  trivial: the single element 0.
  c2..c8 (cn): index k is the residue k mod n; the product is addition mod n.
  s3, a4: the permutations of range(3), resp. the even permutations of
    range(4), in itertools.permutations order; (sigma tau)(i) = sigma(tau(i)).
  d4: symmetries of the square, r^a s^b at index a + 4b.
  q8: unit quaternions {+-1, +-i, +-j, +-k}; index = axis + 4 * sign, with
    axes 0 = 1, 1 = i, 2 = j, 3 = k and sign 0 for +, 1 for -.
  heis27: upper unitriangular 3x3 matrices over F_3 with a at (1, 2), b at
    (2, 3) and c at (1, 3); index = 9a + 3b + c.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .groups import TableGroup, load_cayley_table

CORPUS_NAMES = (
    "trivial", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "s3", "d4", "q8", "a4", "heis27",
)


def corpus_group(name: str) -> TableGroup:
    return load_cayley_table(corpus_path(name))


def corpus() -> dict[str, TableGroup]:
    return {name: corpus_group(name) for name in CORPUS_NAMES}


def corpus_path(name: str) -> Path:
    """Path of the shipped .tbl file for a corpus group."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus group {name!r}; known: {CORPUS_NAMES}")
    return Path(str(resources.files("nilprob").joinpath("corpus", f"{name}.tbl")))
