import hashlib
from collections import Counter

import pytest

from nilprob.groups import format_cayley_table, load_cayley_table
from nilprob.tables import CORPUS_NAMES, corpus, corpus_group, corpus_path

EXPECTED_ORDERS = {
    "trivial": 1, "c2": 2, "c3": 3, "c4": 4, "c5": 5, "c6": 6, "c7": 7, "c8": 8,
    "s3": 6, "d4": 8, "q8": 8, "a4": 12, "heis27": 27,
}

EXPECTED_CLASS_COUNTS = {
    "trivial": 1, "c2": 2, "c3": 3, "c4": 4, "c5": 5, "c6": 6, "c7": 7, "c8": 8,
    "s3": 3, "d4": 5, "q8": 5, "a4": 4, "heis27": 11,
}


def test_orders():
    for name, G in corpus().items():
        assert G.order == EXPECTED_ORDERS[name]


def test_class_counts():
    for name, G in corpus().items():
        assert len(G.conjugacy_classes()) == EXPECTED_CLASS_COUNTS[name]


def test_abelian_flags():
    for name, G in corpus().items():
        expect = name.startswith("c") or name == "trivial"
        assert G.is_abelian == expect, name


# Counts of element orders; for these orders the histogram (with the abelian
# flag) fixes the isomorphism type.  cn is cyclic: it has an element of order n.
EXPECTED_ORDER_HISTOGRAMS = {
    "trivial": {1: 1}, "c2": {1: 1, 2: 1}, "c3": {1: 1, 3: 2},
    "c4": {1: 1, 2: 1, 4: 2}, "c5": {1: 1, 5: 4}, "c6": {1: 1, 2: 1, 3: 2, 6: 2},
    "c7": {1: 1, 7: 6}, "c8": {1: 1, 2: 1, 4: 2, 8: 4},
    "s3": {1: 1, 2: 3, 3: 2}, "d4": {1: 1, 2: 5, 4: 2}, "q8": {1: 1, 2: 1, 4: 6},
    "a4": {1: 1, 2: 3, 3: 8}, "heis27": {1: 1, 3: 26},
}

# A relabelled or edited file changes its digest.
EXPECTED_SHA256 = {
    "trivial": "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea",
    "c2": "39c4e6c347a3a8b171eb668ec5593e70219f84c4d57f852b2f603ecdc9c14cac",
    "c3": "4289d5a3f83bf37e48aeb68e48a288873ecfc75d7b56fdaa827262bdf84455e4",
    "c4": "9cb9fe35da8879b0c6de93c3db51eeca2e84a6fd03230cb4529463ed70358528",
    "c5": "9d45ccffdbcfe100b7367256f8987a92a224c02f8cb580368e3e52bde3384cf6",
    "c6": "119ccfe268ddd71f663e63249078b805f3d4a7d384ab6e60ddcc2f1de98b4e53",
    "c7": "4630732ba29bc20aaa6c0a66c9e3c1840d587561176d391d2977fc0a995e2734",
    "c8": "75e91952680bc9be0117fdf34d7e86b64478ce7394aca18a3150d65f8cc513b0",
    "s3": "4ac35e365a1a3d593b9a639bcd1b988b60dda5e532ad58701dabe8b1b1a04085",
    "d4": "96a5a4672f20870227ffd72f083007d926cc65757708fde6898f5f494dfa004c",
    "q8": "06c4ac5293b43172f9aa6563c9a6420015201b5c423c9da9795242ec572074e1",
    "a4": "93ac522300ec2d688c95e25ca9a2321e48bf14f90bb4bc29469e0e7a12a3f030",
    "heis27": "0261a80f916a387feac2bf169a39c4d0a460b17212bcc0bd8367413cdb25c8b3",
}


def _element_order(G, g: int) -> int:
    k, x = 1, g
    while x != 0:
        k, x = k + 1, G.mul(x, g)
    return k


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_element_order_histogram(name):
    G = corpus_group(name)
    assert Counter(_element_order(G, g) for g in G.elements()) == EXPECTED_ORDER_HISTOGRAMS[name]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_shipped_file_digest(name):
    assert hashlib.sha256(corpus_path(name).read_bytes()).hexdigest() == EXPECTED_SHA256[name]


def test_shipped_files_are_the_corpus():
    shipped = {p.stem for p in corpus_path("trivial").parent.glob("*.tbl")}
    assert shipped == set(CORPUS_NAMES)
    assert all(corpus_group(name).name == name for name in CORPUS_NAMES)


def test_format_roundtrip(tmp_path):
    G = corpus_group("c5")
    p = tmp_path / "c5.tbl"
    p.write_text(format_cayley_table(G))
    again = load_cayley_table(p)
    assert (again.table == G.table).all()


def test_unknown_name():
    with pytest.raises(KeyError):
        corpus_group("nope")
    with pytest.raises(KeyError):
        corpus_path("nope")
