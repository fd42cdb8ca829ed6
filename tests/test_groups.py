import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilprob import stats
from nilprob._batch import BatchAlg
from nilprob.algebra import AlgebraElement, AlgebraParams, alg_mul, lie_bracket
from nilprob.errors import (
    CapExceededError,
    CayleyAssociativityError,
    CayleyIdentityError,
    CayleyParseError,
    CayleyPermutationError,
    OrbitOverflowError,
    ParamsMismatchError,
)
from nilprob.fieldlin import BilinearForm
from nilprob.groups import (
    AlgebraGroup,
    GroupElement,
    TableGroup,
    _power_closure,
    commutator,
    direct_product,
    format_cayley_table,
    load_cayley_table,
    parse_cayley_table,
    is_normal,
    quotient_table,
    subgroup_closure,
    subgroup_table,
)
from nilprob.structure import (
    derived_series,
    lower_central_series,
    power_closure_radius,
    upper_central_series,
)
from nilprob.tables import CORPUS_NAMES, corpus_group


class TestFamilyElements:
    def test_mul_inverse_identity(self, family21):
        rng = np.random.default_rng(0)
        for g in family21.random_elements(rng, 100):
            assert family21.mul(g, family21.inverse(g)) == family21.identity
            assert family21.mul(family21.inverse(g), g) == family21.identity

    def test_inverse_of_identity(self, family21):
        assert family21.inverse(family21.identity) == family21.identity

    def test_generator_product_components(self, params21):
        # (1+e1)(1+e1') = 1 + e1 + e1' + e1 (x) e1'
        z = ((0, 0), (0, 0))
        e1 = GroupElement.from_l1(AlgebraElement(params21, 0, (1, 0), z, (0, 0), 0))
        e1p = GroupElement.from_l1(AlgebraElement(params21, 0, (0, 1), z, (0, 0), 0))
        prod = AlgebraGroup(params21).mul(e1, e1p)
        assert prod.r1 == (1, 1)
        assert prod.r2 == ((0, 1), (0, 0))
        assert prod.r3 == (0, 0)
        assert prod.c4 == 0

    def test_coords_roundtrip(self, family22):
        rng = np.random.default_rng(1)
        for g in family22.random_elements(rng, 30):
            assert GroupElement.from_coords(family22.params, g.coords()) == g

    def test_from_indices(self, family21):
        G, idx = family21, np.array([0, 5, 511, 5])
        assert np.array_equal(G.batch.coords(G.from_indices(idx)),
                              G.batch.coords(G.all_elements())[idx])
        for bad in (-1, 512):
            with pytest.raises(ValueError, match=rf"element index {bad} outside \[0, 512\)"):
                G.from_indices([0, bad])

    def test_params_mismatch(self, family21, family22):
        with pytest.raises(ParamsMismatchError):
            commutator(family21.identity, family22.identity)

    @pytest.mark.parametrize("call", [
        lambda G, g, h: G.stack([g, h]), lambda G, g, h: G.repeat(g, 2),
        lambda G, g, h: G.class_size(g), lambda G, g, h: G.conjugacy_orbit(g),
        lambda G, g, h: G.mul(g, h), lambda G, g, h: G.inverse(g),
        lambda G, g, h: G.commutator(g, h), lambda G, g, h: G.long_commutator([g, h]),
        lambda G, g, h: G.conjugate(g, h),
    ], ids=["stack", "repeat", "class_size", "conjugacy_orbit", "mul", "inverse",
            "commutator", "long_commutator", "conjugate"])
    def test_method_rejects_other_params(self, family21, family31, call):
        # (2,1) and (3,1) share dim_l1 = 9, so only the params tell them apart
        g, h = family31.generators[0], family31.generators[1]
        with pytest.raises(ParamsMismatchError):
            call(family21, g, h)

    def test_associativity_sampled(self, family22):
        rng = np.random.default_rng(2)
        eng = family22.batch
        a, b, c = (family22.sample_batch(rng, 10**4) for _ in range(3))
        left = eng.grp_mul(eng.grp_mul(a, b), c)
        right = eng.grp_mul(a, eng.grp_mul(b, c))
        assert all(np.array_equal(u, v) for u, v in zip(left, right))


class TestCommutators:
    def test_commutator_with_identity(self, family21):
        rng = np.random.default_rng(3)
        for g in family21.random_elements(rng, 20):
            assert commutator(g, family21.identity) == family21.identity

    def test_bracket_relation(self, family22):
        # [1+x, 1+y] = 1 + (1+x)^-1 (1+y)^-1 [x, y]
        rng = np.random.default_rng(4)
        params = family22.params
        for _ in range(50):
            g, h = family22.random_elements(rng, 2)
            # 1 + a and a as algebra elements: the digits after c0 = 1 or 0
            u = alg_mul(*(AlgebraElement.of(params, (1, *family22.inverse(k).digits)) for k in (g, h)))
            x, y = (AlgebraElement.of(params, (0, *k.digits)) for k in (g, h))
            assert commutator(g, h) == GroupElement.from_l1(alg_mul(u, lie_bracket(x, y)))

    def test_triple_commutator_is_lie3_mod_l4(self, family22, embed_r1):
        # [1+x, 1+y, 1+z] = 1 + [x,y,z] modulo the R4 component
        rng = np.random.default_rng(5)
        eng = family22.batch
        d = family22.params.d
        n = 2000
        x, y, z = (rng.integers(0, 2, (n, d)) for _ in range(3))
        stacks = [embed_r1(eng, v) for v in (x, y, z)]
        comm = eng.long_commutator(stacks)
        assert not comm.r1.any()
        assert not comm.r2.any()
        assert np.array_equal(comm.r3, eng.lie3(x, y, z))

    def test_quadruple_commutator_is_lie4(self, family22, embed_r1):
        rng = np.random.default_rng(6)
        eng = family22.batch
        d = family22.params.d
        n = 2000
        vs = [rng.integers(0, 2, (n, d)) for _ in range(4)]
        comm = eng.long_commutator([embed_r1(eng, v) for v in vs])
        assert not comm.r1.any()
        assert not comm.r2.any()
        assert not comm.r3.any()
        assert np.array_equal(comm.c4, eng.lie4(*vs))

    def test_five_fold_commutators_trivial(self, family22):
        rng = np.random.default_rng(7)
        eng = family22.batch
        stacks = [family22.sample_batch(rng, 3000) for _ in range(5)]
        assert eng.is_identity(eng.long_commutator(stacks)).all()

    def test_long_commutator_needs_two(self, family21):
        with pytest.raises(ValueError):
            family21.long_commutator([family21.identity])


# The arithmetic entry points of the engine; the spy counts only the calls
# made from outside it.
ENGINE_OPS = ("mul", "lie_bracket", "add", "sub", "lie3", "lie4", "grp_mul", "grp_inv",
              "commutator", "long_commutator", "trivial_long_commutator", "conjugate")

ELEMENT_PARAMS = {
    "hyperbolic-2-1": lambda: AlgebraParams.hyperbolic(2, 1),
    "hyperbolic-3-1": lambda: AlgebraParams.hyperbolic(3, 1),
    "hyperbolic-2-2": lambda: AlgebraParams.hyperbolic(2, 2),
    "dense-3-d2": lambda: AlgebraParams(BilinearForm.from_rows(3, [[1, 2], [1, 1]])),
}


def reference_long_commutator(elems):
    acc = elems[0]
    for g in elems[1:]:
        acc = commutator(acc, g)
    return acc


class TestElementOperations:
    """Each family element method is one engine call on one-row stacks, and
    equals the definitional composition `groups.commutator`."""

    @pytest.mark.parametrize("method, arity, entry", [
        ("mul", 2, "grp_mul"), ("inverse", 1, "grp_inv"), ("commutator", 2, "commutator"),
        ("conjugate", 2, "conjugate"), ("long_commutator", 4, "long_commutator"),
    ])
    def test_one_engine_call(self, monkeypatch, family22, method, arity, entry):
        eng, calls, depth = family22.batch, [], [0]

        def spy(name, op):
            def call(*args):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return op(*args)
                finally:
                    depth[0] -= 1
            return call

        for name in ENGINE_OPS:
            monkeypatch.setattr(eng, name, spy(name, getattr(eng, name)))
        elems = family22.random_elements(np.random.default_rng(12), arity)
        args = [elems] if method == "long_commutator" else elems
        getattr(family22, method)(*args)
        assert calls == [entry]

    @pytest.mark.parametrize("name", list(ELEMENT_PARAMS))
    def test_methods_equal_reference_compositions(self, name):
        G = AlgebraGroup(ELEMENT_PARAMS[name]())
        params, rng = G.params, np.random.default_rng(13)

        def algebra(g, c0=1):   # 1 + a as an algebra element
            return AlgebraElement.of(params, (c0, *g.digits))

        for _ in range(10):
            g, h, *rest = G.random_elements(rng, 5)
            assert algebra(G.mul(g, h)) == alg_mul(algebra(g), algebra(h))
            assert G.mul(g, G.inverse(g)) == G.mul(G.inverse(g), g) == G.identity
            assert G.commutator(g, h) == commutator(g, h)
            # g^h = g [g, h]
            assert G.conjugate(g, h) == G.mul(g, commutator(g, h))
            elems = [g, h, *rest]
            for k in range(2, 6):
                assert G.long_commutator(elems[:k]) == reference_long_commutator(elems[:k])
            assert G.long_commutator(elems) == G.identity   # class 4

    def test_reference_commutator_uses_no_closed_form(self, monkeypatch, family22):
        # perfbench's check that batch commutators equal scalar ones compares
        # two routes only while groups.commutator avoids BatchAlg.commutator
        g, h = family22.random_elements(np.random.default_rng(14), 2)
        expect = family22.commutator(g, h)

        def closed_form(*args):
            raise AssertionError("BatchAlg.commutator called")

        monkeypatch.setattr(BatchAlg, "commutator", closed_form)
        assert commutator(g, h) == expect


class TestOrbits:
    def test_central_element(self, family21):
        # the R4 direction commutes with everything
        central = GroupElement.from_coords(
            family21.params, (0,) * (family21.dim_l1 - 1) + (1,)
        )
        assert family21.conjugacy_orbit(central) == {central}
        assert family21.order // family21.class_size(central) == family21.order

    def test_orbit_matches_full_conjugation(self, family21):
        rng = np.random.default_rng(8)
        everything = list(family21.elements())
        for g in family21.random_elements(rng, 5):
            brute = {family21.conjugate(g, h) for h in everything}
            assert family21.conjugacy_orbit(g) == brute

    def test_orbit_conjugation_invariant(self, family22):
        rng = np.random.default_rng(9)
        g = family22.random_elements(rng, 1)[0]
        orbit = family22.conjugacy_orbit(g)
        for gen in family22.generators:
            assert all(family22.conjugate(x, gen) in orbit for x in orbit)

    def test_commutator_class_sizes_at_most_8(self, family22):
        rng = np.random.default_rng(10)
        for _ in range(200):
            g, h = family22.random_elements(rng, 2)
            assert family22.class_size(commutator(g, h)) <= 8

    def test_orbit_cap(self, family22):
        rng = np.random.default_rng(11)
        g = family22.random_elements(rng, 1)[0]
        s3 = corpus_group("s3")
        size = s3.class_size(1)   # 2 or 3: element 1 is not central
        for G, x, cap in ((family22, g, 1), (s3, 1, size - 1)):
            with pytest.raises(OrbitOverflowError):
                G.conjugacy_orbit(x, cap=cap)
        assert len(s3.conjugacy_orbit(1, cap=size)) == size

    def test_classes_partition(self, family21):
        classes = family21.conjugacy_classes()
        assert sum(size for _, size in classes) == family21.order
        assert all(family21.order % size == 0 for _, size in classes)

    def test_class_cap_checked_before_cache(self, params21):
        G = AlgebraGroup(params21)
        assert G.conjugacy_classes(cap=G.order)
        with pytest.raises(CapExceededError):
            G.conjugacy_classes(cap=G.order - 1)

    def test_table_class_cap(self):
        A4 = corpus_group("a4")
        assert len(A4.conjugacy_classes(cap=12)) == 4
        with pytest.raises(CapExceededError):
            A4.conjugacy_classes(cap=11)


class TestClassSizes:
    """Class sizes by rank, p^rank(ad_a), against orbit closure."""

    @pytest.mark.parametrize("name", ["family21", "family31"])
    def test_match_orbit_closure_on_every_element(self, request, name):
        G = request.getfixturevalue(name)
        covered = 0
        for rep, size in G.conjugacy_classes(cap=1 << 15):
            orbit = sorted(G.conjugacy_orbit(rep))
            assert len(orbit) == size
            assert G.class_sizes(G.stack(orbit)).tolist() == [size] * size
            covered += size
        assert covered == G.order

    @pytest.mark.parametrize("p", [2, 3])
    def test_match_orbit_closure_seeded_n2(self, p):
        G = AlgebraGroup(AlgebraParams.hyperbolic(p, 2))
        rng = np.random.default_rng(20 + p)
        # generic classes have p^8 members: few at p = 3, where closing one takes seconds
        elems = G.random_elements(rng, 6 if p == 2 else 2)
        pairs = G.random_elements(rng, 12)
        elems += [commutator(g, h) for g, h in zip(pairs[::2], pairs[1::2])]
        sizes = G.class_sizes(G.stack(elems)).tolist()
        assert sizes == [len(G.conjugacy_orbit(g)) for g in elems]
        assert sizes == [G.class_size(g) for g in elems]
        assert all(G.order // G.class_size(g) * s == G.order for g, s in zip(elems, sizes))

    def test_exact_beyond_int64_order(self):
        # |G| = 3^49: sizes are Python ints, so order // size stays exact
        G = AlgebraGroup(AlgebraParams.hyperbolic(3, 3))
        g = G.random_elements(np.random.default_rng(4), 1)[0]
        size = G.class_size(g)
        rank = round(math.log(size, 3))
        assert size == 3**rank and G.order // size == 3 ** (49 - rank)


class TestTableGroup:
    def test_s3_loads_with_three_classes(self, tmp_path):
        s3 = corpus_group("s3")
        path = tmp_path / "s3.tbl"
        path.write_text(format_cayley_table(s3))
        loaded = load_cayley_table(path)
        assert loaded.order == 6
        assert len(loaded.conjugacy_classes()) == 3

    def test_long_commutators_match_scalar_fold(self):
        G = corpus_group("a4")
        rng = np.random.default_rng(3)
        stacks = [rng.integers(0, G.order, 200) for _ in range(4)]
        got = G.long_commutators(iter(stacks))
        for i in range(200):
            acc = int(stacks[0][i])
            for s in stacks[1:]:
                acc = G.commutator(acc, int(s[i]))
            assert got[i] == acc == G.long_commutator([int(s[i]) for s in stacks])
        for entries in ([], [stacks[0]], iter([stacks[0]])):
            with pytest.raises(ValueError):
                G.long_commutators(entries)
        with pytest.raises(ValueError):
            G.long_commutator([1])

    def test_table_not_shared_with_caller(self):
        # the group keeps its own read-only copy: it stays the validated group
        t = corpus_group("c3").table.copy()
        G = TableGroup(t)
        t[1, 1] = 1
        assert G.mul(1, 1) == 2
        assert G.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        for arr in (G.table, G.inv_table):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_trivial_table(self):
        g = parse_cayley_table("1\n0\n")
        assert g.order == 1
        assert len(g.conjugacy_classes()) == 1

    def test_repeated_index_rejected(self):
        with pytest.raises(CayleyPermutationError):
            parse_cayley_table("2\n0 0\n1 0\n")

    def test_identity_violation(self):
        # rows/columns are permutations but index 0 is not the identity
        with pytest.raises(CayleyIdentityError):
            parse_cayley_table("2\n1 0\n0 1\n")

    def test_associativity_failure(self):
        # a quasigroup that is not a group: rows/cols are permutations,
        # 0 is a two-sided identity, but associativity fails
        text = "5\n" + "\n".join(
            " ".join(map(str, row))
            for row in [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
        with pytest.raises(CayleyAssociativityError):
            parse_cayley_table(text)

    def test_parse_errors(self):
        with pytest.raises(CayleyParseError):
            parse_cayley_table("")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 x\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 5\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 1.5\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 99999999999999999999\n")   # overflows int64
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 -99999999999999999999\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table(" \n\t")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("x\n0 1\n1 0\n")
        with pytest.raises(CayleyParseError):
            parse_cayley_table("2\n0 1\n1 0x1\n")

    @pytest.mark.parametrize("table", [[[0, 1.5], [1.5, 0]], np.array([[0, 1.9], [1.2, 0]]),
                                       [[0, "1"], ["1", 0]], [[0, float("nan")], [1, 0]]],
                             ids=["list-1.5", "array-1.9", "strings", "nan"])
    def test_non_integer_entries_rejected(self, table):
        with pytest.raises(CayleyParseError, match="^table entries must be integers$"):
            TableGroup(table)

    def test_whole_float_entries_accepted(self):
        G = TableGroup(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert G.table.dtype == np.int64 and G.table.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("big", [2**64, -(2**64), 2**63])
    def test_entry_past_int64_rejected(self, big):
        with pytest.raises(CayleyParseError, match=r"^table entries must lie in \[0, m\)$"):
            TableGroup([[0, big], [1, 0]])

    def test_ragged_table_rejected(self):
        with pytest.raises(CayleyParseError, match="^table must be square$"):
            TableGroup([[0, 1], [1]])

    def test_parse_any_whitespace(self):
        G = parse_cayley_table(" 2\t0 1\r\n1\t0")
        assert G.table.tolist() == [[0, 1], [1, 0]]

    def test_class_size_times_centralizer_is_order(self, corpus_groups):
        for G in corpus_groups.values():
            for g in G.elements():
                # orbit-stabilizer, with |C(g)| counted from the table
                centralizer = np.count_nonzero(G.table[g] == G.table[:, g])
                assert G.class_size(g) * centralizer == G.order

    def test_classes_partition_and_divide(self, corpus_groups):
        for G in corpus_groups.values():
            classes = G.conjugacy_classes()
            assert sum(s for _, s in classes) == G.order
            assert all(G.order % s == 0 for _, s in classes)

    def test_conjugacy_orbit_matches_loop(self):
        G = corpus_group("a4")
        for g in G.elements():
            brute = {G.conjugate(g, h) for h in G.elements()}
            assert G.conjugacy_orbit(g) == brute


class TestSubQuotientProduct:
    def test_subgroup_closure_and_table(self):
        s3 = corpus_group("s3")
        rot = next(g for g in s3.elements() if g != 0 and s3.mul(g, s3.mul(g, g)) == 0)
        H = subgroup_closure(s3, {rot})
        assert len(H) == 3
        Hgrp, members = subgroup_table(s3, H)
        assert Hgrp.order == 3
        assert members[0] == 0

    def test_subgroup_table_rejects_empty_set(self):
        with pytest.raises(ValueError, match="identity"):
            subgroup_table(corpus_group("s3"), [])

    def test_subgroup_table_rejects_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"element index 9 outside \[0, 6\)"):
            subgroup_table(corpus_group("s3"), [0, 9])

    def test_quotient_by_center(self):
        q8 = corpus_group("q8")
        center = frozenset(g for g in q8.elements() if q8.class_size(g) == 1)
        assert len(center) == 2
        Q, coset_of = quotient_table(q8, center)
        assert Q.order == 4
        assert Q.is_abelian

    def test_quotient_requires_normal(self):
        s3 = corpus_group("s3")
        refl = next(g for g in s3.elements() if g != 0 and s3.mul(g, g) == 0)
        H = subgroup_closure(s3, {refl})
        with pytest.raises(ValueError):
            quotient_table(s3, H)

    @pytest.mark.parametrize("name,N", [("c4", {0, 1}), ("c8", {0, 1, 7}), ("c4", {1})])
    def test_quotient_requires_subgroup(self, name, N):
        with pytest.raises(ValueError, match="not a subgroup"):
            quotient_table(corpus_group(name), N)

    def test_direct_product_order_and_commutativity(self):
        c2, c3 = corpus_group("c2"), corpus_group("c3")
        prod = direct_product(c2, c3)
        assert prod.order == 6
        assert prod.is_abelian
        s3xs3 = direct_product(corpus_group("s3"), corpus_group("s3"))
        assert s3xs3.order == 36
        assert not s3xs3.is_abelian

    @pytest.mark.parametrize("a, b", [("c2", "s3"), ("s3", "c2"), ("trivial", "q8"),
                                      ("q8", "trivial"), ("heis27", "a4")])
    @pytest.mark.parametrize("seed", [None, 11])
    def test_direct_product_matches_gathers(self, a, b, seed):
        A, B = corpus_group(a), corpus_group(b)
        if seed is not None:
            A, B = relabelled(A, seed), relabelled(B, seed + 1)
        mb = B.order
        ia, ib = np.divmod(np.arange(A.order * mb), mb)
        want = A.table[np.ix_(ia, ia)] * mb + B.table[np.ix_(ib, ib)]
        got = direct_product(A, B).table
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


# Per-element loop references for the table gathers in groups and the closure
# loop shared with structure.power_closure_radius.


def ref_subgroup_closure(G, seed):
    elems = {0} | set(int(s) for s in seed)
    frontier = list(elems)
    while frontier:
        new = []
        current = list(elems)
        for x in frontier:
            xi = G.inverse(x)
            if xi not in elems:
                elems.add(xi)
                new.append(xi)
            for y in current:
                for z in (G.mul(x, y), G.mul(y, x)):
                    if z not in elems:
                        elems.add(z)
                        new.append(z)
        frontier = new
    return frozenset(elems)


def ref_is_normal(G, H):
    return all(G.conjugate(h, g) in H for h in H for g in G.elements())


def ref_subgroup_table(G, H):
    members = sorted(set(int(h) for h in H))
    if not members or members[0] != 0:
        raise ValueError("subgroup must contain the identity 0")
    pos = {g: i for i, g in enumerate(members)}
    try:
        tbl = [[pos[G.mul(a, b)] for b in members] for a in members]
    except KeyError as exc:
        raise ValueError("element set is not closed under multiplication") from exc
    return np.array(tbl), members


def ref_quotient_table(G, N):
    """Cosets numbered in order of first appearance; N must be a normal subgroup."""
    coset_of = -np.ones(G.order, dtype=np.int64)
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        members = sorted(G.mul(g, n) for n in N)
        coset_of[members] = len(reps)
        reps.append(members[0])
    k = len(reps)
    tbl = [[int(coset_of[G.mul(reps[a], reps[b])]) for b in range(k)] for a in range(k)]
    return np.array(tbl), coset_of


def ref_power_closure_radius(G, X):
    x_arr = np.array(sorted(X), dtype=np.int64)
    cur, r = x_arr, 1
    while True:
        nxt = np.unique(G.table[np.ix_(cur, x_arr)])
        if np.array_equal(nxt, cur):
            return r
        cur, r = nxt, r + 1


ORACLE_GROUPS = CORPUS_NAMES + ("d4xc2", "s3xc3")


@pytest.fixture(scope="session")
def oracle_groups(corpus_groups):
    return {
        **corpus_groups,
        "d4xc2": direct_product(corpus_group("d4"), corpus_group("c2")),
        "s3xc3": direct_product(corpus_group("s3"), corpus_group("c3")),
    }


def element_sets(data, G):
    return data.draw(st.sets(st.integers(0, G.order - 1), max_size=4))


def outcome(fn, *args):
    """fn's result, or "ValueError" if it raised one."""
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize("name", ORACLE_GROUPS)
class TestTableGathersMatchLoops:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_subgroup_closure(self, oracle_groups, name, data):
        G = oracle_groups[name]
        seed = element_sets(data, G)
        assert subgroup_closure(G, seed) == ref_subgroup_closure(G, seed)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_is_normal(self, oracle_groups, name, data):
        G = oracle_groups[name]
        seed = element_sets(data, G)
        for H in (frozenset(seed | {0}), ref_subgroup_closure(G, seed)):
            assert is_normal(G, H) == ref_is_normal(G, H)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_subgroup_table(self, oracle_groups, name, data):
        G = oracle_groups[name]
        seed = element_sets(data, G)
        for H in (seed | {0}, seed, ref_subgroup_closure(G, seed)):
            got, want = outcome(subgroup_table, G, H), outcome(ref_subgroup_table, G, H)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got[0].table, want[0]) and got[1] == want[1]

    @settings(max_examples=25)
    @given(data=st.data())
    def test_quotient_table(self, oracle_groups, name, data):
        G = oracle_groups[name]
        H = ref_subgroup_closure(G, element_sets(data, G))
        if not ref_is_normal(G, H):
            with pytest.raises(ValueError, match="not normal"):
                quotient_table(G, H)
            return
        Q, coset_of = quotient_table(G, H)
        tbl, ref_coset_of = ref_quotient_table(G, H)
        assert np.array_equal(Q.table, tbl)
        assert np.array_equal(coset_of, ref_coset_of)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_power_closure_radius(self, oracle_groups, name, data):
        G = oracle_groups[name]
        X = {0} | {h for g in element_sets(data, G) for h in (g, G.inverse(g))}
        assert power_closure_radius(G, X) == ref_power_closure_radius(G, X)


class TestPowerClosure:
    @pytest.mark.parametrize("k", [0, 2])
    def test_no_rows(self, k):
        G = corpus_group("s3")
        S = np.zeros((0, G.order), dtype=bool)
        got, r = _power_closure(G, S, np.zeros((0, k), dtype=np.int64))
        assert got is S and got.shape == (0, 6) and r == 1

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_padded_rows_close_to_reference(self, oracle_groups, name, data):
        # each row holds 0 and its seed, with the seed as its generators,
        # padded with the identity 0 to the longest seed
        G = oracle_groups[name]
        seeds = data.draw(st.lists(st.lists(st.integers(0, G.order - 1), max_size=4),
                                   min_size=1, max_size=5))
        S = np.zeros((len(seeds), G.order), dtype=bool)
        gens = np.zeros((len(seeds), max(map(len, seeds))), dtype=np.int64)
        for i, seed in enumerate(seeds):
            S[i, [0, *seed]] = True
            gens[i, : len(seed)] = seed
        _power_closure(G, S, gens)
        for row, seed in zip(S, seeds):
            assert frozenset(np.flatnonzero(row).tolist()) == ref_subgroup_closure(G, seed)

    def test_generators_match_reference(self, oracle_groups):
        groups = list(oracle_groups.values())
        groups += [relabelled(direct_product(corpus_group(a), corpus_group(b)), seed)
                   for seed, (a, b) in enumerate([("d4", "c4"), ("q8", "c2"), ("s3", "c6")])]
        for G in groups:
            assert G.generators == ref_generators(G.table), G.name

    def test_half_group_seed_memory(self):
        # the closure takes at most log2 |G| + 1 seed elements as generators;
        # closing under all 432 would gather 432 x 432 products at once
        G = direct_product(direct_product(corpus_group("heis27"), corpus_group("d4")),
                           corpus_group("c4"))
        seed = range(G.order // 2)
        want = subgroup_closure(G, seed)
        tracemalloc.start()
        try:
            assert subgroup_closure(G, seed) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.order == 864 and peak < 2**19


def relabelled(G, seed):
    """G with its non-identity elements renamed by a seeded permutation."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(G.order - 1)])
    t = np.empty_like(G.table)
    t[np.ix_(perm, perm)] = perm[G.table]
    return TableGroup(t, name=f"{G.name}~{seed}")


def ref_commutators(G, a, b):
    """a^-1 b^-1 a b by the definition, with inverses found from the table."""
    t = G.table
    inv = np.argmax(t == 0, axis=1)
    a, b = np.asarray(a), np.asarray(b)
    return t[t[inv[a], inv[b]], t[a, b]]


class TestCommutatorTable:
    @settings(max_examples=30)
    @given(names=st.lists(st.sampled_from(CORPUS_NAMES), min_size=1, max_size=2),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_definition(self, names, seed, data):
        G = relabelled(reduce(direct_product, [corpus_group(n) for n in names]), seed)
        m = G.order
        idx = st.integers(0, m - 1)
        a, b = data.draw(idx), data.draw(idx)
        stack = np.array(data.draw(st.lists(idx, min_size=1, max_size=20)), dtype=np.int64)
        col, row = stack[:, None], np.arange(m)[None, :]
        for x, y in ((a, b), (a, stack), (stack, b), (col, row)):
            got = G.commutators(x, y)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref_commutators(G, x, y))
        assert G.commutator(a, b) == ref_commutators(G, a, b)
        for bad in (-1, m):
            with pytest.raises(ValueError, match=rf"element index {bad} outside \[0, {m}\)"):
                G.commutators(a, bad)
            with pytest.raises(ValueError, match=rf"element index {bad} outside"):
                G.commutators(np.append(stack, bad), b)

    @settings(max_examples=30)
    @given(names=st.lists(st.sampled_from(CORPUS_NAMES), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_commutator_set_is_the_table_values(self, names, seed):
        G = relabelled(reduce(direct_product, [corpus_group(n) for n in names]), seed)
        every = np.arange(G.order)
        values = np.unique(ref_commutators(G, every[:, None], every[None, :])).tolist()
        assert stats.commutator_set(G) == values

    def test_order_one(self):
        G = TableGroup([[0]])
        assert G.commutators(0, 0) == 0 and G.commutators(0, 0).dtype == np.int64
        assert G.commutator_table.dtype == np.uint8
        for bad in (-1, 1):
            with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
                G.commutators(bad, 0)

    def test_s3_flat_index_does_not_wrap_rows(self):
        s3 = corpus_group("s3")
        with pytest.raises(ValueError, match=r"element index 7 outside \[0, 6\)"):
            s3.commutators(0, 7)

    def test_built_on_first_commutator_only(self):
        G = direct_product(corpus_group("a4"), corpus_group("d4"))
        G.conjugacy_classes()
        stats.d1_exact(G)
        assert "commutator_table" not in vars(G)
        G.commutators(1, 2)
        assert vars(G)["commutator_table"].dtype == np.uint8

    def test_table_is_read_only(self):
        comm = corpus_group("s3").commutator_table
        assert comm.shape == (6, 6)
        with pytest.raises(ValueError, match="read-only"):
            comm[0, 1] = 1

    @pytest.mark.parametrize("factors", [(name,) for name in CORPUS_NAMES]
                             + [("heis27", "a4"), ("a4", "d4", "s3"), ("heis27", "d4", "c4")],
                             ids="x".join)
    def test_whole_table_matches_definition(self, factors):
        # orders 324, 576 and 864 end in a short block of rows
        G = reduce(direct_product, [corpus_group(n) for n in factors])
        m, t, inv = G.order, G.table, G.inv_table
        a, b = np.arange(m)[:, None], np.arange(m)[None, :]
        comm = G.commutator_table
        assert np.array_equal(comm, t[t[inv[a], inv[b]], t[a, b]])
        assert comm.dtype == np.min_scalar_type(m - 1) and not comm.flags.writeable

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_chain_matches_scalar_loop(self, k):
        G = direct_product(corpus_group("heis27"), corpus_group("s3"))
        rng = np.random.default_rng(k)
        stacks = [rng.integers(0, G.order, 300) for _ in range(k)]
        want = []
        for entries in zip(*stacks):
            acc = int(entries[0])
            for g in entries[1:]:
                acc = G.commutator(acc, int(g))
            want.append(acc)
        got = G.long_commutators(iter(stacks))
        assert got.dtype == np.int64 and got.tolist() == want
        trivial = G.trivial_long_commutators(iter(stacks).__next__, k)
        assert trivial.tolist() == [v == 0 for v in want]

    def test_chain_names_bad_entry_of_third_stack(self):
        G = corpus_group("a4")
        stacks = [np.arange(12), np.arange(12), np.array([0] * 11 + [12])]
        with pytest.raises(ValueError, match=r"element index 12 outside \[0, 12\)"):
            G.long_commutators(stacks)
        stacks[2] = np.array([0] * 5 + [-3] + [0] * 6)
        with pytest.raises(ValueError, match=r"element index -3 outside \[0, 12\)"):
            G.trivial_long_commutators(iter(stacks).__next__, 3)

    @pytest.mark.parametrize("name", ["trivial", "a4"])
    def test_chain_on_empty_stacks(self, name):
        G, empty = corpus_group(name), np.zeros(0, dtype=np.int64)
        got = G.long_commutators([empty] * 3)
        assert got.shape == (0,) and got.dtype == np.int64
        assert G.trivial_long_commutators(lambda: empty, 4).shape == (0,)

    def test_trivial_group_chain(self):
        G = corpus_group("trivial")
        zeros = np.zeros(5, dtype=np.int64)
        assert G.long_commutators([zeros] * 4).tolist() == [0] * 5
        assert G.trivial_long_commutators(lambda: zeros, 3).all()

    def test_commutators_broadcast_two_dimensional(self):
        G = corpus_group("d4")
        a, b = np.arange(8).reshape(2, 4), np.array([[3], [5]])
        got = G.commutators(a, b)
        assert got.shape == (2, 4) and got.dtype == np.int64
        assert np.array_equal(got, ref_commutators(G, a, b))


@pytest.mark.parametrize("fn", [subgroup_closure, is_normal, quotient_table, power_closure_radius])
@pytest.mark.parametrize("bad", [-1, 6])
def test_element_index_out_of_range(fn, bad):
    with pytest.raises(ValueError, match=rf"element index {bad} outside \[0, 6\)"):
        fn(corpus_group("s3"), [0, bad])


@pytest.mark.parametrize("call", [
    lambda G, x: G.mul(x, 1), lambda G, x: G.mul(1, x), lambda G, x: G.inverse(x),
    lambda G, x: G.conjugate(x, 1), lambda G, x: G.conjugate(1, x),
    lambda G, x: G.quotients(x, 0), lambda G, x: G.quotients(0, x),
    lambda G, x: G.class_labels(x), lambda G, x: G.class_sizes(x),
    lambda G, x: G.class_size(x), lambda G, x: G.conjugacy_orbit(x),
    lambda G, x: G.stack([0, x]), lambda G, x: G.repeat(x, 2),
    lambda G, x: G.from_indices([0, x]),
], ids=["mul-a", "mul-b", "inverse", "conjugate-a", "conjugate-by", "quotients-a",
        "quotients-b", "class_labels", "class_sizes", "class_size", "conjugacy_orbit",
        "stack", "repeat", "from_indices"])
@pytest.mark.parametrize("bad", [-1, 6])
def test_table_method_index_out_of_range(call, bad):
    with pytest.raises(ValueError, match=rf"element index {bad} outside \[0, 6\)"):
        call(corpus_group("s3"), bad)


# Loop references for the exact associativity check, the one class-label pass
# and commutator_set: a full associativity loop over every left factor, one
# orbit closure per class, and one orbit closure per commutator value.


def ref_is_associative(t):
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(len(t)))


def ref_table_classes(G):
    """Classes in order of least member, and the class size of every element."""
    m, t = G.order, G.table
    sizes = np.zeros(m, dtype=np.int64)
    classes = []
    seen = np.zeros(m, dtype=bool)
    for g in range(m):
        if seen[g]:
            continue
        orbit = np.unique(t[t[G.inv_table, g], np.arange(m)])
        seen[orbit] = True
        sizes[orbit] = len(orbit)
        classes.append((g, len(orbit)))
    return classes, sizes


def ref_family_classes(G, cap):
    seen: set = set()
    classes = []
    for g in G.elements(cap):
        if g in seen:
            continue
        orbit = G.conjugacy_orbit(g)
        seen |= orbit
        classes.append((g, len(orbit)))
    return classes


def ref_classes(G, cap):
    if isinstance(G, AlgebraGroup):
        return ref_family_classes(G, cap)
    return ref_table_classes(G)[0]


def ref_commutator_set(G):
    """Comm(G, G) by the representative loop: each reference class
    representative against every element, closed under conjugation;
    independent of the route of `commutator_set`, which lists no classes and
    takes the quotients z rho(z)^-1 instead."""
    elems = G.all_elements()
    values = set()
    for rep, _ in ref_classes(G, G.order):
        comms = G.commutators(G.repeat(rep, G.order), elems)
        if isinstance(G, AlgebraGroup):
            rows = np.unique(G.batch.coords(comms), axis=0)
            values.update(GroupElement.from_coords(G.params, row) for row in rows.tolist())
        else:
            values.update(np.unique(comms).tolist())
    out: set = set()
    for v in values:
        out |= G.conjugacy_orbit(v)
    return sorted(out)


def perturbed_tables(G, count, seed):
    """Copies of G's table with one or two intercalates swapped.

    For an involution u and a, c outside {0, u}, rows a, au and columns c, uc
    of G's table form a 2x2 subsquare [[ac, auc], [auc, ac]].  Swapping its
    two values keeps rows and columns permutations and 0 the identity.  A
    second swap is made only where the current table still holds such a
    square.
    """
    rng = np.random.default_rng(seed)
    involutions = [u for u in range(1, G.order) if G.table[u, u] == 0]
    for _ in range(count):
        t = G.table.copy()
        for _ in range(rng.integers(1, 3)):
            u = int(rng.choice(involutions))
            a, c = rng.choice(np.setdiff1d(np.arange(G.order), [0, u]), size=2)
            square = np.ix_([a, G.table[a, u]], [c, G.table[u, c]])
            block = t[square]
            if block[0, 0] == block[1, 1] and block[0, 1] == block[1, 0]:
                t[square] = block[::-1]
        yield t


CLASS_ORACLE_GROUPS = ORACLE_GROUPS + ("heis27xa4", "family21", "family31")


@pytest.fixture(scope="session")
def class_oracle_groups(oracle_groups, family21, family31):
    return {
        **oracle_groups,
        "heis27xa4": direct_product(corpus_group("heis27"), corpus_group("a4")),
        "family21": family21,
        "family31": family31,
    }


class TestLightsTestMatchesFullLoop:
    def test_perturbed_corpus_tables(self):
        accepted = []
        for name in ("c4", "c6", "c8", "s3", "d4", "q8", "a4"):
            for t in perturbed_tables(corpus_group(name), 40, seed=len(accepted)):
                try:
                    TableGroup(t)
                    accepted.append(True)
                except CayleyAssociativityError:
                    accepted.append(False)
                assert accepted[-1] == ref_is_associative(t), name
        assert 0 < sum(accepted) < len(accepted) / 2

    def test_direct_product_above_256(self):
        G = direct_product(corpus_group("heis27"), corpus_group("a4"))
        assert G.order == 324 and ref_is_associative(G.table)
        for t in perturbed_tables(G, 3, seed=5):
            assert not ref_is_associative(t)
            with pytest.raises(CayleyAssociativityError):
                TableGroup(t)

    def test_generators_generate_within_log2(self, oracle_groups):
        for G in oracle_groups.values():
            assert subgroup_closure(G, G.generators) == frozenset(G.elements())
            assert 2 ** len(G.generators) <= G.order

    def test_trivial_group(self):
        G = corpus_group("trivial")
        assert G.generators == []
        assert G.conjugacy_classes() == [(0, 1)]
        assert G.class_sizes(np.zeros(3, dtype=np.int64)).tolist() == [1, 1, 1]
        assert stats.commutator_set(G) == [0]


@pytest.mark.parametrize("name", CLASS_ORACLE_GROUPS)
class TestClassPassMatchesLoops:
    def test_conjugacy_classes(self, class_oracle_groups, name):
        G = class_oracle_groups[name]
        if isinstance(G, AlgebraGroup):
            assert G.conjugacy_classes(cap=1 << 15) == ref_family_classes(G, 1 << 15)
            return
        classes, sizes = ref_table_classes(G)
        assert G.conjugacy_classes() == classes
        assert np.array_equal(G.class_sizes(np.arange(G.order)), sizes)
        assert G.class_sizes(np.arange(G.order)).dtype == np.int64

    def test_commutator_set(self, class_oracle_groups, name):
        G = class_oracle_groups[name]
        if G.order**2 > stats.COVER_PAIR_CAP:
            with pytest.raises(CapExceededError):
                stats.commutator_set(G)
            return
        assert stats.commutator_set(G) == ref_commutator_set(G)


def ref_permutation_error(t):
    """The first row or column that is not a permutation, row i before column i."""
    full = np.arange(len(t))
    for i in range(len(t)):
        if not np.array_equal(np.sort(t[i]), full):
            return f"row {i} is not a permutation"
        if not np.array_equal(np.sort(t[:, i]), full):
            return f"column {i} is not a permutation"
    return None


def test_permutation_check_matches_loop(oracle_groups):
    rng = np.random.default_rng(21)
    seen = set()
    for G in oracle_groups.values():
        for _ in range(30):
            t = G.table.copy()
            for _ in range(rng.integers(1, 4)):
                t[rng.integers(G.order), rng.integers(G.order)] = rng.integers(G.order)
            expect = ref_permutation_error(t)
            try:
                TableGroup(t)
                got = None
            except CayleyPermutationError as exc:
                got = str(exc)
            except (CayleyIdentityError, CayleyAssociativityError):
                got = None
            assert got == expect
            seen.add(None if expect is None else expect.split()[0])
    assert seen == {None, "row", "column"}


def ref_generators(t):
    """The greedy generating set by Python sets: the least element outside
    the closure of {0} and the generators so far under right multiplication
    by them, until that closure is everything."""
    m, gens, closure = len(t), [], {0}
    while len(closure) < m:
        gens.append(min(set(range(m)) - closure))
        X = {0, *gens}
        closure, grown = set(), X
        while grown != closure:
            closure, grown = grown, grown | {int(t[a, b]) for a in grown for b in X}
    return gens


def ref_verdict(t):
    """(exception name, message) of the first failure of the table t, or None
    for a group table: rows and columns by sorting, then the identity, then
    associativity over all m^3 triples, naming the first greedy generator a
    with (a x) y != a (x y) for some x, y."""
    perm = ref_permutation_error(t)
    if perm is not None:
        return "CayleyPermutationError", perm
    full = np.arange(len(t))
    if not (np.array_equal(t[0], full) and np.array_equal(t[:, 0], full)):
        return "CayleyIdentityError", "index 0 is not a two-sided identity"
    failing = (t[t] != t[:, t]).any(axis=(1, 2))   # [a, x, y]: (a x) y against a (x y)
    if not failing.any():
        return None
    a = next(g for g in ref_generators(t) if failing[g])
    return "CayleyAssociativityError", f"associativity fails with a = {a}"


def corrupted_tables(G, count, seed):
    """Copies of G's table with one to three changes off row 0 and column 0,
    each a new value or a swap of two entries in one row, never to or from
    0: every copy keeps 0 a two-sided identity and one 0 in every row."""
    rng = np.random.default_rng(seed)
    m = G.order
    for _ in range(count):
        t = G.table.copy()
        for _ in range(rng.integers(1, 4)):
            i, j, k = rng.integers(1, m, size=3)
            if 0 in (t[i, j], t[i, k]):
                continue
            if rng.random() < 0.5:
                t[i, j] = rng.integers(1, m)
            else:
                t[i, [j, k]] = t[i, [k, j]]
        yield t


PROOF_PATH_PRODUCTS = [("c2", "s3"), ("d4", "c2"), ("q8", "c4"), ("a4", "c4"), ("s3", "s3"),
                       ("d4", "q8"), ("c8", "c8")]


def table_verdict(t):
    """(exception name, message) of TableGroup(t)'s rejection, or None."""
    try:
        TableGroup(t)
    except (CayleyPermutationError, CayleyIdentityError, CayleyAssociativityError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_proof_path_rejections_match_reference():
    """Tables that keep the identity and one 0 per row reach Light's test
    whether or not they are Latin; the verdict must be the reference's."""
    sources = [corpus_group(n) for n in CORPUS_NAMES if n != "trivial"]   # nothing to change
    sources += [direct_product(corpus_group(a), corpus_group(b)) for a, b in PROOF_PATH_PRODUCTS]
    assert max(G.order for G in sources) == 64
    seen, non_latin = set(), 0
    for s, G in enumerate(sources):
        for t in corrupted_tables(G, 12, seed=s):
            full = np.arange(G.order)
            assert np.array_equal(t[0], full) and np.array_equal(t[:, 0], full)
            assert ((t == 0).sum(axis=1) == 1).all()
            want = ref_verdict(t)
            assert table_verdict(t) == want, G.name
            non_latin += ref_permutation_error(t) is not None
            seen.add(None if want is None else want[1].split()[0])
    assert non_latin > 0
    assert {None, "row", "column"} <= seen
    # Latin tables that fail associativity name the reference's generator
    for s, name in enumerate(("c8", "d4", "q8", "a4")):
        for t in perturbed_tables(corpus_group(name), 6, seed=s):
            want = ref_verdict(t)
            assert table_verdict(t) == want, name
            seen.add(None if want is None else want[1].split()[0])
    assert "associativity" in seen


def test_non_latin_table_with_identity_and_inverses():
    # rows 0 and 1 are permutations and every row holds one 0, so the proof
    # runs Light's test first; the permutation pass then names column 1
    with pytest.raises(CayleyPermutationError, match="^column 1 is not a permutation$"):
        parse_cayley_table("3\n0 1 2\n1 2 0\n2 2 0\n")


def _as_table(G, name):
    """The family G as a Cayley table from one engine `grp_mul` over all
    pairs; an element's index is the base-p number its digits spell, so the
    identity is index 0."""
    eng, m = G.batch, G.order
    flat = eng.coords(G.all_elements())
    products = eng.grp_mul(eng.from_coords(np.repeat(flat, m, axis=0)),
                           eng.from_coords(np.tile(flat, (m, 1))))
    return TableGroup(_index(G, eng.coords(products)).reshape(m, m), name=name)


def _index(G, flat):
    """Table indices of family coordinate rows (the base-p index map)."""
    return np.asarray(flat, dtype=np.int64) @ (G.params.p ** np.arange(G.dim_l1 - 1, -1, -1))


@pytest.fixture(scope="module")
def family21_table(family21):
    return _as_table(family21, "family21")


# d = 2 forms at p = 2: the hyperbolic form and two dense ones
TABLE_FORMS = {
    "hyperbolic": [[0, 1], [0, 0]],
    "dense-upper": [[1, 1], [0, 1]],
    "dense-lower": [[1, 0], [1, 1]],
}


@pytest.fixture(scope="module", params=list(TABLE_FORMS))
def family_and_table(request):
    G = AlgebraGroup(AlgebraParams(BilinearForm.from_rows(2, TABLE_FORMS[request.param])))
    return G, _as_table(G, request.param)


class TestFamilyAsTable:
    """Families at p = 2, d = 2 against their own Cayley tables: one group,
    two arithmetics, compared through the base-p index map."""

    def test_table_validates(self, family21_table):
        # construction ran the permutation, identity and associativity checks
        assert family21_table.order == 512

    def test_exact_statistics_agree(self, family21, family21_table):
        for G in (family21, family21_table):
            assert stats.d1_exact(G).value == Fraction(7, 64)
            assert stats.d2_exact(G).value == Fraction(65, 128)

    def test_class_sizes_agree(self, family21, family21_table):
        family_sizes = family21.class_sizes(family21.all_elements())
        table_sizes = family21_table.class_sizes(family21_table.all_elements())
        assert np.array_equal(family_sizes, table_sizes)

    def test_commutator_set_sizes_agree(self, family21, family21_table):
        assert len(stats.commutator_set(family21)) == len(stats.commutator_set(family21_table))

    def test_series_orders(self, family21_table):
        assert lower_central_series(family21_table).orders == [512, 16, 8, 2, 1]
        assert upper_central_series(family21_table).orders == [1, 4, 16, 128, 512]
        assert derived_series(family21_table).orders == [512, 16, 1]

    def test_commutators_agree(self, family_and_table):
        G, T = family_and_table
        eng, m = G.batch, G.order
        flat = eng.coords(G.all_elements())
        comms = G.commutators(eng.from_coords(np.repeat(flat, m, axis=0)),
                              eng.from_coords(np.tile(flat, (m, 1))))
        idx = np.arange(m)
        table_comms = T.commutators(idx[:, None], idx[None, :])
        assert np.array_equal(_index(G, eng.coords(comms)).reshape(m, m), table_comms)

    def test_d2_agrees(self, family_and_table):
        # the table's class loop against the family's graded route
        G, T = family_and_table
        assert stats.d2_exact(T).value == stats.d2_exact(G).value

    def test_commutator_sets_agree(self, family_and_table):
        G, T = family_and_table
        family_set = stats.commutator_set(G)
        assert set(_index(G, [g.digits for g in family_set]).tolist()) == set(
            stats.commutator_set(T))

    @pytest.mark.parametrize("n", [8, 2])
    def test_covering_check_agrees(self, family_and_table, n):
        G, T = family_and_table
        wf, wt = stats.covering_check(G, n, [G.identity]), stats.covering_check(T, n, [0])
        mapped = None if wf.ok else int(_index(G, wf.counterexample.digits))
        assert (wf.ok, wf.checked, wf.verified_fraction, mapped) == (
            wt.ok, wt.checked, wt.verified_fraction, wt.counterexample)

    def test_covering_minimal_S_agrees(self, family_and_table):
        G, T = family_and_table
        wf, wt = stats.covering_minimal_S(G, 8), stats.covering_minimal_S(T, 8)
        assert _index(G, [s.digits for s in wf.S]).tolist() == wt.S
        assert wf.exact_minimum == wt.exact_minimum
