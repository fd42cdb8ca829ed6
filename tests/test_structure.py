import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nilprob.algebra import AlgebraParams, lie_bracket, AlgebraElement
from nilprob.errors import CapExceededError, DegenerateFormError
from nilprob.fieldlin import BilinearForm, FpVector, form_eval, nullspace, rref
from nilprob.groups import direct_product, subgroup_closure
from nilprob.tables import CORPUS_NAMES, corpus_group
from nilprob import groups, stats, structure as st
from test_groups import ref_commutators, relabelled


def lie4_formula(params, x, y, z, w):
    """[x, y, z, w] = fA(x,w) fS(y,z) - fA(y,w) fS(x,z)."""
    fa, fs = params.antisymm, params.symm
    value = form_eval(fa, x, w) * form_eval(fs, y, z) - form_eval(fa, y, w) * form_eval(fs, x, z)
    return value % params.p


def hyperplanes_reference(p, d):
    """Hyperplane bases by the digit loop over functional indices."""
    out = []
    for idx in range(1, p**d):
        digits, rem = [], idx
        for _ in range(d):
            digits.append(rem % p)
            rem //= p
        if next(v for v in digits if v) == 1:
            out.append(nullspace([digits], p, d))
    return out


def probe_reference(params, h_basis):
    """The quadruple-bracket probe by scalar form evaluations, the first
    nonzero pair taken by nested loops."""
    p, d = params.p, params.d
    basis = tuple(FpVector(p, tuple(r)) for r in rref([v.coords for v in h_basis], p)[0])
    codim = d - len(basis)
    if 2 * codim + 1 >= d:
        return st.ProbeWitness(basis, codim, None, None,
                               reason=f"need 2*codim + 1 < dim V; got codim {codim}, dim {d}")
    fa, fs = params.antisymm, params.symm
    pair = next(((a, b) for a in basis for b in basis if form_eval(fa, a, b)), None)
    if pair is None:
        return DegenerateFormError
    x, w = pair
    h1 = []
    for cvec in nullspace([[form_eval(fs, x, b) for b in basis]], p, len(basis)):
        h1.append(FpVector(p, tuple(sum(c * b.coords[k] for c, b in zip(cvec.coords, basis))
                                    for k in range(d))))
    pair = next(((a, b) for a in basis for b in h1 if form_eval(fs, a, b)), None)
    if pair is None:
        return DegenerateFormError
    y, z = pair
    return st.ProbeWitness(basis, codim, (x, y, z, w), lie4_formula(params, x, y, z, w))


def probe_or_error(params, h_basis):
    try:
        return st.class3_subspace_probe(params, h_basis)
    except DegenerateFormError:
        return DegenerateFormError


class TestSeries:
    def test_q8_class_two(self):
        Q8 = corpus_group("q8")
        lower = st.lower_central_series(Q8)
        assert lower.trivial_at() == 2
        assert lower.orders == [8, 2, 1]

    def test_abelian(self):
        C6 = corpus_group("c6")
        assert st.lower_central_series(C6).trivial_at() == 1
        assert st.derived_series(C6).trivial_at() == 1

    def test_heisenberg(self):
        H = corpus_group("heis27")
        assert st.lower_central_series(H).trivial_at() == 2
        upper = st.upper_central_series(H)
        assert upper.orders[0] == 1
        assert upper.orders[1] == 3      # |Z(G)| = 3
        assert upper.orders[-1] == 27

    def test_s3_not_nilpotent(self):
        S3 = corpus_group("s3")
        lower = st.lower_central_series(S3)
        assert lower.trivial_at() is None
        assert st.derived_series(S3).trivial_at() == 2
        assert lower.orders == [6, 3]    # stabilizes at A3

    def test_terms_are_normal(self):
        from nilprob.groups import is_normal

        for name in ("s3", "d4", "a4", "heis27"):
            G = corpus_group(name)
            for report in (
                st.lower_central_series(G),
                st.upper_central_series(G),
                st.derived_series(G),
            ):
                for term in report.terms:
                    assert is_normal(G, term)

    @pytest.mark.parametrize("series", [
        pytest.param(st.lower_central_series, id="lower"),
        pytest.param(st.upper_central_series, id="upper"),
        pytest.param(st.derived_series, id="derived"),
    ])
    def test_cap(self, series):
        with pytest.raises(CapExceededError, match=r"\|G\| = 12 exceeds series cap 4"):
            series(corpus_group("a4"), cap=4)


def baer_of(name, s, t):
    G = corpus_group(name)
    return st.baer_indices(st.lower_central_series(G), st.upper_central_series(G), s, t)


class TestBaer:
    def test_q8_11(self):
        assert baer_of("q8", 1, 1) == (4, 2)

    def test_d4_22(self):
        assert baer_of("d4", 2, 2) == (1, 1)

    def test_class_two_second_index_trivial(self):
        # gamma_3 = 1 in a class-2 group, so the second index is 1
        for name in ("q8", "d4", "heis27"):
            assert baer_of(name, 2, 1)[1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            baer_of("q8", 0, 1)


class TestEngel:
    def test_abelian_is_one(self):
        assert st.engel_degree(corpus_group("c4")) == 1

    def test_q8_is_two(self):
        assert st.engel_degree(corpus_group("q8")) == 2

    @pytest.mark.parametrize("max_l", [0, -1])
    def test_limit_below_one_rejected(self, max_l):
        with pytest.raises(ValueError, match="max_l must be >= 1"):
            st.engel_degree(corpus_group("c4"), max_l=max_l)

    def test_s3_is_none(self):
        assert st.engel_degree(corpus_group("s3")) is None
        assert st.engel_degree(corpus_group("s3"), max_l=25) is None

    def test_heisenberg_is_two(self):
        assert st.engel_degree(corpus_group("heis27")) == 2


def closure_reference(t, X):
    """<X> by squaring the set until it stops growing."""
    S = np.union1d(X, [0])
    while len(grown := np.union1d(S, t[np.ix_(S, S)])) > len(S):
        S = grown
    return frozenset(S.tolist())


def series_reference(G, max_l=10):
    """Series orders, trivial_at, Baer indices and Engel degree from the
    raw-table commutators t[t[a^-1, b^-1], t[a, b]]."""
    t, every = G.table, np.arange(G.order)
    comm = ref_commutators(G, every[:, None], every[None, :])

    def series(start, step):
        terms = [start]
        while (nxt := step(terms[-1])) != terms[-1]:
            terms.append(nxt)
        return terms

    whole = frozenset(every.tolist())
    lower = series(whole, lambda H: closure_reference(t, comm[sorted(H)]))
    derived = series(whole, lambda H: closure_reference(t, comm[np.ix_(sorted(H), sorted(H))]))
    upper = series(frozenset({0}), lambda Z: frozenset(
        x for x in every.tolist() if set(comm[x].tolist()) <= Z))

    def term(terms, i):
        return terms[min(i, len(terms) - 1)]

    baer = {
        (s, u): (len(term(lower, s - 1)) // len(term(upper, u) & term(lower, s - 1)),
                 len(term(lower, s)) // len(term(upper, u - 1) & term(lower, s)))
        for s in (1, 2, 3) for u in (1, 2, 3)
    }
    cur, l = comm, 1                          # cur[x, y] = [x, y, ..., y], y l times
    while cur.any() and l < max_l:
        cur, l = comm[cur, every[None, :]], l + 1
    return {
        "orders": [[len(x) for x in terms] for terms in (lower, upper, derived)],
        "trivial_at": [next((i for i, x in enumerate(terms) if len(x) == 1), None)
                       for terms in (lower, derived)],
        "baer": baer,
        "engel": None if cur.any() else l,
    }


@settings(max_examples=25)
@given(names=hst.lists(hst.sampled_from(CORPUS_NAMES), min_size=1, max_size=2),
       seed=hst.integers(0, 2**32 - 1))
def test_series_probes_match_reference_on_relabelled_products(names, seed):
    G = relabelled(reduce(direct_product, [corpus_group(n) for n in names]), seed)
    lower, upper = st.lower_central_series(G), st.upper_central_series(G)
    derived = st.derived_series(G)
    want = series_reference(G)
    assert [r.orders for r in (lower, upper, derived)] == want["orders"]
    assert [lower.trivial_at(), derived.trivial_at()] == want["trivial_at"]
    assert {key: st.baer_indices(lower, upper, *key) for key in want["baer"]} == want["baer"]
    assert st.engel_degree(G) == want["engel"]


class TestPowerClosure:
    def test_whole_group(self):
        assert st.power_closure_radius(corpus_group("s3"), range(6)) == 1

    def test_c8_generator(self):
        C8 = corpus_group("c8")
        r = st.power_closure_radius(C8, {0, 1, 7})
        assert r == 4
        assert r <= 3 * (8 // 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            st.power_closure_radius(corpus_group("c4"), {1, 3})       # no identity
        with pytest.raises(ValueError):
            st.power_closure_radius(corpus_group("c4"), {0, 1})       # not symmetric

    def test_bound_on_random_symmetric_subsets(self, corpus_groups):
        rng = random.Random(0)
        for G in corpus_groups.values():
            for _ in range(20):
                X = {0}
                for g in rng.sample(range(G.order), k=min(G.order, rng.randrange(1, 5))):
                    X.add(g)
                    X.add(G.inverse(g))
                r = st.power_closure_radius(G, X)
                assert r <= 3 * (G.order // len(X))


class TestSubspaceProbe:
    def test_full_space_dim4(self, params22):
        w = st.class3_subspace_probe(params22)
        assert w.found
        assert w.codimension == 0
        x, y, z, w_ = w.witnesses
        assert lie4_formula(params22, x, y, z, w_) == w.bracket_value != 0

    def test_witnesses_verified_by_nested_bracket(self, params22):
        # do not trust the closed form: recompute through the algebra
        w = st.class3_subspace_probe(params22)
        ex, ey, ez, ew = (AlgebraElement.from_r1(params22, v) for v in w.witnesses)
        nested = lie_bracket(lie_bracket(lie_bracket(ex, ey), ez), ew)
        assert nested.c4 == w.bracket_value != 0

    def test_codim_gate(self, params21):
        h = [FpVector.basis(2, 2, 0)]
        w = st.class3_subspace_probe(params21, h)
        assert not w.found
        assert "codim" in (w.reason or "")

    def test_every_hyperplane_of_f2_4(self, params22):
        planes = st.hyperplanes(2, 4)
        assert len(planes) == 15
        for basis in planes:
            w = st.class3_subspace_probe(params22, basis)
            assert w.found
            assert w.codimension == 1
            assert lie4_formula(params22, *w.witnesses) != 0
            # witnesses actually lie in the span of the hyperplane basis
            from nilprob.fieldlin import matrix_rank

            rows = [list(b.coords) for b in basis]
            for v in w.witnesses:
                assert matrix_rank(rows + [list(v.coords)], 2) == matrix_rank(rows, 2)

    def test_hyperplane_count_f3(self):
        assert len(st.hyperplanes(3, 2)) == 4

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hyperplanes_match_digit_loop(self, p, d):
        planes = st.hyperplanes(p, d)
        assert planes == hyperplanes_reference(p, d)
        assert len(planes) == (p**d - 1) // (p - 1)

    def test_probe_matches_scalar_scan_on_random_subspaces(self):
        rng = random.Random(10)
        for p, n in [(2, 2), (3, 2), (2, 3), (5, 2), (7, 2)]:
            params = AlgebraParams.hyperbolic(p, n)
            d = params.d
            for _ in range(25):
                h = [FpVector(p, tuple(rng.randrange(p) for _ in range(d)))
                     for _ in range(rng.randrange(d + 2))]
                if len(h) >= 2:   # a dependent vector: a combination of two others
                    c = rng.randrange(p)
                    pairs = zip(h[0].coords, h[1].coords)
                    h.append(FpVector(p, tuple(a + c * b for a, b in pairs)))
                assert probe_or_error(params, h) == probe_reference(params, h)

    def test_probe_matches_scalar_scan_on_dense_forms(self):
        rng = random.Random(11)
        errors = 0
        for p in (2, 3, 5):
            for d in (3, 4, 5, 6):
                for _ in range(8):
                    form = BilinearForm.from_rows(
                        p, [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(d)]
                            for _ in range(d)])
                    params = AlgebraParams(form)
                    k = rng.randrange(d - 1, d + 2)
                    h = [FpVector(p, tuple(rng.randrange(p) for _ in range(d))) for _ in range(k)]
                    for basis in (None, h):
                        got = probe_or_error(params, basis)
                        expect = probe_reference(params, basis or [
                            FpVector.basis(p, d, i) for i in range(d)])
                        assert got == expect
                        errors += got is DegenerateFormError
        assert errors  # some draws exercise the degenerate-form diagnoses

    def test_degenerate_form_diagnosed(self):
        # zero form: fA vanishes identically on V although the gate passes
        params = AlgebraParams(BilinearForm.from_rows(2, [[0] * 4] * 4))
        with pytest.raises(DegenerateFormError):
            st.class3_subspace_probe(params)


class TestNeumannExtract:
    def test_q8_discrete(self):
        Q8 = corpus_group("q8")
        rep = st.neumann_extract(Q8, st.discrete_norm(Q8), 2)
        assert rep.hypothesis_holds
        assert rep.H == rep.K == frozenset(range(8))
        assert rep.index_H == rep.index_K == 1
        # Comm(G,G) = {1, -1}; at most C^2 centers
        assert len(rep.centers) <= 4
        union = set().union(*rep.balls)
        assert union == {0, 4}

    def test_abelian_single_center(self):
        C6 = corpus_group("c6")
        rep = st.neumann_extract(C6, st.discrete_norm(C6), 1.0)
        assert rep.hypothesis_holds
        assert rep.centers == [0]
        assert rep.balls == [frozenset({0})]

    def test_d4_conjugacy_norm(self):
        D4 = corpus_group("d4")
        rep = st.neumann_extract(D4, partial(stats.conjugacy_norm, D4), 1.0)
        assert rep.hypothesis_holds
        assert rep.index_H <= 2       # proof guarantees [G:H] <= 2C
        assert rep.index_K <= 2
        assert len(rep.centers) <= rep.D**2 + 1e-9

    def test_hypothesis_failure_reported(self):
        S3 = corpus_group("s3")
        rep = st.neumann_extract(S3, st.discrete_norm(S3), 1.0)
        assert not rep.hypothesis_holds
        assert rep.hypothesis_probability == Fraction(1, 2)
        assert rep.H is None

    def test_index_bound_from_proof(self, corpus_groups):
        # whenever the hypothesis holds, [G:H] <= 2C and [G:K] <= 2C
        for G in corpus_groups.values():
            for C in (1.0, 2.0, 4.0):
                rep = st.neumann_extract(G, partial(stats.conjugacy_norm, G), C)
                if rep.hypothesis_holds:
                    assert rep.index_H <= 2 * C
                    assert rep.index_K <= 2 * C

    def test_balls_cover_commutators(self, corpus_groups):
        for G in corpus_groups.values():
            rep = st.neumann_extract(G, partial(stats.conjugacy_norm, G), 2.0)
            if not rep.hypothesis_holds:
                continue
            comm = ref_commutators(G, np.array(sorted(rep.H))[:, None], sorted(rep.K))
            assert set().union(*rep.balls) == set(comm.ravel().tolist())


def measured_level_by_sort(norm_matrix):
    """The least D with P(value <= D) >= 1/D along every row and column, by
    sorting the whole matrix and comparing it with each distinct level."""
    finite = np.sort(norm_matrix[np.isfinite(norm_matrix)])
    finite = finite[np.diff(finite, prepend=-math.inf) > 0]
    best = math.inf
    n_rows, n_cols = norm_matrix.shape
    for i, v in enumerate(finite):
        le = norm_matrix <= v
        frac = min(le.sum(axis=1).min() / n_cols, le.sum(axis=0).min() / n_rows)
        if frac == 0:
            continue
        candidate = max(float(v), 1.0 / frac)
        upper = float(finite[i + 1]) if i + 1 < len(finite) else math.inf
        if candidate < upper or math.isclose(candidate, float(v)):
            best = min(best, candidate)
    if not math.isfinite(best):
        raise DegenerateFormError("no finite concentration level exists")
    return best


def level_or_error(fn, *args):
    try:
        return fn(*args)
    except DegenerateFormError:
        return DegenerateFormError


class TestMeasuredLevel:
    @settings(max_examples=200)
    @given(data=hst.data())
    def test_matches_sorted_matrix(self, data):
        # few distinct norms, so levels tie; inf marks elements of no level
        pool = [0.0, 0.5, 1.0, math.log(3), 2.0, 2.5, 4.0, math.inf]
        norms = np.array(data.draw(hst.lists(hst.sampled_from(pool), min_size=1, max_size=10)))
        m = len(norms)
        rows, cols = data.draw(hst.integers(1, 7)), data.draw(hst.integers(1, 7))
        flat = data.draw(hst.lists(hst.integers(0, m - 1), min_size=rows * cols,
                                   max_size=rows * cols))
        comm = np.array(flat, dtype=np.int64).reshape(rows, cols)
        hit = np.zeros(m, dtype=bool)
        hit[comm] = True
        got = level_or_error(st._measured_level, norms, comm, hit)
        assert got == level_or_error(measured_level_by_sort, norms[comm])

    @pytest.mark.parametrize("name", ["d4", "q8", "a4", "heis27"])
    def test_conjugacy_norm_levels_match(self, name):
        G = corpus_group(name)
        norms = np.array([stats.conjugacy_norm(G, g) for g in range(G.order)])
        comm = G.commutator_table
        hit = np.zeros(G.order, dtype=bool)
        hit[comm] = True
        assert st._measured_level(norms, comm, hit) == measured_level_by_sort(norms[comm])


class TestSubgroupsPareto:
    def test_subgroup_counts(self):
        assert len(st.subgroups(corpus_group("s3"))) == 6
        assert len(st.subgroups(corpus_group("q8"))) == 6
        assert len(st.subgroups(corpus_group("d4"))) == 10
        assert len(st.subgroups(corpus_group("a4"))) == 10
        assert len(st.subgroups(corpus_group("heis27"))) == 19

    def test_pareto_abelian(self):
        assert st.neumann_pareto(corpus_group("c6")) == [(1, 1)]

    def test_pareto_s3(self):
        frontier = st.neumann_pareto(corpus_group("s3"))
        assert (2, 1) in frontier        # the cyclic rotation subgroup
        assert frontier == [(1, 3), (2, 1)]

    def test_pareto_q8(self):
        frontier = st.neumann_pareto(corpus_group("q8"))
        assert (2, 1) in frontier        # abelian index-2 subgroups

    def test_cap(self, family21):
        big = corpus_group("heis27")
        with pytest.raises(CapExceededError):
            st.subgroups(big, cap=8)


class TestGradedIdentities:
    def test_jacobi_rearrangement(self, params22):
        # [x,y,z,w] = [x,y,w,z] + [x,y,[z,w]] on vector inputs
        rng = random.Random(1)
        p, d = params22.p, params22.d

        def rvec():
            return FpVector(p, tuple(rng.randrange(p) for _ in range(d)))

        for _ in range(200):
            x, y, z, w = rvec(), rvec(), rvec(), rvec()
            ex, ey, ez, ew = (AlgebraElement.from_r1(params22, v) for v in (x, y, z, w))
            xy = lie_bracket(ex, ey)
            lhs = lie_bracket(lie_bracket(xy, ez), ew)
            rhs = lie_bracket(lie_bracket(xy, ew), ez) + lie_bracket(xy, lie_bracket(ez, ew))
            assert lhs == rhs

    def test_bfc_bound_guralnick_maroti(self, corpus_groups):
        # |G'| <= n^((7 + log2 n)/2) with n the largest class size
        for G in corpus_groups.values():
            n = max(size for _, size in G.conjugacy_classes())
            derived = len(st.derived_subgroup(G))
            assert derived <= n ** ((7 + math.log2(n)) / 2) + 1e-9


def subgroups_every_element(G):
    """Reference: close H with every element g outside it, for every found H."""
    trivial = frozenset({0})
    found, frontier = {trivial}, [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            for g in G.elements():
                if g not in H:
                    K = subgroup_closure(G, set(H) | {g})
                    if K not in found:
                        found.add(K)
                        fresh.append(K)
        frontier = fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def product(names):
    return reduce(direct_product, [corpus_group(n) for n in names])


class TestSubgroupsByDoubleCosets:
    @pytest.mark.parametrize(
        "factors", [("d4", "c4"), ("q8", "c4"), ("s3", "c8"), ("d4", "c2"), ("a4",), ("heis27",)]
    )
    def test_matches_every_element_loop(self, factors):
        G = product(factors)
        assert st.subgroups(G) == subgroups_every_element(G)

    def test_double_cosets_partition(self, corpus_groups):
        # the batched representatives of every subgroup's row, all rows at once
        for G in corpus_groups.values():
            subs = st.subgroups(G)
            M = np.zeros((len(subs), G.order), dtype=bool)
            for i, H in enumerate(subs):
                M[i, sorted(H)] = True
            rows, reps = st._double_coset_reps(G, M)
            assert np.all(np.diff(rows) >= 0)
            for i, H in enumerate(subs):
                h, own = sorted(H), reps[rows == i].tolist()
                cosets = [{G.mul(G.mul(a, g), b) for a in h for b in h} for g in own]
                assert [min(c) for c in cosets] == own
                assert sorted(x for c in [set(H), *cosets] for x in c) == list(range(G.order))


def pareto_every_subgroup(G):
    """Reference: |H'| closed from the raw-table commutators of H x H, for
    every subgroup H of the every-element oracle."""
    pairs = set()
    for H in subgroups_every_element(G):
        h = np.array(sorted(H))
        derived = closure_reference(G.table, ref_commutators(G, h[:, None], h))
        pairs.add((G.order // len(H), len(derived)))
    return sorted(p for p in pairs
                  if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs))


ORDERS = {name: corpus_group(name).order for name in CORPUS_NAMES}


@settings(max_examples=30)
@given(names=hst.lists(hst.sampled_from(CORPUS_NAMES), min_size=1, max_size=3)
       .filter(lambda names: math.prod(ORDERS[n] for n in names) <= st.SUBGROUP_ENUM_CAP),
       seed=hst.integers(0, 2**32 - 1))
def test_lattice_and_pareto_match_oracles_on_relabelled_products(names, seed):
    G = relabelled(product(names), seed)
    assert st.subgroups(G) == subgroups_every_element(G)
    assert st.neumann_pareto(G) == pareto_every_subgroup(G)


@settings(max_examples=25)
@given(names=hst.lists(hst.sampled_from(CORPUS_NAMES), min_size=1, max_size=3)
       .filter(lambda names: math.prod(ORDERS[n] for n in names) <= st.SUBGROUP_ENUM_CAP),
       seed=hst.integers(0, 2**32 - 1), data=hst.data())
def test_commutator_subgroup_of_lattice_pairs_matches_reference(names, seed, data):
    # <[H, K]> for every pair among the trivial subgroup, G and up to four drawn ones
    G = relabelled(product(names), seed)
    subs = st.subgroups(G)
    drawn = data.draw(hst.lists(hst.sampled_from(subs), max_size=4))
    rows = np.zeros((len(drawn) + 2, G.order), dtype=bool)
    for row, H in zip(rows, [subs[0], subs[-1], *drawn]):
        row[sorted(H)] = True
    for H in rows:
        for K in rows:
            got = np.flatnonzero(st._commutator_subgroup(G, H, K)).tolist()
            comm = ref_commutators(G, np.flatnonzero(H)[:, None], np.flatnonzero(K))
            assert frozenset(got) == closure_reference(G.table, comm)


class TestFrontierBlocks:
    @pytest.mark.parametrize("names", [("d4", "c4"), ("a4",)], ids="x".join)
    @pytest.mark.parametrize("rows", [None, 3])
    def test_lattice_and_pareto_over_row_blocks(self, monkeypatch, names, rows):
        # 60 entries give one frontier row a block (|G|^2 >= 144 entries a
        # row); 3 |G|^2 give blocks of 3 rows, the last of some pass short
        G = product(names)
        want = st.subgroups(G), st.neumann_pareto(G)
        entries = 60 if rows is None else rows * G.order ** 2
        monkeypatch.setattr(groups, "_TABLE_BLOCK_ENTRIES", entries)
        passes = []
        real = st._row_blocks

        def spy(n_rows, row_entries):
            blocks = [len(range(n_rows)[b]) for b in real(n_rows, row_entries)]
            passes.append(blocks)
            return real(n_rows, row_entries)

        monkeypatch.setattr(st, "_row_blocks", spy)
        assert (st.subgroups(G), st.neumann_pareto(G)) == want
        assert max(max(blocks) for blocks in passes) == (rows or 1)
        assert any(len(blocks) > 1 for blocks in passes)
        if rows is not None:
            assert any(len(blocks) > 1 and blocks[-1] < rows for blocks in passes)

    def test_pareto_memory_of_c2_to_the_sixth(self):
        # 2825 subgroups of order-64 c2^6; unblocked, the pair masks alone
        # are 2825 x 64 x 64 entries, and their int64 indices about 92 MB
        G = product(["c2"] * 6)
        G.commutator_table
        tracemalloc.start()
        try:
            frontier = st.neumann_pareto(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frontier == [(1, 1)]
        assert peak < 16 * 2**20
