import inspect
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilprob.algebra import AlgebraParams
from nilprob.errors import CapExceededError
from nilprob.fieldlin import BilinearForm, pivot_rows, rank_stack
from nilprob.groups import AlgebraGroup, direct_product, quotient_table, subgroup_table
from nilprob.structure import subgroups
from nilprob.tables import CORPUS_NAMES, corpus_group
from nilprob import cli, groups, stats
from nilprob._batch import BLOCK


def commuting_pair_count(G):
    return sum(
        1 for x in G.elements() for y in G.elements() if G.mul(x, y) == G.mul(y, x)
    )


def d2_brute(G):
    m = G.order
    hits = 0
    for x in range(m):
        for y in range(m):
            c = G.commutator(x, y)
            for z in range(m):
                if G.commutator(c, z) == 0:
                    hits += 1
    return Fraction(hits, m**3)


def d2_class_loop(G, cap):
    """d2 by enumeration: x over class representatives weighted by class
    size, y over G, and |C_G([x, y])| from the class size of each commutator,
    counted from the orbit labels of all of G (independent of the family's
    graded average, of its rank kernel, and of the tables' |G| quotients)."""
    order = G.order
    elems = G.all_elements(cap)
    class_size = np.bincount(G.class_labels(elems, cap), minlength=order)
    total = 0
    for rep, size in G.conjugacy_classes(cap):
        comms = G.commutators(G.repeat(rep, order), elems)
        total += size * int((order // class_size[G.class_labels(comms, cap)]).sum())
    return Fraction(total, order**3)


def d2_quotient_sum(G, cap):
    """d2 from |G| quotients.  [x, y] = x^-1 x^y, so as y runs over G,
    [x, y] runs over x^-1 z for z in x^G, each |C_G(x)| times; conjugating
    x to rho(x), the least member of its class, then gives
    d2 = sum over z in G of |C_G(z rho(z)^-1)| / |G|^2.  Centralizer orders
    come from the orbit labels of all of G, as in `d2_class_loop`."""
    order = G.order
    elems = G.all_elements(cap)
    labels = G.class_labels(elems, cap)
    class_size = np.bincount(labels, minlength=order)
    comms = G.class_labels(G.quotients(elems, G.from_indices(labels)), cap)
    return Fraction(int((order // class_size[comms]).sum()), order**2)


def d2_table_count(G, cap):
    """Table d2 by counting commutator-table values: every value v, counted
    N(v) times over the m^2 pairs, has |C_G(v)| = |G| / |v^G|."""
    order = G.order
    assert order <= cap
    counts = np.bincount(G.commutator_table.ravel(), minlength=order)
    sizes = np.bincount(G.class_labels(G.all_elements(cap), cap), minlength=order)
    centralizer = order // sizes[G.class_labels(np.arange(order), cap)]
    return Fraction(int(counts @ centralizer), order**3)


def family(p, n):
    return AlgebraGroup(AlgebraParams.hyperbolic(p, n))


def form_group(p, rows):
    return AlgebraGroup(AlgebraParams(BilinearForm.from_rows(p, rows)))


# Exact family d2 at (p, n), from the graded route
FAMILY_D2 = {
    (3, 1): Fraction(523, 2187),
    (5, 1): Fraction(6701, 78125),
    (7, 1): Fraction(35575, 823543),
    (2, 2): Fraction(1691, 8192),
    (3, 2): Fraction(84499, 1594323),
    (2, 3): Fraction(75203, 524288),
}


def sampled_cover_reference(G, n, S, samples, seed):
    """One pair per sample with ball sizes by orbit closure: (index of the
    first commutator outside B*S, that commutator), or (samples, None)."""
    rng = np.random.default_rng(seed)
    for i in range(samples):
        g, h = G.random_elements(rng, 2)
        c = G.commutator(g, h)
        if not any(len(G.conjugacy_orbit(G.mul(c, G.inverse(s)))) <= n for s in S):
            return i, c
    return samples, None


class TestD1:
    def test_abelian_is_one(self):
        assert stats.d1_exact(corpus_group("c6")).value == 1

    def test_s3_pair_count(self):
        S3 = corpus_group("s3")
        rep = stats.d1_exact(S3)
        assert rep.value == Fraction(1, 2)
        assert rep.value == Fraction(commuting_pair_count(S3), S3.order**2)

    def test_q8_attains_nonabelian_maximum(self):
        Q8 = corpus_group("q8")
        rep = stats.d1_exact(Q8)
        assert rep.value == Fraction(5, 8)
        assert rep.value == Fraction(commuting_pair_count(Q8), Q8.order**2)

    def test_class_count_equals_pair_count_corpus_wide(self, corpus_groups):
        for G in corpus_groups.values():
            assert stats.d1_exact(G).value == Fraction(
                commuting_pair_count(G), G.order**2
            )

    def test_nonabelian_bound_five_eighths(self, corpus_groups):
        for G in corpus_groups.values():
            if not G.is_abelian:
                assert stats.d1_exact(G).value <= Fraction(5, 8)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stats.d1_exact(corpus_group("a4"), cap=4)

    def test_family_p3_n1_sums_past_the_enumeration_cap(self, family31):
        # |G| = 3^9 = 19683 > 2^14, the default enumeration cap
        assert stats.d1_exact(family31).value == Fraction(43, 2187)
        # independent count by orbit closure: d1 = (number of classes) / |G|
        assert len(family31.conjugacy_classes(cap=1 << 15)) == 387
        assert Fraction(387, family31.order) == Fraction(43, 2187)

    def test_family_d1(self, family21):
        # 56 classes over 512 elements; frozen after the class partition was
        # cross-checked against full-conjugation orbits
        assert stats.d1_exact(family21).value == Fraction(56, 512)


class TestD2:
    def test_class_two_group_is_one(self):
        assert stats.d2_exact(corpus_group("q8")).value == 1
        assert stats.d2_exact(corpus_group("d4")).value == 1

    def test_s3_brute_force(self):
        S3 = corpus_group("s3")
        assert stats.d2_exact(S3).value == d2_brute(S3) == Fraction(3, 4)

    def test_matches_brute_force_on_small_groups(self):
        for name in ("c4", "s3", "q8"):
            G = corpus_group(name)
            assert stats.d2_exact(G).value == d2_brute(G)

    def test_family_n1_frozen_value(self, family21):
        rep = stats.d2_exact(family21)
        assert rep.value >= Fraction(1, 8)
        assert rep.value == Fraction(65, 128)

    def test_family_matches_full_pair_sum(self, family21):
        # same statistic without the class-representative reduction
        G = family21
        eng = G.batch
        elems = list(G.elements())
        flat = np.array([e.coords() for e in elems], dtype=np.int64)
        total = 0
        from nilprob.groups import GroupElement

        a = eng.from_coords(np.repeat(flat, len(elems), axis=0))
        b = eng.from_coords(np.tile(flat, (len(elems), 1)))
        comms = eng.coords(eng.commutator(a, b)).astype(np.uint8)
        for key, cnt in zip(*np.unique(comms, axis=0, return_counts=True)):
            g = GroupElement.from_coords(G.params, tuple(int(v) for v in key))
            total += int(cnt) * (G.order // G.class_size(g))
        assert stats.d2_exact(G).value == Fraction(total, G.order**3)

    def test_cap(self):
        # (2,3) has 2^12 grade-1 pairs, over the default cap 2^10
        with pytest.raises(CapExceededError):
            stats.d2_exact(family(2, 3))

    def test_table_cap_bounds_order(self, monkeypatch):
        # a table's cap bounds |G|, and the quotient route lists no classes
        G = corpus_group("a4")
        monkeypatch.setattr(G, "conjugacy_classes", None)
        assert stats.d2_exact(G, cap=12).value == Fraction(5, 9)
        with pytest.raises(CapExceededError) as exc:
            stats.d2_exact(G, cap=11)
        assert str(exc.value) == "|G| = 12 exceeds d2 cap 11"

    def test_table_count_over_row_blocks(self, monkeypatch):
        # the commutator table built in 5-row blocks of a4's 12 rows, the
        # last one short, gives the count the quotient route matches
        monkeypatch.setattr(groups, "_TABLE_BLOCK_ENTRIES", 60)
        G = corpus_group("a4")
        t, inv, every = G.table, G.inv_table, np.arange(12)
        assert np.array_equal(G.commutator_table, t[t[inv[every, None], inv], t])
        assert d2_table_count(G, 12) == stats.d2_exact(G).value == Fraction(5, 9)

    def test_table_builds_no_commutator_table(self):
        G = direct_product(corpus_group("heis27"), corpus_group("a4"))
        assert stats.d2_exact(G).value == Fraction(5, 9)
        assert "commutator_table" not in G.__dict__

    @pytest.mark.parametrize("factors", [(name,) for name in CORPUS_NAMES]
                             + [("d4", "q8"), ("heis27", "a4"), ("a4", "d4", "s3")],
                             ids="x".join)
    def test_table_matches_class_loop(self, factors):
        G = corpus_group(factors[0])
        for name in factors[1:]:
            G = direct_product(G, corpus_group(name))
        value = stats.d2_exact(G, cap=G.order).value
        assert value == d2_class_loop(G, G.order) == d2_table_count(G, G.order)

    def test_family_cap_bounds_pairs(self, monkeypatch):
        # the family's cap counts the p^(2d) grade-1 pairs, not |G|, and the
        # graded route lists no classes
        G = family(2, 1)
        monkeypatch.setattr(G, "conjugacy_classes", None)
        assert stats.d2_exact(G, cap=16).value == Fraction(65, 128)
        with pytest.raises(CapExceededError) as exc:
            stats.d2_exact(G, cap=15)
        assert str(exc.value) == "p^(2d) = 16 grade-1 pairs exceed d2 cap 15"

    def test_graded_matches_class_loop(self, family21):
        assert stats.d2_exact(family21).value == d2_class_loop(family21, family21.order)

    @settings(max_examples=12)
    @given(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2)]).flatmap(
        lambda pd: st.lists(st.integers(0, pd[0] - 1), min_size=pd[1] ** 2,
                            max_size=pd[1] ** 2).map(lambda flat: (pd, flat))))
    def test_graded_matches_quotient_sum_on_dense_forms(self, form):
        (p, d), flat = form
        G = form_group(p, [flat[i : i + d] for i in range(0, d * d, d)])
        assert stats.d2_exact(G, cap=G.order).value == d2_quotient_sum(G, G.order)

    @pytest.mark.parametrize("G", [
        family(2, 1), form_group(3, [[2]]), form_group(2, [[1, 1], [0, 1]]), corpus_group("s3"),
        corpus_group("a4"), corpus_group("heis27"),
        direct_product(corpus_group("a4"), corpus_group("s3")),
    ], ids=["family-2-1", "dense-3-d1", "dense-2-d2", "s3", "a4", "heis27", "a4xs3"])
    def test_quotient_sum_equals_class_loop(self, G):
        assert d2_quotient_sum(G, G.order) == d2_class_loop(G, G.order)

    @pytest.mark.parametrize("shape", list(FAMILY_D2), ids=str)
    def test_family_pinned_values(self, shape):
        G = family(*shape)
        pairs = G.params.p ** (2 * G.params.d)
        assert stats.d2_exact(G, cap=pairs).value == FAMILY_D2[shape]

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=str)
    def test_family_inside_mc_interval(self, shape):
        rep = stats.dk_monte_carlo(family(*shape), 2, 1 << 17, seed=stats.DEFAULT_SEED)
        assert rep.ci_low <= FAMILY_D2[shape] <= rep.ci_high


class TestGradedBlocks:
    """The identity the graded d2 rests on: for fixed grade-1 parts, the
    grade-3 part of [1+a, 1+b] is affine in (A, B) with linear part
    [a1, B]_3 + [A, b1]_3, so sigma of it lies in the row space of
    a1 @ Sigma and b1 @ Sigma."""

    @pytest.mark.parametrize("G", [
        family(2, 2), family(3, 1), form_group(5, [[1, 3], [4, 2]]),
    ], ids=["hyperbolic-2-2", "hyperbolic-3-1", "dense-5-d2"])
    def test_c3_linear_part_is_two_brackets(self, G):
        eng, p, d, n = G.batch, G.params.p, G.params.d, 64
        rng = np.random.default_rng(7)
        x, y = eng.random_l1(rng, n), eng.random_l1(rng, n)
        r1, r2 = (lambda s: eng.zeros(n)._replace(r1=s.r1)), (lambda s: eng.zeros(n)._replace(r2=s.r2))
        diff = (eng.commutator(x, y).r3 - eng.commutator(r1(x), r1(y)).r3) % p
        brackets = eng.add(eng.lie_bracket(r1(x), r2(y)), eng.lie_bracket(r2(x), r1(y)))
        assert np.array_equal(diff, brackets.r3)

        _, _, sigma, Sigma = G._graded_blocks
        _, n2, n4, n1 = Sigma.shape
        assert n4 == 1   # none of these forms is symmetric
        flat = Sigma.reshape(d, n2 * n1)
        span = np.concatenate([x.r1 @ flat, y.r1 @ flat], axis=1).reshape(n, 2 * n2, n1)
        sigma_diff = (diff @ sigma.reshape(d, n1)).reshape(n, 1, n1)
        assert (rank_stack(sigma_diff, p) > 0).any()
        assert np.array_equal(rank_stack(np.concatenate([span, sigma_diff], axis=1), p),
                              rank_stack(span, p))

    def test_one_commutator_row_per_pair(self, monkeypatch):
        G, rows = family(3, 1), []
        eng = G.batch
        commutator = eng.commutator
        monkeypatch.setattr(eng, "commutator", lambda a, b: rows.append(a.count) or commutator(a, b))
        assert stats.d2_exact(G, cap=3**4).value == FAMILY_D2[(3, 1)]
        assert sum(rows) == 3**4

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2, 3)], ids=str)
    def test_one_elimination_per_block(self, monkeypatch, shape):
        G, calls = family(*shape), []
        d = G.params.d
        pairs = G.params.p ** (2 * d)
        monkeypatch.setattr(groups, "pivot_rows",
                            lambda m, p: calls.append(len(m)) or pivot_rows(m, p))
        monkeypatch.setattr(groups, "rank_stack", None)
        assert stats.d2_exact(G, cap=pairs).value == FAMILY_D2[shape]
        step = 16 * BLOCK // (1 + 2 * d * d)
        assert calls == [min(step, pairs - s) for s in range(0, pairs, step)]

    @pytest.mark.parametrize("rows", [[[0]], [[0, 0], [0, 0]]], ids=["d1", "d2"])
    def test_zero_form_gives_one(self, rows):
        # every bracket with F in it vanishes: abelian at d = 1, class 2 at d = 2
        G = form_group(3, rows)
        assert all(b.size == 0 for b in G._graded_blocks)
        assert stats.d2_exact(G).value == 1

    def test_symmetric_form_has_no_r4_row(self):
        G = form_group(2, [[1, 1], [1, 0]])
        X, rho, sigma, Sigma = G._graded_blocks
        assert X.size > 0 and rho.size == sigma.size == Sigma.size == 0
        assert stats.d2_exact(G, cap=G.order).value == d2_class_loop(G, G.order)


class TestMonteCarlo:
    def test_abelian_estimate_one(self):
        rep = stats.dk_monte_carlo(corpus_group("c6"), 2, 2000, seed=1)
        assert rep.value == 1.0
        assert rep.ci_high == 1.0
        assert rep.ci_low <= 1.0

    def test_seed_deterministic(self, family21):
        a = stats.dk_monte_carlo(family21, 2, 50_000, seed=9)
        b = stats.dk_monte_carlo(family21, 2, 50_000, seed=9)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)
        c = stats.dk_monte_carlo(family21, 2, 50_000, seed=10)
        assert a.value != c.value

    def test_thread_count_does_not_change_estimate(self, family21):
        a = stats.dk_monte_carlo(family21, 2, 150_000, seed=3, threads=1)
        b = stats.dk_monte_carlo(family21, 2, 150_000, seed=3, threads=4)
        assert a.value == b.value

    def test_ci_contains_exact_for_most_seeds(self, family21):
        exact = float(stats.d2_exact(family21).value)
        hits = 0
        for seed in range(50):
            rep = stats.dk_monte_carlo(family21, 2, 4000, seed=seed)
            if rep.ci_low <= exact <= rep.ci_high:
                hits += 1
        assert hits >= 48

    def test_table_group_k1_matches_d1(self):
        S3 = corpus_group("s3")
        exact = float(stats.d1_exact(S3).value)
        rep = stats.dk_monte_carlo(S3, 1, 200_000, seed=4)
        assert rep.ci_low <= exact <= rep.ci_high

    def test_table_group_thread_count_does_not_change_report(self):
        A4 = corpus_group("a4")
        samples = 3 * stats.MC_CHUNK + 17
        a = stats.dk_monte_carlo(A4, 2, samples, seed=11, threads=1)
        b = stats.dk_monte_carlo(A4, 2, samples, seed=11, threads=2)
        key = lambda r: (r.value, r.ci_low, r.ci_high, r.samples, r.seed)
        assert key(a) == key(b)
        assert a.value == 0.5541614748887476    # the seeded draws stay fixed

    @pytest.mark.parametrize("p,n,chunks,hits", [(2, 2, 2, 27057), (3, 2, 1, 3543)])
    def test_family_seeded_hits_pinned(self, p, n, chunks, hits):
        # Hit counts measured before the batch kernels took their closed
        # forms: the random draws and the kernel outputs both stay fixed.
        G = AlgebraGroup(AlgebraParams.hyperbolic(p, n))
        samples = chunks * stats.MC_CHUNK
        for threads in (1, 2):
            rep = stats.dk_monte_carlo(G, 2, samples, seed=123, threads=threads)
            assert rep.value == hits / samples

    @pytest.mark.parametrize("group,k,samples,seed,hits", [
        ((2, 2), 2, 2 * stats.MC_CHUNK + 1000, 7, 27455),
        ((3, 2), 2, 70001, 3, 3675),
        ((2, 2), 3, 70001, 11, 48595),     # two steps on inputs with no grade 1
        ((2, 1), 1, 70001, 2, 7625),
        ("a4", 2, 70001, 5, 39014),
        ((2, 2), 4, 70001, 13, 70001),     # the class-4 family: every 5-fold one is 1
        (BilinearForm.from_rows(3, [[1, 2, 0], [0, 1, 1], [2, 0, 2]]), 2, 70001, 17, 6775),
    ], ids=["family22-k2", "family32-k2", "family22-k3", "family21-k1", "a4-k2",
            "family22-k4", "dense33-k2"])
    def test_seeded_hits_golden(self, group, k, samples, seed, hits):
        # Seeded MC reports are fixed across versions: these counts were
        # measured before the commutator chain was computed by grade, with
        # partial last chunks, k = 1, 2, 3 and a table group; the k = 4 and
        # dense-form counts before the chain dropped the grades no later
        # step reads.
        if isinstance(group, str):
            G = corpus_group(group)
        elif isinstance(group, BilinearForm):
            G = AlgebraGroup(AlgebraParams(group))
        else:
            G = AlgebraGroup(AlgebraParams.hyperbolic(*group))
        for threads in (1, 2):
            rep = stats.dk_monte_carlo(G, k, samples, seed=seed, threads=threads)
            assert rep.value == hits / samples
            assert (rep.ci_low, rep.ci_high) == stats.clopper_pearson(hits, samples)

    @pytest.mark.parametrize("names,k,report", [
        (("d4", "q8"), 2, (1.0, 0.9999595781718432, 1.0)),
        (("d4", "q8"), 3, (1.0, 0.9999595781718432, 1.0)),
        (("heis27", "a4"), 2, (0.5536304196897912, 0.5500878483991989, 0.5571690927366)),
        (("heis27", "a4"), 3, (0.7015708803491184, 0.6983042883193809, 0.7048228188653837)),
    ])
    def test_seeded_table_products_pinned(self, names, k, report):
        # Reports measured while table commutators were five gathers per
        # lookup, before they were read from one cached commutator table.
        # The two heis27 x a4 upper bounds moved by one ulp each, to the
        # correctly rounded Beta quantiles, when the bounds stopped coming
        # from scipy.
        G = direct_product(*(corpus_group(n) for n in names))
        for threads in (1, 2):
            rep = stats.dk_monte_carlo(G, k, 2 * stats.MC_CHUNK + 1, threads=threads)
            assert (rep.value, rep.ci_low, rep.ci_high) == report

    def test_validation(self, family21):
        with pytest.raises(ValueError):
            stats.dk_monte_carlo(family21, 0, 10)
        with pytest.raises(ValueError):
            stats.dk_monte_carlo(family21, 1, 0)

    def test_report_json_shape(self, family21):
        rep = stats.dk_monte_carlo(family21, 2, 1000, seed=5)
        d = rep.to_json_dict()
        assert d["kind"] == "monte-carlo"
        assert set(d) == {"kind", "estimate", "ci_low", "ci_high", "samples", "seed", "elapsed_ms"}
        exact = stats.d1_exact(corpus_group("s3")).to_json_dict()
        assert set(exact) == {"kind", "value_num", "value_den", "elapsed_ms"}
        json.dumps(d), json.dumps(exact)


def binomial_tail_sign(samples, hits, y, tail, lower_tail):
    """The sign of P(Bin(samples, y) <= hits) - tail if `lower_tail`, else
    of P(Bin(samples, y) >= hits) - tail, in integers: with y = m / 2^e,
    2^(e samples) P(Bin(samples, y) = k) = C(samples, k) m^k (2^e - m)^(samples - k).
    The terms are summed outward from hits and the sum stops once the rest,
    bounded by a geometric series, cannot change the sign."""
    m, e = y.numerator, y.denominator.bit_length() - 1
    w = (1 << e) - m
    a, d = tail.as_integer_ratio()
    target = a << (e * samples)
    term = math.comb(samples, hits) * m**hits * w**(samples - hits) << (d.bit_length() - 1)
    total, k = term, hits
    while total <= target:
        if k == (0 if lower_tail else samples):
            return (total > target) - (total < target)
        if lower_tail:
            num, den, k = k * w, (samples - k + 1) * m, k - 1
        else:
            num, den, k = (samples - k) * m, (k + 1) * w, k + 1
        if num < den and total * (den - num) + term * num < target * (den - num):
            return -1
        term = term * num // den
        total += term
    return 1


def mp_binomial_tail(samples, hits, y, lower_tail):
    """P(Bin(samples, y) <= hits) if `lower_tail`, else P(Bin(samples, y) >= hits),
    at mpmath's working precision."""
    import mpmath

    y = mpmath.mpf(y)
    r = y / (1 - y)
    term = total = mpmath.mpf(1)
    k, eps = hits, mpmath.mpf(2) ** -(mpmath.mp.prec + 8)
    while k != (0 if lower_tail else samples):
        num, den = (k, (samples - k + 1) * r) if lower_tail else ((samples - k) * r, k + 1)
        k += -1 if lower_tail else 1
        term = term * num / den
        total += term
        if num < den and term * num < eps * total * (den - num):
            break
    log_pmf = (mpmath.loggamma(samples + 1) - mpmath.loggamma(hits + 1)
               - mpmath.loggamma(samples - hits + 1) + hits * mpmath.log(y)
               + (samples - hits) * mpmath.log1p(-y))
    return mpmath.exp(log_pmf) * total


def assert_correctly_rounded(hits, samples, confidence, sign_at):
    """Each nontrivial bound lies between the midpoints to its neighbours,
    and the root between them, by `sign_at(y, tail, lower_tail)`."""
    tail = (1.0 - confidence) / 2
    lo, hi = stats.clopper_pearson(hits, samples, confidence)
    assert (lo == 0.0) == (hits == 0) and (hi == 1.0) == (hits == samples)
    for x, lower_tail in ((lo, False), (hi, True)):
        if x in (0.0, 1.0):
            continue
        below = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2
        above = (Fraction(x) + Fraction(math.nextafter(x, 1.0))) / 2
        signs = sign_at(below, tail, lower_tail), sign_at(above, tail, lower_tail)
        assert signs == ((1, -1) if lower_tail else (-1, 1)), (hits, samples, x, lower_tail)


CP_GRID = [(hits, samples) for samples in (1, 2, 7, 50, 1000, 4000, 65536, 10**6)
           for hits in sorted({0, 1, 2, samples // 3, samples // 2, samples - 1, samples})
           if hits <= samples]


class TestClopperPearson:
    # The lower bound solves P(Bin(n, x) >= hits) = a and the upper bound
    # P(Bin(n, x) <= hits) = a, a = (1 - confidence) / 2.  The oracles decide
    # on which side of each root the midpoints next to a bound lie.

    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    def test_matches_beta_quantiles(self, confidence):
        # exact integer oracle for n <= 4000
        for hits, samples in CP_GRID:
            if samples <= 4000:
                assert_correctly_rounded(hits, samples, confidence, lambda y, tail, lower:
                                         binomial_tail_sign(samples, hits, y, tail, lower))

    @given(st.integers(1, 400).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n), st.sampled_from([0.99, 0.95, 0.5]))))
    @settings(max_examples=100)
    def test_correctly_rounded_small(self, case):
        hits, samples, confidence = case
        assert_correctly_rounded(hits, samples, confidence, lambda y, tail, lower:
                                 binomial_tail_sign(samples, hits, y, tail, lower))

    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    @pytest.mark.parametrize("samples", [65536, 131073, 10**6])
    def test_correctly_rounded_large(self, samples, confidence):
        # 50-digit mpmath oracle
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for hits in sorted({0, 1, 2, samples // 3, samples // 2, samples - 1, samples}):
                def sign_at(y, tail, lower):
                    diff = mp_binomial_tail(samples, hits, mpmath.mpf(y.numerator) / y.denominator,
                                            lower) - tail
                    return (diff > 0) - (diff < 0)
                assert_correctly_rounded(hits, samples, confidence, sign_at)

    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    def test_close_to_scipy(self, confidence):
        # scipy's own Beta quantiles are off by up to 1.0e-11 relative here
        # (the upper bound at hits = 2, n = 10^6, confidence 0.95)
        beta = pytest.importorskip("scipy.stats").beta
        alpha = 1.0 - confidence
        for hits, samples in CP_GRID:
            lo, hi = stats.clopper_pearson(hits, samples, confidence)
            if hits > 0:
                assert math.isclose(lo, beta.ppf(alpha / 2, hits, samples - hits + 1), rel_tol=1e-10)
            if hits < samples:
                assert math.isclose(hi, beta.ppf(1 - alpha / 2, hits + 1, samples - hits),
                                    rel_tol=1e-10)

    def test_single_sample_tie_rounds_to_even(self):
        # n = 1: the roots are a and 1 - a; at confidence 0.9, 1 - a lies
        # halfway between two doubles, and the even one is 0.95
        tail = (1.0 - 0.9) / 2
        assert Fraction(1) - Fraction(tail) == (Fraction(0.95) + Fraction(math.nextafter(0.95, 1))) / 2
        assert stats.clopper_pearson(0, 1, 0.9) == (0.0, 0.95)
        assert stats.clopper_pearson(1, 1, 0.9) == (tail, 1.0)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_integer_counts(self, int_type):
        # counts from mask.sum() are numpy integers
        for hits, samples in ((100, 1000), (3, 10), (0, 7), (7, 7), (1, 1)):
            expect = stats.clopper_pearson(hits, samples)
            assert stats.clopper_pearson(int_type(hits), samples) == expect
            assert stats.clopper_pearson(hits, int_type(samples)) == expect
            assert stats.clopper_pearson(int_type(hits), int_type(samples)) == expect

    @pytest.mark.parametrize("args", [(5, 3), (-1, 3), (2, 0), (0, 0), (1, 3, 1.5), (1, 3, 0.0),
                                      (1, 3, 1.0)])
    def test_invalid_arguments_raise(self, args):
        with pytest.raises(ValueError):
            stats.clopper_pearson(*args)


class TestConjugacyNorm:
    def test_identity_is_zero(self, family21):
        assert stats.conjugacy_norm(family21, family21.identity) == 0.0
        assert stats.conjugacy_norm(corpus_group("s3"), 0) == 0.0

    def test_invariance_and_symmetry(self, family21):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g, h = family21.random_elements(rng, 2)
            n = stats.conjugacy_norm(family21, g)
            assert stats.conjugacy_norm(family21, family21.conjugate(g, h)) == n
            assert stats.conjugacy_norm(family21, family21.inverse(g)) == n

    def test_triangle_inequality_q8_and_family(self, family21):
        Q8 = corpus_group("q8")
        for g in Q8.elements():
            for h in Q8.elements():
                assert (
                    stats.conjugacy_norm(Q8, Q8.mul(g, h))
                    <= stats.conjugacy_norm(Q8, g) + stats.conjugacy_norm(Q8, h) + 1e-12
                )
        rng = np.random.default_rng(7)
        for _ in range(200):
            g, h = family21.random_elements(rng, 2)
            assert (
                stats.conjugacy_norm(family21, family21.mul(g, h))
                <= stats.conjugacy_norm(family21, g)
                + stats.conjugacy_norm(family21, h)
                + 1e-12
            )

    def test_base_conventions(self, family21):
        # family norms are base-p logs of p-power class sizes, so integers
        rng = np.random.default_rng(8)
        for g in family21.random_elements(rng, 20):
            n = stats.conjugacy_norm(family21, g)
            assert abs(n - round(n)) < 1e-9
        Q8 = corpus_group("q8")
        i = next(g for g in Q8.elements() if Q8.class_size(g) == 2)
        assert stats.conjugacy_norm(Q8, i) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_family_norms_are_exact_exponents(self, p):
        # math.log(125, 5) is 3.0000000000000004, and (5,1) has classes of 125
        G = AlgebraGroup(AlgebraParams.hyperbolic(p, 1))
        for g in G.random_elements(np.random.default_rng(p), 200):
            norm = stats.conjugacy_norm(G, g)
            assert norm == int(norm) and p ** int(norm) == G.class_size(g)

    def test_table_norms_are_natural_logs(self, corpus_groups):
        for G in corpus_groups.values():
            for g in G.elements():
                assert stats.conjugacy_norm(G, g) == math.log(G.class_size(g))


class TestCommutatorSet:
    def test_table_matches_all_pairs(self, corpus_groups):
        groups = dict(corpus_groups)
        groups["d4xq8"] = direct_product(corpus_groups["d4"], corpus_groups["q8"])
        for name, G in groups.items():
            brute = sorted({G.commutator(x, y) for x in G.elements() for y in G.elements()})
            assert stats.commutator_set(G) == brute, name

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stats.commutator_set(corpus_group("a4"), cap=143)

    @pytest.mark.parametrize("name", ["family21", "a4"])
    def test_pair_cap_bounds_every_enumeration(self, request, monkeypatch, name):
        # the pair cap, not the default enumeration cap, reaches the element
        # enumeration and the class labels; the classes are never listed
        G = request.getfixturevalue(name) if name.startswith("family") else corpus_group(name)
        seen = []
        for attr in ("all_elements", "elements", "conjugacy_classes", "class_labels"):
            method = getattr(G, attr)

            def spy(*args, _method=method, _attr=attr, **kwargs):
                bound = inspect.signature(_method).bind(*args, **kwargs)
                seen.append((_attr, bound.arguments.get("cap")))
                return _method(*args, **kwargs)

            monkeypatch.setattr(G, attr, spy)
        cap = G.order**2
        assert stats.commutator_set(G, cap=cap)
        assert {attr for attr, _ in seen} == {"all_elements", "elements", "class_labels"}
        assert all(received == cap for _, received in seen), seen

    @pytest.mark.parametrize("p, rows", [
        (2, None), (2, [[1, 1], [0, 1]]), (2, [[0, 1], [1, 1]]), (3, [[2]]), (5, [[3]]),
    ])
    def test_family_matches_all_pairs(self, p, rows):
        # every pair's commutator, row block by row block, deduplicated; no
        # class labels.  d = 1 forms give abelian groups (Comm = {1}).
        G = family(2, 1) if rows is None else form_group(p, rows)
        eng, flat = G.batch, G.batch.coords(G.all_elements())
        blocks = []
        for i in range(0, len(flat), 64):
            rows = flat[i : i + 64]
            comms = eng.commutator(eng.from_coords(np.repeat(rows, len(flat), axis=0)),
                                   eng.from_coords(np.tile(flat, (len(rows), 1))))
            blocks.append(np.unique(eng.coords(comms), axis=0))
        values = np.unique(np.concatenate(blocks), axis=0)
        assert np.array_equal(eng.coords(G.stack(stats.commutator_set(G))), values)

    def test_family31_reach(self, family31):
        # past the default pair cap: 81 commutators, the 27 values mod R4 each
        # with all 3 values of the R4 coordinate (the last one)
        G, cap = family31, family31.order**2
        comms = G.batch.coords(G.stack(stats.commutator_set(G, cap=cap)))
        heads, counts = np.unique(comms[:, :-1], axis=0, return_counts=True)
        assert (len(comms), len(heads), set(counts.tolist())) == (81, 27, {3})
        t0 = time.perf_counter()
        assert stats.covering_check(G, 9, [G.identity], cap=cap).checked == 81
        assert time.perf_counter() - t0 < 1.0
        # the CLI keeps the default pair cap
        assert cli.main(["cover", "--family", "--p", "3", "--n", "1", "--n-bound", "9"]) == 3

    def test_quotient_identity_sums_to_d2(self, corpus_groups, family21, family31):
        # sum over z of |C_G(z rho(z)^-1)|, rho(z) the least member of z's
        # class, is |G|^2 d2: the pair count behind commutator_set's route
        named = dict(corpus_groups)
        named["d4xq8"] = direct_product(corpus_groups["d4"], corpus_groups["q8"])
        named["heis27xa4"] = direct_product(corpus_groups["heis27"], corpus_groups["a4"])
        named["family21"], named["family31"] = family21, family31
        for name, G in named.items():
            cap = G.order**2
            elems = G.all_elements(cap)
            quotients = G.quotients(elems, G.from_indices(G.class_labels(elems, cap)))
            total = int((G.order // G.class_sizes(quotients)).sum())
            assert Fraction(total, G.order**2) == stats.d2_exact(G).value, name
        assert stats.d2_exact(family21).value == Fraction(65, 128)
        assert stats.d2_exact(family31).value == FAMILY_D2[(3, 1)]


class TestCovering:
    def test_family_bound8_identity(self, family21):
        w = stats.covering_check(family21, 8, [family21.identity])
        assert w.ok and w.exhaustive
        assert w.verified_fraction == 1

    def test_abelian_bound1_identity(self):
        C6 = corpus_group("c6")
        w = stats.covering_check(C6, 1, [0])
        assert w.ok

    def test_s3_bound1_counterexample(self):
        S3 = corpus_group("s3")
        w = stats.covering_check(S3, 1, [0])
        assert not w.ok
        assert w.counterexample is not None
        assert S3.class_size(w.counterexample) > 1

    def test_sampled_mode(self, family22):
        w = stats.covering_check(family22, 8, [family22.identity], mode="sampled",
                                 samples=500, seed=11)
        assert w.ok and not w.exhaustive
        assert w.checked == 500

    def test_sampled_table_seeded(self):
        A4 = corpus_group("a4")
        w = stats.covering_check(A4, 3, [0], mode="sampled", samples=500, seed=3)
        assert (w.ok, w.exhaustive, w.checked, w.counterexample) == (True, False, 500, None)
        w = stats.covering_check(A4, 1, [0], mode="sampled", samples=500, seed=3)
        assert (w.checked, w.counterexample, w.verified_fraction) == (500, 8, 0)

    def test_sampled_matches_per_sample_loop(self, family21, family22):
        s3 = corpus_group("s3")
        s3_cubed = direct_product(direct_product(s3, s3), s3)
        rrr = 3 * 36 + 3 * 6 + 3          # (r, r, r) with r = 3 of order 3 in s3
        comm = stats.commutator_set(s3_cubed)
        cases = [
            (family21, 2, [family21.identity]),
            (family22, 4, [family22.identity]),
            (corpus_group("a4"), 1, [0, 3]),
            # P([x, y] = (r, r, r)) = 1/64, so failures land past the first chunk
            (s3_cubed, 1, [c for c in comm if c != rrr]),
        ]
        late = 0
        for G, n, S in cases:
            for seed in range(6):
                w = stats.covering_check(G, n, S, mode="sampled", samples=300, seed=seed)
                index, counterexample = sampled_cover_reference(G, n, S, 300, seed)
                assert (w.verified_fraction, w.counterexample) == (Fraction(index, 300), counterexample)
                late = max(late, index)
        assert late >= 64

    def test_monotone_in_n_and_s(self, corpus_groups):
        # a passing check never turns failing when n grows or S gains elements
        for name in ("s3", "d4", "q8", "a4"):
            G = corpus_groups[name]
            comm = stats.commutator_set(G)
            for n in (1, 2, 3):
                base = stats.covering_check(G, n, [0])
                if base.ok:
                    assert stats.covering_check(G, n + 1, [0]).ok
                    for extra in comm[:3]:
                        assert stats.covering_check(G, n, [0, extra]).ok
        S3 = corpus_group("s3")
        assert not stats.covering_check(S3, 1, [0]).ok
        assert stats.covering_check(S3, 2, [0]).ok
        assert stats.covering_check(S3, 1, stats.commutator_set(S3)).ok

    def test_minimal_s_family(self, family21):
        w = stats.covering_minimal_S(family21, 8)
        assert w.ok
        assert w.S == [family21.identity]
        assert w.exact_minimum is True

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_check_rejects_bound_zero(self, mode):
        # checked before any commutator work, so a tiny pair cap never trips
        with pytest.raises(ValueError, match="covering bound n must be >= 1"):
            stats.covering_check(corpus_group("s3"), 0, [0], mode=mode, cap=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "sampling"}, "unknown mode 'sampling'"),
        ({"mode": "sampled", "samples": 0}, "need samples >= 1"),
    ])
    def test_check_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            stats.covering_check(corpus_group("s3"), 1, [0], **kwargs)

    def test_minimal_s_rejects_bound_zero(self):
        with pytest.raises(ValueError):
            stats.covering_minimal_S(corpus_group("s3"), 0)
        # checked before any commutator work, so a tiny pair cap never trips
        with pytest.raises(ValueError):
            stats.covering_minimal_S(corpus_group("s3"), 0, cap=1)

    def test_minimal_s_abelian(self):
        w = stats.covering_minimal_S(corpus_group("c4"), 1)
        assert w.S == [0]
        assert w.exact_minimum is True

    def test_minimal_s_s3_exact_cover(self):
        # with n = 1 the ball around s is {s} itself, so S must be the whole
        # commutator set: all three rotations' values
        S3 = corpus_group("s3")
        w = stats.covering_minimal_S(S3, 1)
        assert w.ok
        assert w.exact_minimum is True
        assert sorted(w.S) == stats.commutator_set(S3)
        assert len(w.S) == 3


class TestSubmultiplicativity:
    def pairs(self):
        S3 = corpus_group("s3")
        D4 = corpus_group("d4")
        Q8 = corpus_group("q8")
        A4 = corpus_group("a4")
        H27 = corpus_group("heis27")
        S3xS3 = direct_product(S3, S3)
        out = []
        for G in (S3, D4, Q8, A4, H27, S3xS3):
            for H in subgroups(G) if G.order <= 64 else []:
                if 1 < len(H) < G.order:
                    try:
                        quotient, _ = quotient_table(G, H)
                    except ValueError:
                        continue
                    Hgrp, _ = subgroup_table(G, H)
                    out.append((G, Hgrp, quotient))
        return out

    def test_dk_submultiplicative(self):
        pairs = self.pairs()
        assert len(pairs) >= 5
        for G, N, Q in pairs:
            assert stats.d1_exact(G).value <= stats.d1_exact(N).value * stats.d1_exact(Q).value
            assert stats.d2_exact(G).value <= stats.d2_exact(N).value * stats.d2_exact(Q).value

    def test_direct_product_tightness(self):
        # d2(S3 x S3) = d2(S3)^2: the inequality is sharp here
        S3 = corpus_group("s3")
        prod = direct_product(S3, S3)
        assert stats.d2_exact(prod).value == stats.d2_exact(S3).value ** 2
