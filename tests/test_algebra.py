import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from nilprob.algebra import (
    AlgebraElement,
    AlgebraParams,
    alg_add,
    alg_mul,
    alg_neg,
    basis_elements,
    from_text,
    lie_bracket,
    to_text,
)
from nilprob.errors import ParamsMismatchError
from nilprob.fieldlin import SUPPORTED_PRIMES, FpVector, form_eval
from nilprob.groups import GroupElement


def rand_element(params, rng, with_c0=True):
    p, d = params.p, params.d
    return AlgebraElement(
        params,
        rng.randrange(p) if with_c0 else 0,
        tuple(rng.randrange(p) for _ in range(d)),
        tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)),
        tuple(rng.randrange(p) for _ in range(d)),
        rng.randrange(p),
    )


def rand_vec(params, rng):
    return FpVector(params.p, tuple(rng.randrange(params.p) for _ in range(params.d)))


def r1_elem(params, vec):
    return AlgebraElement.from_r1(params, vec)


def pure_tensor(params, x, y):
    """x (x) y as an R2 element."""
    d = params.d
    r2 = tuple(tuple(x.coords[i] * y.coords[j] % params.p for j in range(d)) for i in range(d))
    z = (0,) * d
    return AlgebraElement(params, 0, z, r2, z, 0)


class TestMulRules:
    def test_triple_product_rule_on_pure_vectors(self, params21, params22):
        # (x y) z = f(y,z) x' + f(x,y) z' for vectors
        rng = random.Random(1)
        for params in (params21, params22):
            f = params.form
            for _ in range(60):
                x, y, z = (rand_vec(params, rng) for _ in range(3))
                lhs = alg_mul(alg_mul(r1_elem(params, x), r1_elem(params, y)), r1_elem(params, z))
                expect = tuple(
                    (form_eval(f, y, z) * xi + form_eval(f, x, y) * zi) % params.p
                    for xi, zi in zip(x.coords, z.coords)
                )
                z0 = (0,) * params.d
                assert lhs == AlgebraElement(params, 0, z0, (z0,) * params.d, expect, 0)
                # both associations agree by construction
                rhs = alg_mul(r1_elem(params, x), alg_mul(r1_elem(params, y), r1_elem(params, z)))
                assert lhs == rhs

    def test_unital(self, params22):
        rng = random.Random(2)
        one = AlgebraElement.one(params22)
        for _ in range(20):
            a = rand_element(params22, rng)
            assert alg_mul(a, one) == a
            assert alg_mul(one, a) == a

    def test_r2_times_r2_scalar(self, params21):
        # (x y)(z w) = f(z,w) f(x,y) + f(y,z) f(x,w); hyperbolic F2 with
        # x = z = e1 and y = w = e1' gives 1*1 + 0*0 = 1
        p = params21
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        xy = alg_mul(r1_elem(p, e1), r1_elem(p, e1p))
        zw = alg_mul(r1_elem(p, e1), r1_elem(p, e1p))
        assert alg_mul(xy, zw) == basis_elements(p)[-1]   # the R4 unit

    def test_r2_times_r2_formula_vs_nested(self, params22, params31):
        # the displayed scalar f(z,w) f(x,y) + f(y,z) f(x,w) must agree with
        # nested products (x y)(z w) = x (y z w)
        rng = random.Random(3)
        for params in (params22, params31):
            f = params.form
            for _ in range(80):
                x, y, z, w = (rand_vec(params, rng) for _ in range(4))
                nested = alg_mul(
                    alg_mul(r1_elem(params, x), r1_elem(params, y)),
                    alg_mul(r1_elem(params, z), r1_elem(params, w)),
                )
                expect = (
                    form_eval(f, z, w) * form_eval(f, x, y)
                    + form_eval(f, y, z) * form_eval(f, x, w)
                ) % params.p
                assert nested.c4 == expect

    def test_params_mismatch(self, params21, params22):
        with pytest.raises(ParamsMismatchError):
            alg_mul(AlgebraElement.one(params21), AlgebraElement.one(params22))


class TestBilinearExtensionOracle:
    """The dense R2 contraction identities against literal pure-tensor sums."""

    def decompose_r2(self, params, a):
        # a general R2 element as a sum of (c e_i) (x) e_j pure tensors
        parts = []
        for i in range(params.d):
            for j in range(params.d):
                c = a.r2[i][j]
                if c:
                    cei = FpVector(params.p, tuple(c if k == i else 0 for k in range(params.d)))
                    ej = FpVector.basis(params.p, params.d, j)
                    parts.append((cei, ej))
        return parts

    def test_r1_times_r2(self, params22, params31):
        rng = random.Random(4)
        for params in (params22, params31):
            f = params.form
            zero = AlgebraElement.zero(params)
            for _ in range(40):
                x = rand_vec(params, rng)
                m = rand_element(params, rng)
                m = AlgebraElement(params, 0, (0,) * params.d, m.r2, (0,) * params.d, 0)
                got = alg_mul(r1_elem(params, x), m)
                expect = zero
                for ei, ej in self.decompose_r2(params, m):
                    term = alg_mul(r1_elem(params, x), pure_tensor(params, ei, ej))
                    expect = alg_add(expect, term)
                assert got == expect

    def test_r2_times_r1(self, params22, params31):
        rng = random.Random(5)
        for params in (params22, params31):
            zero = AlgebraElement.zero(params)
            for _ in range(40):
                x = rand_vec(params, rng)
                m = rand_element(params, rng)
                m = AlgebraElement(params, 0, (0,) * params.d, m.r2, (0,) * params.d, 0)
                got = alg_mul(m, r1_elem(params, x))
                expect = zero
                for ei, ej in self.decompose_r2(params, m):
                    term = alg_mul(pure_tensor(params, ei, ej), r1_elem(params, x))
                    expect = alg_add(expect, term)
                assert got == expect

    def test_r2_times_r2(self, params22, params31):
        rng = random.Random(6)
        for params in (params22, params31):
            zero = AlgebraElement.zero(params)
            for _ in range(25):
                a, b = rand_element(params, rng), rand_element(params, rng)
                a = AlgebraElement(params, 0, (0,) * params.d, a.r2, (0,) * params.d, 0)
                b = AlgebraElement(params, 0, (0,) * params.d, b.r2, (0,) * params.d, 0)
                got = alg_mul(a, b)
                expect = zero
                for xi, xj in self.decompose_r2(params, a):
                    for yk, yl in self.decompose_r2(params, b):
                        term = alg_mul(pure_tensor(params, xi, xj), pure_tensor(params, yk, yl))
                        expect = alg_add(expect, term)
                assert got == expect


class TestGrading:
    def test_graded_products_land_in_sum_grade(self, params21, params31):
        for params in (params21, params31):
            basis = basis_elements(params)
            grades = ([0] + [1] * params.d + [2] * params.d**2
                      + [3] * params.d + [4])
            for (ga, a), (gb, b) in itertools.product(zip(grades, basis), repeat=2):
                # every nonzero digit has grade ga + gb, so none when it exceeds 4
                prod = alg_mul(a, b)
                assert all(g == ga + gb for g, c in zip(grades, prod.digits) if c)

    def test_distributivity(self, params22):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (rand_element(params22, rng) for _ in range(3))
            assert alg_mul(a, alg_add(b, c)) == alg_add(alg_mul(a, b), alg_mul(a, c))
            assert alg_mul(alg_add(b, c), a) == alg_add(alg_mul(b, a), alg_mul(c, a))


class TestAssociativity:
    def test_exhaustive_basis_triples_22(self, params21):
        basis = basis_elements(params21)
        for a, b, c in itertools.product(basis, repeat=3):
            assert alg_mul(alg_mul(a, b), c) == alg_mul(a, alg_mul(b, c))

    def test_random_triples_31(self, params31):
        rng = random.Random(8)
        for _ in range(300):
            a, b, c = (rand_element(params31, rng) for _ in range(3))
            assert alg_mul(alg_mul(a, b), c) == alg_mul(a, alg_mul(b, c))


class TestLieBracket:
    def test_alternating(self, params22):
        rng = random.Random(9)
        for _ in range(30):
            a = rand_element(params22, rng)
            assert lie_bracket(a, a) == AlgebraElement.zero(params22)

    def test_r1_bracket_is_antisymmetrized_tensor(self, params22):
        rng = random.Random(10)
        p, d = params22.p, params22.d
        for _ in range(30):
            x, y = rand_vec(params22, rng), rand_vec(params22, rng)
            br = lie_bracket(r1_elem(params22, x), r1_elem(params22, y))
            expect = tuple(
                tuple((x.coords[i] * y.coords[j] - y.coords[i] * x.coords[j]) % p for j in range(d))
                for i in range(d)
            )
            assert br == AlgebraElement(params22, 0, (0,) * d, expect, (0,) * d, 0)

    def test_bracket_times_vector_formula(self, params21):
        # [x,y] z = f(y,z) x' - f(x,z) y' + fA(x,y) z' on the F2 dim-2 basis
        params = params21
        f, fa = params.form, params.antisymm
        vecs = [FpVector(2, c) for c in itertools.product(range(2), repeat=2)]
        for x, y, z in itertools.product(vecs, repeat=3):
            got = alg_mul(lie_bracket(r1_elem(params, x), r1_elem(params, y)), r1_elem(params, z))
            expect = tuple(
                (
                    form_eval(f, y, z) * xi
                    - form_eval(f, x, z) * yi
                    + form_eval(fa, x, y) * zi
                ) % 2
                for xi, yi, zi in zip(x.coords, y.coords, z.coords)
            )
            assert got == AlgebraElement(params, 0, (0, 0), ((0, 0), (0, 0)), expect, 0)


def rows(*vecs):
    """One-row stacks for BatchAlg.lie3 / lie4."""
    return [np.array([v.coords], dtype=np.int64) for v in vecs]


class TestClosedForms:
    def test_lie3_hyperbolic_example(self, params21):
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        assert params21.engine.lie3(*rows(e1, e1p, e1)).tolist() == [list(e1.coords)]

    def test_lie3_alternating_in_first_two(self, params22):
        rng = random.Random(11)
        for _ in range(30):
            x, z = rand_vec(params22, rng), rand_vec(params22, rng)
            assert not params22.engine.lie3(*rows(x, x, z)).any()

    def test_lie3_matches_nested_bracket_f3_dim4(self):
        params = AlgebraParams.hyperbolic(3, 2)
        rng = random.Random(12)
        for _ in range(200):
            x, y, z = (rand_vec(params, rng) for _ in range(3))
            nested = lie_bracket(
                lie_bracket(r1_elem(params, x), r1_elem(params, y)), r1_elem(params, z)
            )
            assert [list(nested.r3)] == params.engine.lie3(*rows(x, y, z)).tolist()

    def test_lie4_hyperbolic_example(self, params21):
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        nested = lie_bracket(
            lie_bracket(lie_bracket(r1_elem(params21, e1), r1_elem(params21, e1p)),
                        r1_elem(params21, e1)),
            r1_elem(params21, e1p),
        )
        assert params21.engine.lie4(*rows(e1, e1p, e1, e1p)).tolist() == [1] == [nested.c4]

    def test_lie4_degenerate_slots(self, params22):
        rng = random.Random(13)
        for _ in range(30):
            x, z = rand_vec(params22, rng), rand_vec(params22, rng)
            assert params22.engine.lie4(*rows(x, x, z, x)).tolist() == [0]

    def test_lie4_matches_nested_bracket_f2_dim4(self, params22):
        rng = random.Random(14)
        for _ in range(500):
            x, y, z, w = (rand_vec(params22, rng) for _ in range(4))
            nested = lie_bracket(
                lie_bracket(
                    lie_bracket(r1_elem(params22, x), r1_elem(params22, y)),
                    r1_elem(params22, z),
                ),
                r1_elem(params22, w),
            )
            assert [nested.c4] == params22.engine.lie4(*rows(x, y, z, w)).tolist()
            assert nested == AlgebraElement.of(params22, (0,) * params22.dim_l1 + (nested.c4,))


class TestSerialization:
    def test_roundtrip(self, params22):
        rng = random.Random(15)
        for _ in range(20):
            a = rand_element(params22, rng)
            assert from_text(params22, to_text(a)) == a

    def test_format_shape(self, params21):
        one = AlgebraElement.one(params21)
        assert to_text(one) == "1 | 0 0 | 0 0 ; 0 0 | 0 0 | 0"

    def test_bad_text(self, params21):
        with pytest.raises(ValueError):
            from_text(params21, "1 | 0 0 | 0 0 | 0")


@functools.cache
def hyperbolic(p, n):
    return AlgebraParams.hyperbolic(p, n)


@hst.composite
def digit_pairs(draw):
    """(params, c0 digits, L1 digits) x 2 at p in {2, 3, 5, 7}, n in {1, 2}."""
    params = hyperbolic(draw(hst.sampled_from(SUPPORTED_PRIMES)), draw(hst.integers(1, 2)))
    m = params.dim_l1
    digits = hst.lists(hst.integers(0, params.p - 1), min_size=m, max_size=m)
    c0 = hst.integers(0, params.p - 1)
    return params, (draw(c0), draw(digits)), (draw(c0), draw(digits))


class TestOneLayout:
    """Elements keep the digit layout of engine stacks."""

    @given(digit_pairs())
    def test_grade_views_match_stack_grades(self, case):
        params, (_, flat), _ = case
        stack = params.engine.from_coords(np.array([flat]))
        g = GroupElement.from_coords(params, flat)
        assert g.coords() == tuple(flat)
        assert g.r1 == tuple(stack.r1[0].tolist())
        assert g.r2 == tuple(map(tuple, stack.r2[0].tolist()))
        assert g.r3 == tuple(stack.r3[0].tolist())
        assert g.c4 == stack.c4[0]

    @given(digit_pairs())
    def test_constructor_matches_flat_route(self, case):
        params, (c0, flat), _ = case
        stack = params.engine.from_coords(np.array([flat]))
        r1, r2, r3, c4 = (x[0].tolist() for x in stack[1:])
        grades = (r1, r2, r3, c4)
        g = GroupElement.from_l1(AlgebraElement(params, 0, *grades))
        h = GroupElement.from_coords(params, flat)
        assert g == h and hash(g) == hash(h)
        a = AlgebraElement(params, c0, *grades)
        b = params.engine.to_elements(stack._replace(c0=np.array([c0])))[0]
        assert a == b and hash(a) == hash(b)
        assert a.digits == (c0, *flat)

    @given(digit_pairs())
    def test_digitwise_ops_match_engine(self, case):
        params, (c0, x), (d0, y) = case
        eng = params.engine
        a, b = AlgebraElement.of(params, (c0, *x)), AlgebraElement.of(params, (d0, *y))
        sa, sb = eng.from_elements([a]), eng.from_elements([b])
        assert eng.to_elements(eng.add(sa, sb)) == [alg_add(a, b)]
        assert eng.to_elements(eng.sub(eng.zeros(1), sa)) == [alg_neg(a)]

    @given(digit_pairs())
    def test_text_roundtrip(self, case):
        params, (c0, flat), _ = case
        a = AlgebraElement.of(params, (c0, *flat))
        assert from_text(params, to_text(a)) == a
