import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nilprob.algebra import AlgebraParams
from nilprob.errors import DimensionMismatchError, ExpressionShapeError
from nilprob.fieldlin import FpVector, matrix_rank
from nilprob import bias


def rand_vecs(p, dims, rng):
    return [FpVector(p, tuple(int(v) for v in rng.integers(0, p, d))) for d in dims]


def grid_reference(p, dims, chunk):
    """The domain in chunks by the mixed-radix remainder loops, last slot fastest."""
    tables = []
    for d in dims:
        idx, cols = np.arange(p**d), []
        for _ in range(d):
            cols.append(idx % p)
            idx = idx // p
        tables.append(np.stack(cols, axis=1) if d else np.zeros((p**d, 0), np.int64))
    sizes = [t.shape[0] for t in tables]
    total = math.prod(sizes)
    for start in range(0, total, chunk):
        rem, arrays = np.arange(start, min(start + chunk, total)), []
        for size, table in zip(reversed(sizes), reversed(tables)):
            arrays.append(table[rem % size])
            rem = rem // size
        yield arrays[::-1]


def span_dim_reference(m):
    """image_span_dim by one evaluation per basis tuple."""
    rows = []
    for combo in itertools.product(*(range(d) for d in m.dims)):
        arrays = [np.eye(d, dtype=np.int64)[[i]] for i, d in zip(combo, m.dims)]
        rows.append([int(v) for v in m.eval_batch(arrays)[0]])
    if not rows or m.cod_dim == 0:
        return 0
    return matrix_rank(rows, m.p)


class TestMultilinearMap:
    def test_tensor_eval_matches_loop(self):
        rng = np.random.default_rng(0)
        tensor = rng.integers(0, 3, size=(2, 3, 2))
        m = bias.MultilinearMap.from_tensor(3, tensor)
        for _ in range(40):
            x, y = rand_vecs(3, (2, 3), rng)
            got = m.eval([x, y])
            expect = [
                sum(
                    x.coords[i] * tensor[i, j, e] * y.coords[j]
                    for i in range(2)
                    for j in range(3)
                )
                % 3
                for e in range(2)
            ]
            assert list(got.coords) == expect

    def test_multilinearity_random_probes(self):
        rng = np.random.default_rng(1)
        maps = [
            bias.MultilinearMap.from_tensor(3, rng.integers(0, 3, size=(2, 2, 3, 2))),
            bias.family_quad_map(AlgebraParams.hyperbolic(3, 1)),
            bias.family_trilinear_map(AlgebraParams.hyperbolic(2, 2)),
        ]
        for m in maps:
            p = m.p
            for slot in range(m.arity):
                for _ in range(25):
                    xs = rand_vecs(p, m.dims, rng)
                    ys = list(xs)
                    ys[slot] = rand_vecs(p, m.dims, rng)[slot]
                    summed = list(xs)
                    summed[slot] = xs[slot] + ys[slot]
                    lhs = m.eval(summed)
                    rhs_parts = zip(m.eval(xs).coords, m.eval(ys).coords)
                    assert lhs.coords == tuple((a + b) % p for a, b in rhs_parts)

    def test_image_span_dim(self):
        zero = bias.MultilinearMap.from_tensor(2, np.zeros((2, 2, 3), dtype=np.int64))
        assert zero.image_span_dim() == 0
        assert zero.effective_cod_size() == 1
        fs = bias.MultilinearMap.bilinear_form(2, [[0, 1], [1, 0]])
        assert fs.image_span_dim() == 1
        assert fs.effective_cod_size() == 2
        assert fs.cod_size() == 2

    def test_image_span_dim_matches_per_tuple_loop(self, params21, params22):
        rng = np.random.default_rng(4)
        maps = [
            bias.MultilinearMap.from_tensor(2, np.zeros((0, 2, 1), dtype=np.int64)),
            bias.MultilinearMap.from_tensor(3, np.zeros((2, 3, 0), dtype=np.int64)),
            bias.family_quad_map(params21),
            bias.family_trilinear_map(params22),
        ]
        for p, shape in [(2, (3, 4)), (3, (2, 2, 3)), (5, (2, 1, 2, 2)), (2, (4, 4, 2, 5))]:
            tensor = rng.integers(0, p, size=shape)
            tensor[..., 0] = tensor[..., -1]      # a dependent codomain coordinate
            maps.append(bias.MultilinearMap.from_tensor(p, tensor))
        for m in maps:
            assert m.image_span_dim() == span_dim_reference(m)

    def test_dim_validation(self):
        m = bias.MultilinearMap.bilinear_form(2, [[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatchError):
            m.eval([FpVector.zero(2, 3), FpVector.zero(2, 2)])
        with pytest.raises(DimensionMismatchError):
            m.eval([FpVector.zero(3, 2), FpVector.zero(3, 2)])
        with pytest.raises(DimensionMismatchError):
            m.eval([FpVector.zero(2, 2)])


class TestBiasProbability:
    def test_zero_map(self):
        zero = bias.MultilinearMap.from_tensor(2, np.zeros((2, 2, 2), dtype=np.int64))
        assert bias.bias_probability(zero).value == 1

    def test_zero_width_slot(self):
        # F_2^0 has one point, so the map is zero on all of its domain
        m = bias.MultilinearMap.from_tensor(2, np.zeros((0, 2, 1), dtype=np.int64))
        rep = bias.bias_probability(m)
        assert (rep.kind, rep.value) == ("exact", 1)

    @pytest.mark.parametrize("p, dims, chunk", [
        (2, (2, 3), 1 << 16), (2, (2, 0, 1), 3), (3, (0,), 4), (3, (1, 2, 1), 7),
        (5, (2, 1), 10), (2, (3, 3, 3), 100),
    ])
    def test_grid_order_matches_remainder_loop(self, p, dims, chunk):
        got = list(bias._iter_grid(p, dims, chunk))
        expect = list(grid_reference(p, dims, chunk))
        assert len(got) == len(expect) == -(-p ** sum(dims) // chunk)
        for arrays, ref in zip(got, expect):
            assert [a.shape for a in arrays] == [r.shape for r in ref]
            assert all((a == r).all() for a, r in zip(arrays, ref))

    def test_x1y1_three_quarters(self):
        for dims in [(1, 1), (2, 2), (3, 2)]:
            tensor = np.zeros(dims + (1,), dtype=np.int64)
            tensor[0, 0, 0] = 1
            m = bias.MultilinearMap.from_tensor(2, tensor)
            assert bias.bias_probability(m).value == Fraction(3, 4)

    def test_family_trilinear_exact_value(self, params21):
        rep = bias.bias_probability(bias.family_trilinear_map(params21))
        assert rep.kind == "exact"
        assert rep.value == Fraction(23, 32)

    def test_monte_carlo_mode(self, params22):
        m = bias.family_quad_map(params22)
        rep = bias.bias_probability(m, mode="random", samples=20000, seed=3)
        assert rep.kind == "monte-carlo"
        exact = bias.bias_probability(m).value
        assert rep.ci_low <= float(exact) <= rep.ci_high


class TestExpressions:
    def test_empty_expression_is_zero_map(self, params21):
        d = params21.d
        expr = bias.StructuredExpression(2, (d, d), 1, ())
        zero = bias.MultilinearMap.from_tensor(2, np.zeros((d, d, 1), dtype=np.int64))
        assert bias.verify_expression(expr, zero).ok
        assert expr.rank == 1

    def test_family_quad_certificate_dims_2_and_4(self, params21, params22):
        for params in (params21, params22):
            expr = bias.family_quad_expression(params)
            res = bias.verify_expression(expr, bias.family_quad_map(params))
            assert res.ok and res.exhaustive
            assert res.points_checked == 2 ** (4 * params.d)

    def test_quad_expression_point_values(self, params21):
        expr = bias.family_quad_expression(params21)
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        assert bias.evaluate_expression(expr, [e1, e1p, e1, e1p]).coords == (1,)
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, _, z, w = rand_vecs(2, expr.dims, rng)
            assert bias.evaluate_expression(expr, [x, x, z, w]).coords == (0,)

    def test_expression_point_agrees_with_map_point(self, params22):
        expr, quad = bias.family_quad_expression(params22), bias.family_quad_map(params22)
        rng = np.random.default_rng(6)
        for _ in range(30):
            xs = rand_vecs(2, expr.dims, rng)
            assert bias.evaluate_expression(expr, xs) == quad.eval(xs)
        with pytest.raises(DimensionMismatchError):
            bias.evaluate_expression(expr, [FpVector.zero(2, 3)] + xs[1:])
        with pytest.raises(DimensionMismatchError):
            bias.evaluate_expression(expr, xs[:3])

    def test_perturbed_expression_rejected(self, params21):
        expr = bias.family_quad_expression(params21)
        bad_rows = [list(r) for r in params21.antisymm.coeffs]
        bad_rows[0][0] ^= 1
        bad_fa = bias.MultilinearMap.bilinear_form(2, bad_rows)
        bad = bias.StructuredExpression(
            2, expr.dims, 1,
            (bias.Term(inners=((expr.terms[0].inners[0][0], bad_fa),
                               expr.terms[0].inners[1]),
                       outer=expr.terms[0].outer),
             expr.terms[1]),
        )
        res = bias.verify_expression(bad, bias.family_quad_map(params21))
        assert not res.ok
        assert res.counterexample is not None
        got = bias.evaluate_expression(bad, list(res.counterexample))
        want = bias.family_quad_map(params21).eval(list(res.counterexample))
        assert got != want

    @pytest.mark.parametrize("mode", ["exhastive", "sampled", ""])
    def test_unknown_mode_raises(self, params21, mode):
        quad = bias.family_quad_map(params21)
        with pytest.raises(ValueError, match="unknown mode"):
            bias.verify_expression(bias.family_quad_expression(params21), quad, mode=mode,
                                   samples=10)
        with pytest.raises(ValueError, match="unknown mode"):
            bias.bias_probability(quad, mode=mode, samples=10)

    def test_random_mode_draw_order(self, params21):
        # one rng.integers call per slot per chunk of _EVAL_CHUNK points
        quad = bias.family_quad_map(params21)
        samples = bias._EVAL_CHUNK + 5
        rng = np.random.default_rng(3)
        zeros = 0
        for size in (bias._EVAL_CHUNK, 5):
            arrays = [rng.integers(0, 2, size=(size, d), dtype=np.int64) for d in quad.dims]
            zeros += int((~quad.eval_batch(arrays).any(axis=1)).sum())
        rep = bias.bias_probability(quad, mode="random", samples=samples, seed=3)
        assert rep.value == zeros / samples
        res = bias.verify_expression(bias.family_quad_expression(params21), quad,
                                     mode="random", samples=samples, seed=3)
        assert res.ok and not res.exhaustive and res.points_checked == samples

    def test_rank_of_family_quad(self, params21, params22):
        assert bias.family_quad_expression(params21).rank == 2**4
        assert bias.family_quad_expression(params22).rank == 2**4

    def test_rank_invariant_under_term_reorder(self, params22):
        expr = bias.family_quad_expression(params22)
        flipped = bias.StructuredExpression(
            expr.p, expr.dims, expr.cod_dim, tuple(reversed(expr.terms))
        )
        assert flipped.rank == expr.rank
        assert bias.verify_expression(flipped, bias.family_quad_map(params22)).ok

    def test_shape_validation(self, params21):
        d = params21.d
        fa = bias.MultilinearMap.bilinear_form(2, params21.antisymm.coeffs)
        with pytest.raises(ExpressionShapeError):
            bias.StructuredExpression(
                2, (d, d, d, d), 1,
                (bias.Term(inners=(((0, 1), fa), ((1, 2), fa)),
                           outer=bias.MultilinearMap.bilinear_form(2, [[1]])),),
            )

    def test_json_serialization(self, params21):
        import json

        expr = bias.family_quad_expression(params21)
        blob = json.dumps(expr.to_json_dict())
        assert "rank" in blob


class TestTrilinearBound:
    def test_all_zero_inners_bound_one(self):
        z = bias.MultilinearMap.from_tensor(2, np.zeros((2, 2, 0), dtype=np.int64))
        zout = bias.MultilinearMap.from_tensor(2, np.zeros((0, 2, 2), dtype=np.int64))
        expr = bias.StructuredExpression(
            2, (2, 2, 2), 2,
            (bias.Term(inners=(((0, 1), z),), outer=zout),
             bias.Term(inners=(((0, 2), z),), outer=zout),
             bias.Term(inners=(((1, 2), z),), outer=zout)),
        )
        assert bias.trilinear_lower_bound(expr) == 1

    def test_three_f2_codomains_give_eighth(self, params21):
        fs = bias.MultilinearMap.bilinear_form(2, params21.symm.coeffs)
        scale = np.eye(2, dtype=np.int64)[None, :, :]
        out = bias.MultilinearMap.from_tensor(2, scale)
        expr = bias.StructuredExpression(
            2, (2, 2, 2), 2,
            (bias.Term(inners=(((0, 1), fs),), outer=out),
             bias.Term(inners=(((0, 2), fs),), outer=out),
             bias.Term(inners=(((1, 2), fs),), outer=out)),
        )
        assert bias.trilinear_lower_bound(expr) == Fraction(1, 8)

    def test_family_trilinear_bound_below_exact_bias(self, params21, params22):
        for params in (params21, params22):
            expr = bias.family_trilinear_expression(params)
            tri = bias.family_trilinear_map(params)
            assert bias.verify_expression(expr, tri).ok
            bound = bias.trilinear_lower_bound(expr)
            assert bound == Fraction(1, params.p**2)
            exact = bias.bias_probability(tri).value
            assert exact >= bound

    def test_wrong_shape_raises(self, params21):
        quad = bias.family_quad_expression(params21)
        with pytest.raises(ExpressionShapeError):
            bias.trilinear_lower_bound(quad)
        d = params21.d
        fs = bias.MultilinearMap.bilinear_form(2, params21.symm.coeffs)
        scale = np.eye(d, dtype=np.int64)[None, :, :]
        out = bias.MultilinearMap.from_tensor(2, scale)
        two_terms = bias.StructuredExpression(
            2, (d, d, d), d,
            (bias.Term(inners=(((0, 2), fs),), outer=out),
             bias.Term(inners=(((1, 2), fs),), outer=out)),
        )
        with pytest.raises(ExpressionShapeError):
            bias.trilinear_lower_bound(two_terms)
