import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilprob.algebra import AlgebraParams
from nilprob.errors import CapExceededError, DimensionMismatchError, ExpressionShapeError
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


def first_difference_reference(expr, F):
    """(index, point) of the first point where expr and F differ, by
    evaluating both on the whole domain in mixed-radix order."""
    checked = 0
    for arrays in grid_reference(F.p, F.dims, 1 << 12):
        bad = np.nonzero((expr.eval_batch(arrays) != F.eval_batch(arrays)).any(axis=1))[0]
        if bad.size:
            i = int(bad[0])
            return checked + i, tuple(FpVector(F.p, tuple(int(v) for v in a[i])) for a in arrays)
        checked += len(arrays[0])
    return None


@st.composite
def tensor_maps(draw, max_points=1 << 12):
    """(map, rng): a random tensor map with p in {2, 3, 5, 7}, arity 1-4,
    slots of width 0-3 (at most max_points domain points), codomain width
    0-2, and a sparse, dense or zero tensor."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    dims = []
    for _ in range(draw(st.integers(1, 4))):
        room = 0
        while room < 3 and p ** (sum(dims) + room + 1) <= max_points:
            room += 1
        dims.append(draw(st.integers(0, room)))
    cod = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    shape = tuple(dims) + (cod,)
    tensor = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
    return bias.MultilinearMap.from_tensor(p, tensor), rng


def expression_tensor(expr):
    """The coefficient tensor of a structured expression, from its values on
    all basis tuples."""
    combos = np.unravel_index(np.arange(math.prod(expr.dims)), expr.dims)
    rows = expr.eval_batch([np.eye(d, dtype=np.int64)[i] for i, d in zip(combos, expr.dims)])
    return rows.reshape(expr.dims + (expr.cod_dim,))


def perturbed_quad_expression(params):
    """The quad-bracket certificate with one entry of its antisymmetric form
    flipped, so it differs from the quad-bracket map."""
    expr = bias.family_quad_expression(params)
    bad_rows = [list(r) for r in params.antisymm.coeffs]
    bad_rows[0][0] ^= 1
    bad_fa = bias.MultilinearMap.bilinear_form(2, bad_rows)
    return bias.StructuredExpression(
        2, expr.dims, 1,
        (bias.Term(inners=((expr.terms[0].inners[0][0], bad_fa),
                           expr.terms[0].inners[1]),
                   outer=expr.terms[0].outer),
         expr.terms[1]),
    )


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
                    pairs = zip(xs[slot].coords, ys[slot].coords)
                    summed[slot] = FpVector(p, tuple(a + b for a, b in pairs))
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
            m.eval([FpVector(2, (0,) * 3), FpVector(2, (0,) * 2)])
        with pytest.raises(DimensionMismatchError):
            m.eval([FpVector(3, (0,) * 2), FpVector(3, (0,) * 2)])
        with pytest.raises(DimensionMismatchError):
            m.eval([FpVector(2, (0,) * 2)])


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

    @pytest.mark.parametrize("p, value", [(2, Fraction(5, 8)), (3, Fraction(11, 27))])
    def test_float_valued_map(self, p, value):
        # the dot product on F_p^2, evaluated in floats, as its tensor form
        tensor = np.eye(2, dtype=np.int64)[:, :, None]
        dot = bias.MultilinearMap(p, (2, 2), 1,
                                  lambda x, y: (x * y).sum(1, keepdims=True).astype(float))
        for m in (dot, bias.MultilinearMap.from_tensor(p, tensor)):
            assert bias.bias_probability(m, mode="exhaustive").value == value

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


    @pytest.mark.parametrize("p, n, value", [
        (2, 2, Fraction(197, 512)), (2, 3, Fraction(2333, 8192)),
        (3, 2, Fraction(3043, 19683)), (5, 1, Fraction(821, 3125)),
        (7, 1, Fraction(2983, 16807)), (2, 4, Fraction(33917, 131072)),
    ])
    def test_family_trilinear_pinned(self, p, n, value):
        rep = bias.bias_probability(bias.family_trilinear_map(AlgebraParams.hyperbolic(p, n)))
        assert (rep.kind, rep.value) == ("exact", value)

    @pytest.mark.parametrize("p, n, value", [
        (2, 1, Fraction(55, 64)), (3, 1, Fraction(473, 729)), (2, 2, Fraction(709, 1024)),
    ])
    def test_quad_expression_bias_equals_map_bias(self, p, n, value):
        # a 4-fold commutator of the family is the quad bracket of the grade-1
        # parts, so these are the family's exact d3 values
        params = AlgebraParams.hyperbolic(p, n)
        expr_rep = bias.bias_probability(bias.family_quad_expression(params))
        map_rep = bias.bias_probability(bias.family_quad_map(params))
        assert (expr_rep.kind, expr_rep.value) == (map_rep.kind, map_rep.value) == ("exact", value)

    @pytest.mark.parametrize("p, tensor, value", [
        (3, [[1], [0]], Fraction(1, 3)),                     # arity 1: x_1 = 0
        (5, np.zeros((3, 0), dtype=np.int64), 1),              # arity 1, cod_dim 0
        (2, np.ones((2, 3, 0), dtype=np.int64), 1),            # cod_dim 0
        (3, np.zeros((2, 0, 2), dtype=np.int64), 1),           # d_k = 0
        (7, np.zeros((0,) * 4 + (1,), dtype=np.int64), 1),     # every slot of width 0
    ])
    def test_edge_shapes(self, p, tensor, value):
        m = bias.MultilinearMap.from_tensor(p, np.asarray(tensor))
        rep = bias.bias_probability(m)
        assert (rep.kind, rep.value) == ("exact", value)

    @given(tensor_maps(), st.sampled_from((1, 3, 64, 1 << 16)))
    def test_exact_matches_enumeration(self, case, chunk):
        m, _ = case
        zeros = sum(int((~m.eval_batch(arrays).any(axis=1)).sum())
                    for arrays in grid_reference(m.p, m.dims, 1 << 12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bias, "_EVAL_CHUNK", chunk)
            rep = bias.bias_probability(m, mode="exhaustive")
        assert rep.value == Fraction(zeros, m.p ** sum(m.dims))

    def test_exact_evaluates_basis_rows_per_fibre(self, monkeypatch):
        # (2,3): 2^12 fibres of the head slots, 6 basis rows each, in one call
        rows = []
        eval_batch = bias.MultilinearMap.eval_batch
        monkeypatch.setattr(bias.MultilinearMap, "eval_batch",
                            lambda m, arrays: rows.append(len(arrays[0])) or eval_batch(m, arrays))
        tri = bias.family_trilinear_map(AlgebraParams.hyperbolic(2, 3))
        assert bias.bias_probability(tri).value == Fraction(2333, 8192)
        assert rows == [4096 * 6]


class TestExpressions:
    def test_empty_expression_is_zero_map(self, params21):
        d = params21.d
        expr = bias.StructuredExpression(2, (d, d), 1, ())
        zero = bias.MultilinearMap.from_tensor(2, np.zeros((d, d, 1), dtype=np.int64))
        assert bias.verify_expression(expr, zero).ok
        assert expr.rank == 1

    def test_unread_slot_width_checked(self):
        # no term reads a slot, but a slot array of the wrong width is refused
        expr = bias.StructuredExpression(2, (1, 17), 1, ())
        with pytest.raises(DimensionMismatchError, match="slot dim 2 != 1"):
            expr.eval_batch([np.zeros((3, 2), dtype=np.int64),
                             np.zeros((3, 17), dtype=np.int64)])

    def test_family_quad_certificate_dims_2_and_4(self, params21, params22):
        for params in (params21, params22):
            expr = bias.family_quad_expression(params)
            res = bias.verify_expression(expr, bias.family_quad_map(params))
            assert res.ok and res.exhaustive
            assert res.points_checked == 2 ** (4 * params.d)
        # basis tuples make (2,3) and (3,2) exact too: 1296 and 256 rows
        for p, n in ((2, 3), (3, 2)):
            params = AlgebraParams.hyperbolic(p, n)
            total = p ** (4 * params.d)
            res = bias.verify_expression(bias.family_quad_expression(params),
                                         bias.family_quad_map(params),
                                         mode="exhaustive", cap=total)
            assert res.ok and res.exhaustive and res.points_checked == total

    def test_quad_expression_point_values(self, params21):
        expr = bias.family_quad_expression(params21)
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        assert expr.eval([e1, e1p, e1, e1p]).coords == (1,)
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, _, z, w = rand_vecs(2, expr.dims, rng)
            assert expr.eval([x, x, z, w]).coords == (0,)

    def test_expression_point_agrees_with_map_point(self, params22):
        expr, quad = bias.family_quad_expression(params22), bias.family_quad_map(params22)
        rng = np.random.default_rng(6)
        for _ in range(30):
            xs = rand_vecs(2, expr.dims, rng)
            assert expr.eval(xs) == quad.eval(xs)
        with pytest.raises(DimensionMismatchError):
            expr.eval([FpVector(2, (0,) * 3)] + xs[1:])
        with pytest.raises(DimensionMismatchError):
            expr.eval(xs[:3])

    def test_perturbed_expression_rejected(self, params21):
        bad = perturbed_quad_expression(params21)
        res = bias.verify_expression(bad, bias.family_quad_map(params21))
        assert not res.ok
        assert res.counterexample is not None
        got = bad.eval(list(res.counterexample))
        want = bias.family_quad_map(params21).eval(list(res.counterexample))
        assert got != want

    def test_perturbed_expression_rejected_by_sampling(self, params21):
        bad, quad = perturbed_quad_expression(params21), bias.family_quad_map(params21)
        res = bias.verify_expression(bad, quad, mode="random", samples=1000, seed=5)
        assert not res.ok and not res.exhaustive
        point = list(res.counterexample)
        assert bad.eval(point) != quad.eval(point)
        # points_checked is the index of the first differing sample
        (arrays,) = bias._sample_chunks(2, bad.dims, 1000, 5)
        differs = (bad.eval_batch(arrays) != quad.eval_batch(arrays)).any(axis=1)
        assert res.points_checked == int(np.argmax(differs))
        assert [v.coords for v in point] == [tuple(a[res.points_checked].tolist()) for a in arrays]

    @settings(max_examples=100)
    @given(tensor_maps(), st.data())
    def test_first_counterexample_matches_enumeration(self, case, data):
        m, rng = case
        p, dims = m.p, m.dims
        slots = tuple(s for s in range(len(dims)) if data.draw(st.booleans()))
        free = tuple(s for s in range(len(dims)) if s not in slots)
        if slots and free:
            # one inner map on the drawn slots; the outer map takes its output
            c = data.draw(st.integers(0, 2))
            inner = bias.MultilinearMap.from_tensor(
                p, rng.integers(0, p, size=tuple(dims[s] for s in slots) + (c,)))
            outer = bias.MultilinearMap.from_tensor(
                p, rng.integers(0, p, size=(c,) + tuple(dims[s] for s in free) + (m.cod_dim,)))
            term = bias.Term(inners=((slots, inner),), outer=outer)
        else:
            term = bias.Term(inners=(), outer=m)
        expr = bias.StructuredExpression(p, dims, m.cod_dim, (term,))
        tensor = expression_tensor(expr)
        for _ in range(data.draw(st.integers(0, 2)) if tensor.size else 0):
            entry = tuple(int(rng.integers(0, k)) for k in tensor.shape)
            tensor[entry] = (tensor[entry] + rng.integers(1, p)) % p
        F = bias.MultilinearMap.from_tensor(p, tensor)
        chunk = data.draw(st.sampled_from((1, 3, 64, 1 << 16)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bias, "_EVAL_CHUNK", chunk)
            res = bias.verify_expression(expr, F, mode="exhaustive")
        expect = first_difference_reference(expr, F)
        assert res.exhaustive
        if expect is None:
            assert res.ok and res.points_checked == p ** sum(dims)
        else:
            assert (res.points_checked, res.counterexample) == expect

    def test_failing_basis_tuple_read_in_one_batch(self, monkeypatch):
        # F(x, y) = x_0 y_16 on F_2^1 x F_2^17 against the zero expression:
        # x = 0 agrees, and at x = 1 the first failing y is e_16, the 2^16-th
        # vector; F is evaluated once, on its 17 basis tuples, and no call
        # evaluates more than _EVAL_CHUNK rows.
        # The expression is a map too, so calls are logged with their map.
        tensor = np.zeros((1, 17, 1), dtype=np.int64)
        tensor[0, 16, 0] = 1
        F = bias.MultilinearMap.from_tensor(2, tensor)
        expr = bias.StructuredExpression(2, (1, 17), 1, ())
        calls = []
        eval_batch = bias.MultilinearMap.eval_batch
        monkeypatch.setattr(bias.MultilinearMap, "eval_batch",
                            lambda m, arrays: calls.append((m, len(arrays[0])))
                            or eval_batch(m, arrays))
        res = bias.verify_expression(expr, F)
        assert res.exhaustive and res.points_checked == 2**17 + 2**16
        assert [v.coords for v in res.counterexample] == [(1,), (0,) * 16 + (1,)]
        assert [rows for m, rows in calls if m is F] == [17]
        assert max(rows for _, rows in calls) <= bias._EVAL_CHUNK

    @pytest.mark.parametrize("mode", ["exhastive", "sampled", ""])
    def test_unknown_mode_raises(self, params21, mode):
        quad = bias.family_quad_map(params21)
        with pytest.raises(ValueError, match="unknown mode"):
            bias.verify_expression(bias.family_quad_expression(params21), quad, mode=mode,
                                   samples=10)
        with pytest.raises(ValueError, match="unknown mode"):
            bias.bias_probability(quad, mode=mode, samples=10)

    def test_sample_count_and_cap_checked(self, params21):
        expr, quad = bias.family_quad_expression(params21), bias.family_quad_map(params21)
        for run in (partial(bias.verify_expression, expr, quad),
                    partial(bias.bias_probability, quad)):
            with pytest.raises(ValueError, match="need samples >= 1"):
                run(mode="random", samples=0)
            with pytest.raises(CapExceededError, match="exceeds cap 10$"):
                run(mode="exhaustive", cap=10)

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
