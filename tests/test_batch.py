"""The arithmetic engine against an independent reference.

The reference is the structure-constant tensor T of R, T[i, j, k] = the
e_k coefficient of e_i e_j over the full basis (unit, R1, R2 row-major, R3,
R4), filled from the generating rules on basis vectors alone.  Its product
of two coordinate stacks is einsum("ni,nj,ijk->nk") mod p, and the group
operations on it are the definitions: (1+a)(1+b) = 1 + a + b + ab,
(1+a)^-1 = 1 - a + a^2 - a^3 + a^4 and [g, h] = g^-1 h^-1 g h.  It shares
no code with the engine's `_prod`.
"""

import importlib
import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilprob._batch import BLOCK, Batch, BatchAlg
from nilprob.algebra import AlgebraParams, alg_add
from nilprob.fieldlin import SUPPORTED_PRIMES, BilinearForm, FpVector, form_eval

PARAMS = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)]


@lru_cache(maxsize=None)
def structure_constants(params):
    """T[i, j, k] for one parameter set, from the rules

        1 e = e 1 = e                       x y = x (x) y
        x w' = f(x,w),  w' x = f(w,x)       x (y (x) z) = f(y,z) x' + f(x,y) z'
        (y (x) z) x = f(z,x) y' + f(y,z) x'
        (x (x) y)(z (x) w) = f(z,w) f(x,y) + f(y,z) f(x,w)
    """
    d, F = params.d, params.form.coeffs
    r1 = list(range(1, 1 + d))
    r2 = [[1 + d + i * d + j for j in range(d)] for i in range(d)]
    r3 = list(range(1 + d + d * d, 1 + 2 * d + d * d))
    r4 = 1 + 2 * d + d * d
    dim = r4 + 1
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    for e in range(dim):
        T[0, e, e] = T[e, 0, e] = 1
    for i in range(d):
        for j in range(d):
            T[r1[i], r1[j], r2[i][j]] += 1
            T[r1[i], r3[j], r4] += F[i][j]
            T[r3[i], r1[j], r4] += F[i][j]
            for k in range(d):
                # e_i (e_j (x) e_k) and (e_j (x) e_k) e_i
                T[r1[i], r2[j][k], r3[i]] += F[j][k]
                T[r1[i], r2[j][k], r3[k]] += F[i][j]
                T[r2[j][k], r1[i], r3[j]] += F[k][i]
                T[r2[j][k], r1[i], r3[i]] += F[j][k]
                for m in range(d):
                    # (e_i (x) e_j)(e_k (x) e_m)
                    T[r2[i][j], r2[k][m], r4] += F[k][m] * F[i][j] + F[j][k] * F[i][m]
    return T % params.p


def full(b):
    """Full coordinates (c0, r1, r2 row-major, r3, c4) of a stack."""
    n, d = b.r1.shape
    return np.concatenate([b.c0[:, None], b.r1, b.r2.reshape(n, d * d), b.r3, b.c4[:, None]], axis=1)


def ref_mul(eng, x, y):
    return np.einsum("ni,nj,ijk->nk", x, y, structure_constants(eng.params)) % eng.p


def ref_grp_mul(eng, a, b):
    return (a + b + ref_mul(eng, a, b)) % eng.p


def ref_grp_inv(eng, a):
    sq = ref_mul(eng, a, a)
    cube = ref_mul(eng, sq, a)
    return (-a + sq - cube + ref_mul(eng, cube, a)) % eng.p


def ref_commutator(eng, a, b):
    inv = ref_grp_mul(eng, ref_grp_inv(eng, a), ref_grp_inv(eng, b))
    return ref_grp_mul(eng, inv, ref_grp_mul(eng, a, b))


def ref_bracket(eng, x, y):
    return (ref_mul(eng, x, y) - ref_mul(eng, y, x)) % eng.p


def ref_r1(eng, v):
    """Vector stacks as R1 coordinate stacks."""
    out = np.zeros((len(v), 2 + 2 * eng.d + eng.d * eng.d), dtype=np.int64)
    out[:, 1 : 1 + eng.d] = v % eng.p
    return out


def rand_full_batch(eng, rng, n):
    batch = eng.random_l1(rng, n)
    return batch._replace(c0=rng.integers(0, eng.p, n))


@pytest.mark.parametrize("p,n", PARAMS)
def test_mul_matches_scalar(p, n):
    eng = BatchAlg(AlgebraParams.hyperbolic(p, n))
    rng = np.random.default_rng(100 + p + n)
    a = rand_full_batch(eng, rng, 200)
    b = rand_full_batch(eng, rng, 200)
    assert np.array_equal(full(eng.mul(a, b)), ref_mul(eng, full(a), full(b)))


@pytest.mark.parametrize("p,n", PARAMS)
def test_add_neg_match_scalar(p, n):
    params = AlgebraParams.hyperbolic(p, n)
    eng = BatchAlg(params)
    rng = np.random.default_rng(200 + p + n)
    a = rand_full_batch(eng, rng, 100)
    b = rand_full_batch(eng, rng, 100)
    got = eng.to_elements(eng.add(a, b))
    expect = [alg_add(x, y) for x, y in zip(eng.to_elements(a), eng.to_elements(b))]
    assert got == expect
    got_neg = eng.to_elements(eng.sub(eng.zeros(100), a))
    assert got_neg == [-x for x in eng.to_elements(a)]


@pytest.mark.parametrize("p,n", PARAMS)
def test_group_ops_match_scalar(p, n):
    eng = BatchAlg(AlgebraParams.hyperbolic(p, n))
    rng = np.random.default_rng(300 + p + n)
    a = eng.random_l1(rng, 150)
    b = eng.random_l1(rng, 150)
    fa, fb = full(a), full(b)
    assert np.array_equal(full(eng.grp_mul(a, b)), ref_grp_mul(eng, fa, fb))
    assert np.array_equal(full(eng.grp_inv(a)), ref_grp_inv(eng, fa))
    assert np.array_equal(full(eng.commutator(a, b)), ref_commutator(eng, fa, fb))


def dense_params(p, d, seed):
    rows = np.random.default_rng(seed).integers(0, p, (d, d))
    return AlgebraParams(BilinearForm.from_rows(p, rows.tolist()))


def test_long_commutator_matches_scalar():
    # A 4-fold commutator depends only on the grade-1 parts of its entries
    # and the 5-fold one is 1; the shorter ones also see the higher grades.
    # Every step is computed, the fifth included.
    for params in (AlgebraParams.hyperbolic(2, 2), dense_params(3, 3, 42)):
        eng = BatchAlg(params)
        rng = np.random.default_rng(42)
        stacks = [eng.random_l1(rng, 50) for _ in range(5)]
        expect = full(stacks[0])
        for k in range(1, 5):
            expect = ref_commutator(eng, expect, full(stacks[k]))
            assert np.array_equal(full(eng.long_commutator(stacks[: k + 1])), expect)
            assert np.array_equal(full(eng.long_commutator(iter(stacks[: k + 1]))), expect)
        assert not expect.any()


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK + 1])
def test_long_commutator_block_edges(size):
    eng = BatchAlg(AlgebraParams.hyperbolic(3, 1))
    rng = np.random.default_rng(size)
    stacks = [eng.random_l1(rng, size) for _ in range(3)]
    expect = full(stacks[0])
    for s in stacks[1:]:
        expect = ref_commutator(eng, expect, full(s))
    got = eng.long_commutator(stacks)
    assert got.count == size
    assert np.array_equal(full(got), expect)


def test_long_commutator_needs_two_entries():
    eng = BatchAlg(AlgebraParams.hyperbolic(2, 1))
    x = eng.zeros(3)
    for entries in ([], [x], iter([]), iter([x])):
        with pytest.raises(ValueError):
            eng.long_commutator(entries)


@pytest.mark.parametrize("p,n", PARAMS)
def test_closed_forms_match_scalar(p, n):
    params = AlgebraParams.hyperbolic(p, n)
    eng = BatchAlg(params)
    rng = np.random.default_rng(400 + p + n)
    d, r3 = params.d, slice(1 + params.d + params.d**2, 1 + 2 * params.d + params.d**2)
    x, y, z, w = (rng.integers(0, p, (120, d)) for _ in range(4))
    got3 = eng.lie3(x, y, z)
    got4 = eng.lie4(x, y, z, w)
    nested3 = ref_bracket(eng, ref_bracket(eng, ref_r1(eng, x), ref_r1(eng, y)), ref_r1(eng, z))
    nested4 = ref_bracket(eng, nested3, ref_r1(eng, w))
    assert np.array_equal(got3, nested3[:, r3])
    assert np.array_equal(got4, nested4[:, -1])
    fs, fa = params.symm, params.antisymm
    for i in range(120):
        vx, vy, vz, vw = (FpVector(p, tuple(int(v) for v in arr[i])) for arr in (x, y, z, w))
        # [x,y,z] = fS(y,z) x - fS(x,z) y and [x,y,z,w] = fA(x,w) fS(y,z) - fA(y,w) fS(x,z)
        expect3 = [
            (form_eval(fs, vy, vz) * xi - form_eval(fs, vx, vz) * yi) % p
            for xi, yi in zip(vx.coords, vy.coords)
        ]
        expect4 = (
            form_eval(fa, vx, vw) * form_eval(fs, vy, vz)
            - form_eval(fa, vy, vw) * form_eval(fs, vx, vz)
        ) % p
        assert got3[i].tolist() == expect3
        assert int(got4[i]) == expect4


def test_closed_forms_match_nested_brackets_batched(embed_r1):
    params = AlgebraParams.hyperbolic(3, 2)
    eng = BatchAlg(params)
    rng = np.random.default_rng(7)
    d = params.d
    x, y, z, w = (rng.integers(0, 3, (400, d)) for _ in range(4))
    bx, by, bz, bw = (embed_r1(eng, v) for v in (x, y, z, w))
    nested3 = eng.lie_bracket(eng.lie_bracket(bx, by), bz)
    assert np.array_equal(nested3.r3, eng.lie3(x, y, z))
    nested4 = eng.lie_bracket(nested3, bw)
    assert np.array_equal(nested4.c4, eng.lie4(x, y, z, w))


def test_coords_roundtrip():
    params = AlgebraParams.hyperbolic(2, 3)
    eng = BatchAlg(params)
    rng = np.random.default_rng(9)
    a = eng.random_l1(rng, 64)
    flat = eng.coords(a)
    assert flat.shape == (64, params.dim_l1)
    back = eng.from_coords(flat)
    assert all(np.array_equal(u, v) for u, v in zip(a[1:], back[1:]))


def test_is_identity():
    params = AlgebraParams.hyperbolic(2, 1)
    eng = BatchAlg(params)
    z = eng.zeros(3)
    assert eng.is_identity(z).all()
    z.r1[1, 0] = 1
    assert list(eng.is_identity(z)) == [True, False, True]
    m = params.dim_l1   # a unit vector in any coordinate is not the identity
    units = eng.from_coords(np.vstack([np.eye(m, dtype=np.int64), np.zeros((1, m), np.int64)]))
    assert list(eng.is_identity(units)) == [False] * m + [True]


@st.composite
def l1_stack_pairs(draw):
    """(engine, a, b) over a hyperbolic or a dense random form: uniform L1
    stacks, commutator-valued stacks (r1 = 0, as MC feeds [x,y] back into
    [[x,y],z]), or stacks with identity rows."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    size = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("uniform", "commutator", "identity rows")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        params = AlgebraParams.hyperbolic(p, draw(st.integers(1, 3)))
    else:
        params = dense_params(p, draw(st.integers(1, 4)), seed)
    eng = BatchAlg(params)
    a, b = eng.random_l1(rng, size), eng.random_l1(rng, size)
    if kind == "commutator":
        a = eng.from_coords(ref_commutator(eng, full(a), full(eng.random_l1(rng, size)))[:, 1:])
    elif kind == "identity rows":
        keep = rng.integers(0, 2, size=(2, size)).astype(bool)
        a, b = (eng.from_coords(eng.coords(s) * k[:, None]) for s, k in zip((a, b), keep))
    return eng, a, b


@given(l1_stack_pairs())
def test_closed_form_group_ops_match_definitions_and_scalar(case):
    eng, a, b = case
    inv = eng.grp_inv(a)
    fa, fb = full(a), full(b)
    assert np.array_equal(full(eng.commutator(a, b)), ref_commutator(eng, fa, fb))
    assert np.array_equal(full(inv), ref_grp_inv(eng, fa))
    assert np.array_equal(full(eng.grp_mul(a, b)), ref_grp_mul(eng, fa, fb))
    assert eng.is_identity(eng.grp_mul(a, inv)).all()


@st.composite
def reference_chains(draw):
    """(engine, stacks, expected): k + 1 stacks of one of the sizes around
    BLOCK, over a hyperbolic or a dense random form, for k = 1..5, and the
    structure-constant chain of every row.  Each row repeats one of a few
    random tuples of entries, so the reference runs on those tuples alone
    while the engine still works through every block edge."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    k = draw(st.integers(1, 5))
    size = draw(st.sampled_from((0, 1, BLOCK - 1, BLOCK + 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        params = AlgebraParams.hyperbolic(p, draw(st.integers(1, 3)))
    else:
        params = dense_params(p, draw(st.integers(1, 4)), seed)
    eng = BatchAlg(params)
    tuples = [full(eng.random_l1(rng, 4)) for _ in range(k + 1)]
    pick = rng.integers(0, 4, size)
    stacks = [eng.from_coords(t[pick, 1:]) for t in tuples]
    expect = tuples[0]
    for t in tuples[1:]:
        expect = ref_commutator(eng, expect, t)
    return eng, stacks, expect[pick]


@given(reference_chains())
def test_long_commutator_matches_reference_chain(case):
    # The value path folds the closed-form commutator over every grade; the
    # Monte Carlo mask computes only the grades it reads, by its own steps.
    eng, stacks, expect = case
    assert np.array_equal(full(eng.long_commutator(stacks)), expect)
    mask = eng.trivial_long_commutator(iter(stacks).__next__, len(stacks))
    assert np.array_equal(mask, ~expect.any(1))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_random_l1_draws_the_int64_digits(p, n):
    # Seeded Monte Carlo output rests on this: drawn as int32, each grade has
    # the digits of an int64 draw and leaves the generator in the same state.
    eng = BatchAlg(AlgebraParams.hyperbolic(p, n))
    d = eng.d
    rng, ref = np.random.default_rng([p, n]), np.random.default_rng([p, n])
    for size in (0, 1, 3, 4097, 3, 1, 4097, 0):
        got = eng.random_l1(rng, size)
        expect = [ref.integers(0, p, size=shape, dtype=np.int64)
                  for shape in ((size, d), (size, d, d), (size, d), size)]
        assert {x.dtype for x in got} == {np.dtype(np.int32)}
        assert got.count == size and not got.c0.any()
        assert all(np.array_equal(x, y) for x, y in zip(got[1:], expect))
        assert rng.bit_generator.state == ref.bit_generator.state


def filter_stacks(eng, rng, count, size, kind):
    """`count` drawn (int32) stacks of `size` rows.  'uniform' rows are
    random; 'a1 = b1' repeats a1 in the second entry and 'z1 = 0' clears the
    grade-1 part of the third, so every row survives the grade-1 filter;
    'none' picks rows from a pool where the reference pair has a nonzero
    grade 2, or the reference triple a nonzero grade 3, so none does."""
    if kind != "none":
        stacks = [eng.random_l1(rng, size) for _ in range(count)]
        if kind == "a1 = b1":
            stacks[1] = stacks[1]._replace(r1=stacks[0].r1.copy())
        elif kind == "z1 = 0":
            stacks[2] = stacks[2]._replace(r1=np.zeros_like(stacks[2].r1))
        return stacks
    d = eng.d
    pool = [full(eng.random_l1(rng, 256)) for _ in range(count)]
    value = ref_commutator(eng, pool[0], pool[1])
    grade = slice(1 + d, 1 + d + d * d)
    if count > 2:
        value = ref_commutator(eng, value, pool[2])
        grade = slice(1 + d + d * d, 1 + 2 * d + d * d)
    keep = np.flatnonzero(value[:, grade].any(1))
    assert keep.size
    pick = rng.choice(keep, size)
    return [Batch(*(x.astype(np.int32) for x in eng.from_coords(t[pick, 1:]))) for t in pool]


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK + 1, 3 * BLOCK // 2])
@pytest.mark.parametrize("form", ["hyperbolic", "dense"])
@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_trivial_long_commutator_matches_the_value_path(p, form, size):
    # The Monte Carlo mask settles rows by their lowest grade and runs the
    # steps that read grade 2 only on the rest, gathered from each block;
    # at 3 * BLOCK // 2 rows a later block mixes survivors with the rest.
    params = AlgebraParams.hyperbolic(p, 2) if form == "hyperbolic" else dense_params(p, 3, p)
    eng = BatchAlg(params)
    rng = np.random.default_rng([p, size])
    for count in range(2, 6):
        for kind in ("uniform", "a1 = b1", "none") + (("z1 = 0",) if count > 2 else ()):
            stacks = filter_stacks(eng, rng, count, size, kind)
            mask = eng.trivial_long_commutator(iter(stacks).__next__, count)
            assert mask.shape == (size,)
            assert np.array_equal(mask, eng.is_identity(eng.long_commutator(stacks))), (count, kind)
            if kind == "none" and count <= 3:
                assert not mask.any()


@pytest.mark.parametrize("form", ["hyperbolic", "dense"])
@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_operations_take_drawn_int32_stacks(p, form):
    # Drawn stacks reach the engine as they are (the benchmark's check passes
    # `sample_batch` stacks to `commutator` and `coords`).
    params = AlgebraParams.hyperbolic(p, 2) if form == "hyperbolic" else dense_params(p, 3, p)
    eng = BatchAlg(params)
    rng = np.random.default_rng(p)
    a, b = eng.random_l1(rng, 300), eng.random_l1(rng, 300)
    a64, b64 = (Batch(*(x.astype(np.int64) for x in s)) for s in (a, b))
    for op in (eng.commutator, eng.grp_mul):
        got, expect = op(a, b), op(a64, b64)
        assert all(np.array_equal(x, y) for x, y in zip(got, expect))
        assert eng.to_elements(got) == eng.to_elements(expect)
    assert all(np.array_equal(x, y) for x, y in zip(eng.grp_inv(a), eng.grp_inv(a64)))
    # The fold meets each commutator value, partly int64, with the next int32 draw.
    drawn = [a, b] + [eng.random_l1(rng, 300) for _ in range(3)]
    for k in range(2, 6):
        got = eng.long_commutator(drawn[:k])
        expect = eng.long_commutator([Batch(*(x.astype(np.int64) for x in s)) for s in drawn[:k]])
        assert all(np.array_equal(x, y) for x, y in zip(got, expect))
        assert eng.to_elements(got) == eng.to_elements(expect)
    assert np.array_equal(eng.coords(a), eng.coords(a64))
    assert eng.to_elements(a) == eng.to_elements(a64)


def test_traced_batch_methods_are_own_attributes():
    # The benchmark's tracer wraps getattr(module, attr) for module-level
    # entry points and cls.__dict__[attr] for methods, so a moved, renamed
    # or inherited name would break `--trace 1`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_metrics", path)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    missing = []
    for _, mod_name, cls, attr in metrics.SPANS:
        module = importlib.import_module(mod_name)
        if cls is None:
            ok = callable(getattr(module, attr, None))
        else:
            ok = attr in vars(getattr(module, cls, object))
        if not ok:
            missing.append((mod_name, cls, attr))
    assert metrics.SPANS
    assert missing == []
