"""The vectorized engine must agree with the scalar implementation
everywhere: same formulas, two independent code paths."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilprob._batch import BatchAlg
from nilprob.algebra import (
    AlgebraParams,
    alg_add,
    alg_mul,
    lie3_closed,
    lie4_closed,
)
from nilprob.fieldlin import SUPPORTED_PRIMES, FpVector
from nilprob.groups import GroupElement, commutator, grp_inv, grp_mul, long_commutator

PARAMS = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)]


def rand_full_batch(eng, rng, n):
    batch = eng.random_l1(rng, n)
    return batch._replace(c0=rng.integers(0, eng.p, n))


@pytest.mark.parametrize("p,n", PARAMS)
def test_mul_matches_scalar(p, n):
    params = AlgebraParams.hyperbolic(p, n)
    eng = BatchAlg(params)
    rng = np.random.default_rng(100 + p + n)
    a = rand_full_batch(eng, rng, 200)
    b = rand_full_batch(eng, rng, 200)
    got = eng.to_elements(eng.mul(a, b))
    expect = [alg_mul(x, y) for x, y in zip(eng.to_elements(a), eng.to_elements(b))]
    assert got == expect


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
    got_neg = eng.to_elements(eng.neg(a))
    assert got_neg == [-x for x in eng.to_elements(a)]


@pytest.mark.parametrize("p,n", PARAMS)
def test_group_ops_match_scalar(p, n):
    params = AlgebraParams.hyperbolic(p, n)
    eng = BatchAlg(params)
    rng = np.random.default_rng(300 + p + n)
    a = eng.random_l1(rng, 150)
    b = eng.random_l1(rng, 150)
    ga = [GroupElement.from_l1(e) for e in eng.to_elements(a)]
    gb = [GroupElement.from_l1(e) for e in eng.to_elements(b)]

    got_mul = [GroupElement.from_l1(e) for e in eng.to_elements(eng.grp_mul(a, b))]
    assert got_mul == [grp_mul(x, y) for x, y in zip(ga, gb)]

    got_inv = [GroupElement.from_l1(e) for e in eng.to_elements(eng.grp_inv(a))]
    assert got_inv == [grp_inv(x) for x in ga]

    got_comm = [GroupElement.from_l1(e) for e in eng.to_elements(eng.commutator(a, b))]
    assert got_comm == [commutator(x, y) for x, y in zip(ga, gb)]


def test_long_commutator_matches_scalar():
    params = AlgebraParams.hyperbolic(2, 2)
    eng = BatchAlg(params)
    rng = np.random.default_rng(42)
    stacks = [eng.random_l1(rng, 50) for _ in range(4)]
    got = [GroupElement.from_l1(e) for e in eng.to_elements(eng.long_commutator(stacks))]
    columns = [[GroupElement.from_l1(e) for e in eng.to_elements(s)] for s in stacks]
    expect = [long_commutator([col[i] for col in columns]) for i in range(50)]
    assert got == expect


@pytest.mark.parametrize("p,n", PARAMS)
def test_closed_forms_match_scalar(p, n):
    params = AlgebraParams.hyperbolic(p, n)
    eng = BatchAlg(params)
    rng = np.random.default_rng(400 + p + n)
    d = params.d
    x, y, z, w = (rng.integers(0, p, (120, d)) for _ in range(4))
    got3 = eng.lie3(x, y, z)
    got4 = eng.lie4(x, y, z, w)
    for i in range(120):
        vx, vy, vz, vw = (
            FpVector(p, tuple(int(v) for v in arr[i])) for arr in (x, y, z, w)
        )
        assert tuple(int(v) for v in got3[i]) == lie3_closed(params, vx, vy, vz).coords
        assert int(got4[i]) == lie4_closed(params, vx, vy, vz, vw)


def test_closed_forms_match_nested_brackets_batched():
    params = AlgebraParams.hyperbolic(3, 2)
    eng = BatchAlg(params)
    rng = np.random.default_rng(7)
    d = params.d
    x, y, z, w = (rng.integers(0, 3, (400, d)) for _ in range(4))
    bx, by, bz, bw = (eng.embed_r1(v) for v in (x, y, z, w))
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


# Definitional group operations composed from the general `mul`: a second
# route to each closed-form kernel, independent of its grade algebra.


def def_grp_mul(eng, a, b):
    return eng.add(eng.add(a, b), eng.mul(a, b))


def def_grp_inv(eng, a):
    # (1+a)^-1 = 1 - a + a^2 - a^3 + a^4
    sq = eng.mul(a, a)
    cube = eng.mul(sq, a)
    quad = eng.mul(cube, a)
    return eng.add(eng.sub(eng.sub(sq, a), cube), quad)


def def_commutator(eng, a, b):
    ia, ib = def_grp_inv(eng, a), def_grp_inv(eng, b)
    return def_grp_mul(eng, def_grp_mul(eng, ia, ib), def_grp_mul(eng, a, b))


def batch_equal(x, y):
    return all(np.array_equal(u, v) for u, v in zip(x, y))


@st.composite
def l1_stack_pairs(draw):
    """(engine, a, b): uniform L1 stacks, commutator-valued stacks (r1 = 0,
    as MC feeds [x,y] back into [[x,y],z]), or stacks with identity rows."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("uniform", "commutator", "identity rows")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eng = BatchAlg(AlgebraParams.hyperbolic(p, n))
    a, b = eng.random_l1(rng, size), eng.random_l1(rng, size)
    if kind == "commutator":
        a = def_commutator(eng, a, eng.random_l1(rng, size))
    elif kind == "identity rows":
        keep = rng.integers(0, 2, size=(2, size)).astype(bool)
        a, b = (eng.from_coords(eng.coords(s) * k[:, None]) for s, k in zip((a, b), keep))
    return eng, a, b


@given(l1_stack_pairs())
def test_closed_form_group_ops_match_definitions_and_scalar(case):
    eng, a, b = case
    comm, inv, prod = eng.commutator(a, b), eng.grp_inv(a), eng.grp_mul(a, b)
    assert batch_equal(comm, def_commutator(eng, a, b))
    assert batch_equal(inv, def_grp_inv(eng, a))
    assert batch_equal(prod, def_grp_mul(eng, a, b))
    assert eng.is_identity(eng.grp_mul(a, inv)).all()

    def group_elements(stack):
        return [GroupElement.from_l1(e) for e in eng.to_elements(stack)]

    ga, gb = group_elements(a), group_elements(b)
    assert group_elements(comm) == [commutator(x, y) for x, y in zip(ga, gb)]
    assert group_elements(inv) == [grp_inv(x) for x in ga]
    assert group_elements(prod) == [grp_mul(x, y) for x, y in zip(ga, gb)]


def test_traced_batch_methods_are_own_attributes():
    # The benchmark's tracer wraps BatchAlg.__dict__[name] for each listed
    # name, so a renamed or inherited method would break `--trace 1`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_metrics", path)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    names = [
        attr for _, module, cls, attr in metrics.SPANS
        if (module, cls) == ("nilprob._batch", "BatchAlg")
    ]
    assert names
    assert [name for name in names if name not in BatchAlg.__dict__] == []
