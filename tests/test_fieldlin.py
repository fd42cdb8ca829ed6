import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from nilprob import fieldlin
from nilprob.errors import DimensionMismatchError
from nilprob.fieldlin import (
    SUPPORTED_PRIMES,
    BilinearForm,
    FpVector,
    antisymm_part,
    form_eval,
    hyperbolic_form,
    load_form,
    matrix_rank,
    nullspace,
    parse_form,
    pivot_rows,
    rank_stack,
    symm_part,
)


def all_vectors(p, d):
    return [FpVector(p, c) for c in itertools.product(range(p), repeat=d)]


def eval_oracle(f, x, y):
    # independent double loop
    total = 0
    for i in range(f.dim):
        for j in range(f.dim):
            total += x.coords[i] * f.coeffs[i][j] * y.coords[j]
    return total % f.p


class TestFormEval:
    def test_hyperbolic_pairing(self):
        f = hyperbolic_form(2, 1)
        e1 = FpVector.basis(2, 2, 0)
        e1p = FpVector.basis(2, 2, 1)
        assert form_eval(f, e1, e1p) == 1
        assert form_eval(f, e1p, e1) == 0

    def test_zero_vector(self):
        f = hyperbolic_form(3, 2)
        z = FpVector(3, (0,) * 4)
        for v in (FpVector.basis(3, 4, i) for i in range(4)):
            assert form_eval(f, z, v) == 0
            assert form_eval(f, v, z) == 0

    def test_random_form_against_double_loop(self):
        rng = random.Random(11)
        f = BilinearForm.from_rows(3, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        for _ in range(50):
            x = FpVector(3, tuple(rng.randrange(3) for _ in range(3)))
            y = FpVector(3, tuple(rng.randrange(3) for _ in range(3)))
            assert form_eval(f, x, y) == eval_oracle(f, x, y)

    def test_dimension_mismatch(self):
        f = hyperbolic_form(2, 1)
        with pytest.raises(DimensionMismatchError):
            form_eval(f, FpVector(2, (0,) * 3), FpVector(2, (0,) * 2))

    def test_bilinearity_exhaustive_small(self):
        # additivity and scaling in the first slot, all p <= 3, dim <= 3
        for p, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            rng = random.Random(p * 10 + d)
            f = BilinearForm.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
            vecs = all_vectors(p, d)
            for x in vecs:
                for xp in vecs:
                    for y in vecs:
                        x_xp = FpVector(p, tuple(a + b for a, b in zip(x.coords, xp.coords)))
                        lhs = form_eval(f, x_xp, y)
                        assert lhs == (form_eval(f, x, y) + form_eval(f, xp, y)) % p
            for c in range(p):
                for x in vecs:
                    for y in vecs:
                        cx = FpVector(p, tuple(c * v for v in x.coords))
                        assert form_eval(f, cx, y) == c * form_eval(f, x, y) % p


class TestSymmAntisymm:
    def test_hyperbolic_f2_both_equal_swap_matrix(self):
        f = hyperbolic_form(2, 2)
        fs, fa = symm_part(f), antisymm_part(f)
        expect = (
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        )
        assert fs.coeffs == expect
        assert fa.coeffs == expect
        assert fs == fa

    def test_symmetric_form_has_zero_antisymm(self):
        f = BilinearForm.from_rows(5, [[1, 2], [2, 3]])
        fa = antisymm_part(f)
        assert all(c == 0 for row in fa.coeffs for c in row)

    def test_random_f5_pointwise_identity_on_basis(self):
        rng = random.Random(5)
        f = BilinearForm.from_rows(5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        fs, fa = symm_part(f), antisymm_part(f)
        for i in range(3):
            for j in range(3):
                x, y = FpVector.basis(5, 3, i), FpVector.basis(5, 3, j)
                assert (form_eval(fs, x, y) - form_eval(f, x, y) - form_eval(f, y, x)) % 5 == 0
                assert (form_eval(fa, x, y) - form_eval(f, x, y) + form_eval(f, y, x)) % 5 == 0


    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_match_nested_loops(self, p):
        # the nested coefficient loops the array forms replace
        rng = random.Random(p)
        for d in range(1, 6):
            f = BilinearForm.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
            c = f.coeffs
            fs = tuple(tuple((c[i][j] + c[j][i]) % p for j in range(d)) for i in range(d))
            fa = tuple(tuple((c[i][j] - c[j][i]) % p for j in range(d)) for i in range(d))
            assert symm_part(f) == BilinearForm(p, fs)
            assert antisymm_part(f) == BilinearForm(p, fa)
            assert all(type(v) is int for row in symm_part(f).coeffs + antisymm_part(f).coeffs
                       for v in row)


class TestAllVectors:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_little_endian_order(self, p, d):
        # the mixed-radix remainder loop it replaces: column k is digit k
        idx = np.arange(p**d)
        cols = [idx // p**k % p for k in range(d)]
        expect = np.stack(cols, axis=1) if d else np.zeros((1, 0), dtype=np.int64)
        table = fieldlin.all_vectors(p, d)
        assert table.shape == (p**d, d)
        assert (table == expect).all()
        assert sorted(map(tuple, table.tolist())) == sorted(v.coords for v in all_vectors(p, d))


class TestRankKernel:
    def test_hyperbolic_symm_antisymm_nondegenerate(self):
        # the raw pairing has rank n; the swap matrix [[0,I],[I,0]] of its
        # symmetric and antisymmetric parts has full rank 2n
        for p, n in [(2, 1), (2, 2), (3, 2), (5, 1)]:
            f = hyperbolic_form(p, n)
            assert matrix_rank(f.coeffs, f.p) == n
            assert matrix_rank(symm_part(f).coeffs, p) == 2 * n
            assert matrix_rank(antisymm_part(f).coeffs, p) == f.dim

    def test_zero_form(self):
        f = BilinearForm.from_rows(2, [[0] * 3] * 3)
        assert matrix_rank(f.coeffs, f.p) == 0

    def test_rank_matches_right_kernel_enumeration_f2(self):
        rng = random.Random(17)
        for d in (2, 3, 4):
            for _ in range(10):
                f = BilinearForm.from_rows(2, [[rng.randrange(2) for _ in range(d)] for _ in range(d)])
                kernel = [y for y in all_vectors(2, d)
                          if all(form_eval(f, x, y) == 0 for x in all_vectors(2, d))]
                kdim = len(kernel).bit_length() - 1
                assert matrix_rank(f.coeffs, f.p) == d - kdim

    def test_antisymm_of_hyperbolic_32_nondegenerate(self):
        f = antisymm_part(hyperbolic_form(3, 2))
        assert matrix_rank(f.coeffs, f.p) == f.dim

    def test_symm_equals_antisymm_char2(self):
        for n in (1, 2, 3):
            f = hyperbolic_form(2, n)
            assert symm_part(f) == antisymm_part(f)


class TestHyperbolicForm:
    def test_2_1_coefficients(self):
        assert hyperbolic_form(2, 1).coeffs == ((0, 1), (0, 0))

    def test_e_basis_self_pairings_vanish(self):
        for n in (1, 2, 3):
            f = hyperbolic_form(2, n)
            for i in range(n):
                for j in range(n):
                    ei, ej = FpVector.basis(2, 2 * n, i), FpVector.basis(2, 2 * n, j)
                    eip = FpVector.basis(2, 2 * n, n + i)
                    ejp = FpVector.basis(2, 2 * n, n + j)
                    assert form_eval(f, ei, ej) == 0
                    assert form_eval(f, eip, ej) == 0
                    assert form_eval(f, eip, ejp) == 0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            hyperbolic_form(2, 0)

    def test_bad_prime(self):
        with pytest.raises(ValueError):
            hyperbolic_form(4, 1)


class TestNullspace:
    def test_nullspace_oracle_f3(self):
        rng = random.Random(9)
        for _ in range(20):
            d = rng.randrange(1, 5)
            rows = [[rng.randrange(3) for _ in range(d)] for _ in range(rng.randrange(1, 4))]
            basis = nullspace(rows, 3, d)
            # every basis vector is killed, and dimensions add up
            for v in basis:
                for row in rows:
                    assert sum(r * c for r, c in zip(row, v.coords)) % 3 == 0
            assert len(basis) == d - matrix_rank(rows, 3)


class TestFormIO:
    def test_keyword(self):
        assert load_form("hyperbolic:2:2") == hyperbolic_form(2, 2)

    def test_file(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text("5 2\n0 1\n0 0\n")
        assert load_form(path) == hyperbolic_form(5, 1)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_form("2")
        with pytest.raises(ValueError):
            parse_form("2 2\n0 1\n0")
        with pytest.raises(ValueError):
            parse_form("2 2\n0 1\n0 7")
        with pytest.raises(ValueError):
            parse_form("9 1\n0")

    @pytest.mark.parametrize("text", ["2 0", "2 -1\n1"])
    def test_parse_rejects_dimension_below_one(self, text):
        # (-1)^2 = 1 entry would pass the count check
        with pytest.raises(ValueError, match="form dimension must be >= 1"):
            parse_form(text)

    @given(st.data())
    def test_text_parses_to_from_rows(self, data):
        p, d, rows = data.draw(forms())
        text = data.draw(form_text([p, d] + [e for row in rows for e in row]))
        want = BilinearForm.from_rows(p, rows)
        assert parse_form(text) == want
        assert load_form(io.StringIO(text)) == want

    @given(st.data())
    def test_entry_out_of_range_or_wrong_count_raises(self, data):
        p, d, rows = data.draw(forms())
        entries = [e for row in rows for e in row]
        if data.draw(st.booleans()):
            entries[data.draw(st.integers(0, d * d - 1))] = data.draw(st.integers(p, 2 * p))
        elif data.draw(st.booleans()):
            entries.append(data.draw(st.integers(0, p - 1)))
        else:
            entries.pop(data.draw(st.integers(0, d * d - 1)))
        with pytest.raises(ValueError):
            parse_form(data.draw(form_text([p, d] + entries)))


@st.composite
def forms(draw):
    """(p, d, rows) with p in SUPPORTED_PRIMES, 1 <= d <= 4 and entries in [0, p)."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    return p, d, draw(st.lists(row, min_size=d, max_size=d))


@st.composite
def form_text(draw, tokens):
    """The tokens as form text: arbitrary whitespace between and around them."""
    gap = st.text(" \t\r\n", min_size=1, max_size=3)
    text = draw(st.text(" \t\r\n", max_size=2))
    for t in tokens:
        text += str(t) + draw(gap)
    return text


@st.composite
def matrix_stacks(draw):
    """(p, stack): square, wide and tall shapes; full, all-zero or low-rank."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    n, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    digits = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("full", "zero", "low")))
    if kind == "zero":
        return p, np.zeros((n, rows, cols), dtype=np.int64)
    if kind == "full":
        return p, draw(hnp.arrays(np.int64, (n, rows, cols), elements=digits))
    inner = draw(st.integers(1, min(rows, cols)))
    left = draw(hnp.arrays(np.int64, (n, rows, inner), elements=digits))
    right = draw(hnp.arrays(np.int64, (n, inner, cols), elements=digits))
    return p, left @ right


class TestRankStack:
    @given(matrix_stacks())
    def test_matches_matrix_rank(self, case):
        p, mats = case
        expected = [matrix_rank(m.tolist(), p) for m in mats]
        assert rank_stack(mats, p).tolist() == expected

    def test_empty_stack_and_zero_columns(self):
        assert rank_stack(np.zeros((0, 3, 4), dtype=np.int64), 3).shape == (0,)
        assert rank_stack(np.zeros((2, 3, 0), dtype=np.int64), 5).tolist() == [0, 0]


@st.composite
def f2_stacks(draw):
    """Stacks mod 2 of low rank at the uint64 word boundaries, N = 0 and
    zero-row stacks included, with unreduced entries (3, -1, 2^40 ...).
    The rows use every column or only a few next to a word boundary.  N runs
    on both sides of the small-stack cutoff, so both eliminations see them."""
    # 0 listed last: sampled_from draws uniformly and shrinks to the first entry
    n, rows = draw(st.sampled_from((1, 2, 3, 5, 17, 0))), draw(st.sampled_from((*range(1, 9), 0)))
    inner, cols = draw(st.integers(1, 8)), draw(st.sampled_from((1, 63, 64, 65, 128, 129, 0)))
    edges = [c for c in (0, 1, 62, 63, 64, 65, 127, 128) if c < cols]
    support = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3)
                   | st.just(list(range(cols))) if edges else st.just([]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    right = np.zeros((n, inner, cols), dtype=np.int64)
    right[:, :, support] = rng.integers(0, 2, (n, inner, len(support)))
    bits = rng.integers(0, 2, (n, rows, inner)) @ right % 2
    return bits + rng.choice([0, 2, -2, 2**40, -(2**40)], size=bits.shape)


def assert_prefix_ranks(mats, p):
    """The used rows among the first k number rank(first k rows), by rref."""
    used = pivot_rows(mats, p)
    assert used.shape == mats.shape[:2] and used.dtype == bool
    for mat, row in zip(mats, used):
        assert [row[:k].sum() for k in range(len(row) + 1)] == [
            matrix_rank(mat[:k].tolist(), p) for k in range(len(row) + 1)
        ]


class TestPivotRows:
    @given(matrix_stacks())
    def test_prefix_counts_are_prefix_ranks(self, case):
        p, mats = case
        assert_prefix_ranks(mats, p)

    @given(f2_stacks())
    def test_f2_word_boundaries(self, mats):
        assert_prefix_ranks(mats, 2)

    @given(matrix_stacks() | f2_stacks().map(lambda mats: (2, mats)))
    def test_float_stacks_match_integer_stacks(self, case):
        # both branches reduce float entries as they reduce integer ones
        p, mats = case
        assert np.array_equal(pivot_rows(mats.astype(np.float64), p), pivot_rows(mats, p))

    @given(f2_stacks(), st.integers(0, 2**32 - 1), st.booleans())
    def test_small_f2_stacks_match_the_column_loop(self, mats, seed, as_float):
        # a stack of at most _SMALL_F2_STACK matrices eliminates on Python
        # ints, a larger one in the column loop; every window of 0, 1 or 2
        # matrices of a larger stack gets the stack's rows of the mask
        shape = (fieldlin._SMALL_F2_STACK + 1, *mats.shape[1:])
        stack = np.concatenate([mats, np.random.default_rng(seed).integers(-3, 4, shape)])
        want = pivot_rows(stack, 2)
        small = stack.astype(np.float64) if as_float else stack
        for k in range(len(stack) + 1):
            for size in (0, 1, 2):
                assert np.array_equal(pivot_rows(small[k : k + size], 2), want[k : k + size])

    def test_empty_stack_and_zero_columns(self):
        assert pivot_rows(np.zeros((0, 3, 4), dtype=np.int64), 3).shape == (0, 3)
        assert not pivot_rows(np.zeros((2, 3, 0), dtype=np.int64), 5).any()
        assert pivot_rows(np.zeros((2, 0, 3), dtype=np.int64), 7).shape == (2, 0)
        assert pivot_rows(np.ones((0, 3, 65), dtype=np.int64), 2).shape == (0, 3)
        assert pivot_rows(np.ones((2, 0, 65), dtype=np.int64), 2).shape == (2, 0)
