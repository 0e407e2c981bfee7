import cmath
import copy
import math
import pickle
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kzmono import numerics
from kzmono.errors import DomainError, ShapeError, SingularityError
from kzmono.numerics import (
    Held,
    SparseOperator,
    block_matrix,
    combine,
    combine_held,
    combine_max,
    concat,
    fraction_rows,
    gram_select,
    nullspace_exact_sparse,
    ode_transport,
    rat_mul,
    rat_zeros,
    sparse_eliminate,
)

from oracles import (
    dense_kernel, dense_rref, integer_matrix, integer_rows, kernel_fractions, rat_add,
    rat_identity, rat_sub, stacked_transport_batch,
)


def rand_matrix(rng, rows, cols, bound=4):
    return [
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def as_rref(pivots):
    """The RREF of ``sparse_eliminate``'s pivot rows, after checking that
    each is primitive with a positive leading entry at its pivot column."""
    for c, row in pivots.items():
        assert min(row) == c and row[c] > 0
        assert math.gcd(*row.values()) == 1
        assert all(type(v) is int for v in row.values())
    return {c: {k: Fraction(v, row[c]) for k, v in row.items()} for c, row in pivots.items()}


def expansion_rows(expand):
    """gram_select's expansion (N, D) as rows of Fraction, after checking
    that it is in lowest terms with N of Python ints."""
    num, den = expand
    assert num.dtype == object and den > 0
    assert math.gcd(den, *num.flat) == 1
    assert all(type(x) is int for x in num.flat)
    return fraction_rows(num, den)


class TestNullspace:
    def test_identity_has_empty_kernel(self):
        m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert kernel_fractions(nullspace_exact_sparse(integer_rows(sparse_rows(m)), 4)) == ([], [])

    def test_zero_matrix_kernel_is_everything(self):
        basis, free = kernel_fractions(
            nullspace_exact_sparse(integer_rows(sparse_rows(rat_zeros(3, 3))), 3))
        assert free == [0, 1, 2]
        assert basis == [{0: 1}, {1: 1}, {2: 1}]

    def test_seeded_rank_two_product(self):
        rng = random.Random(5)
        a = rand_matrix(rng, 4, 2, bound=3)
        b = rand_matrix(rng, 2, 4, bound=3)
        m = rat_mul(a, b)
        basis, free = kernel_fractions(nullspace_exact_sparse(integer_rows(sparse_rows(m)), 4))
        assert (basis, free) == dense_kernel(sparse_rows(m), 4)
        assert len(basis) == 2
        for col in basis:
            out = [sum(row[j] * v for j, v in col.items()) for row in m]
            assert all(x == 0 for x in out)

    def test_sparse_agrees_with_numpy_rank(self):
        rng = random.Random(17)
        for _ in range(30):
            rows_n, cols_n = rng.randint(1, 9), rng.randint(1, 9)
            m = [
                [Fraction(rng.randint(-2, 2)) for _ in range(cols_n)]
                for _ in range(rows_n)
            ]
            cols, free = kernel_fractions(
                nullspace_exact_sparse(integer_rows(sparse_rows(m)), cols_n))
            assert (cols, free) == dense_kernel(sparse_rows(m), cols_n)
            a = np.array([[float(x) for x in r] for r in m])
            assert len(cols) == cols_n - np.linalg.matrix_rank(a)
            for col in cols:
                for r in m:
                    assert sum(r[k] * v for k, v in col.items()) == 0


def random_sparse_rows(rng, nrows, ncols):
    """Sparse rational rows with denominators up to 7 and numerators up to
    2^70, some empty or carrying explicit zeros, plus rows that combine
    earlier ones so the matrix is rank deficient."""
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.35:
                big = rng.random() < 0.3
                num = rng.randint(-2**70, 2**70) if big else rng.randint(-6, 6)
                row[c] = Fraction(num, rng.randint(1, 7))
        rows.append(row)
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            f = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            rows.append({k: a.get(k, 0) + f * b.get(k, 0) for k in set(a) | set(b)})
    rows.insert(rng.randint(0, len(rows)), {})
    return rows


class TestEliminationOracle:
    def test_matches_dense_rref(self):
        rng = random.Random(23)
        for _ in range(120):
            ncols = rng.randint(1, 10)
            rows = random_sparse_rows(rng, rng.randint(0, 10), ncols)
            ints = integer_rows(rows)
            assert as_rref(sparse_eliminate(ints, ncols)) == dense_rref(rows, ncols)
            assert kernel_fractions(nullspace_exact_sparse(ints, ncols)) == dense_kernel(rows, ncols)

    def test_row_order_does_not_matter(self):
        # the same seeded matrices, each fed in three row orders: the RREF is
        # the dense oracle's, with its pivots in increasing column order
        rng, shuffle = random.Random(23), random.Random(29)
        for _ in range(120):
            ncols = rng.randint(1, 10)
            rows = random_sparse_rows(rng, rng.randint(0, 10), ncols)
            expect = dense_rref(rows, ncols)
            for _ in range(3):
                order = integer_rows(rows)
                shuffle.shuffle(order)
                got = sparse_eliminate(order, ncols)
                assert as_rref(got) == expect
                assert list(got) == sorted(got)

    def test_big_entries_stay_exact(self):
        # 2^70-sized entries whose combination is a small rational
        big = 2**70 + 1
        rows = [{0: Fraction(big, 3), 1: Fraction(big + 1, 7)},
                {0: Fraction(big, 6), 1: Fraction(big, 14), 2: Fraction(1, 5)}]
        assert as_rref(sparse_eliminate(integer_rows(rows), 3)) == dense_rref(rows, 3)
        assert kernel_fractions(nullspace_exact_sparse(integer_rows(rows), 3)) == dense_kernel(rows, 3)


class TestEliminationInput:
    def test_input_rows_unchanged(self):
        # non-primitive rows, and a row whose reduction lands right of the
        # leftmost pivot and forces a back-reduction: the elimination works
        # on copies
        rows = [{0: 2, 1: 2}, {0: 1, 2: 1}, {2: 4, 3: 6}, {1: -3, 3: 9}]
        before = copy.deepcopy(rows)
        sparse_eliminate(rows, 4)
        nullspace_exact_sparse(rows, 4)
        gram = sparse_rows([[4, 2, 6], [2, 1, 3], [6, 3, 9]])
        gram_before = copy.deepcopy(gram)
        gram_select(gram)
        assert rows == before
        assert gram == gram_before

    def test_explicit_zeros_are_no_entries(self):
        rows = [{0: 0, 1: 3, 2: 6}, {0: 0}, {2: 0, 3: -2}]
        got = sparse_eliminate(rows, 4)
        assert got == {1: {1: 1, 2: 2}, 3: {3: 1}}
        assert got == sparse_eliminate([{1: 3, 2: 6}, {3: -2}], 4)
        assert kernel_fractions(nullspace_exact_sparse(rows, 4)) == ([{0: 1}, {2: 1, 1: -2}], [0, 2])

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 0.5])
    def test_non_integer_entry_raises(self, value):
        with pytest.raises(TypeError):
            sparse_eliminate([{0: 1, 1: 2}, {0: 3, 1: value}], 2)
        with pytest.raises(TypeError):
            nullspace_exact_sparse([{1: value}], 2)

    def test_int64_entries_near_2_62_stay_exact(self):
        # every cross-multiple of these entries passes 2^63, where int64
        # products would wrap
        a, b, c = 2**62 - 1, 2**62 - 57, 2**61 + 3
        ints = [{0: a, 1: b, 2: 3}, {0: b, 1: c, 3: -a}, {0: c, 1: a, 2: -b, 3: 7}]
        rows = [{k: np.int64(v) for k, v in row.items()} for row in ints]
        got = sparse_eliminate(rows, 4)
        assert as_rref(got) == dense_rref(ints, 4)
        assert got == sparse_eliminate(ints, 4)
        assert kernel_fractions(nullspace_exact_sparse(rows, 4)) == dense_kernel(ints, 4)


class TestGramSelect:
    def test_psd_selection_and_expansion(self):
        rng = random.Random(2)
        for _ in range(15):
            k = rng.randint(1, 5)
            n = rng.randint(k, 8)
            b = rand_matrix(rng, k, n, bound=2)
            gram = rat_mul([list(r) for r in zip(*b)], b)  # B^T B, PSD
            selected, expand = gram_select(integer_rows(sparse_rows(gram)))
            expand = expansion_rows(expand)
            assert 0 < len(selected) <= k
            rref = dense_rref(sparse_rows(gram), n)
            assert selected == sorted(rref)
            assert expand == [[rref[c].get(j, 0) for c in selected] for j in range(n)]
            # every column reconstructs exactly inside the selected span
            for j in range(n):
                recon = [
                    sum(expand[j][t] * b[i][selected[t]] for t in range(len(selected)))
                    for i in range(k)
                ]
                assert recon == [b[i][j] for i in range(k)]

    def test_leftmost_selection_skips_zero_and_dependent_vectors(self):
        # b3 = b0 - 3/2 b2 sits between independent vectors, b1 is zero
        b0, b2, b4 = [1, 2, 0], [0, 1, 1], [1, 0, 1]
        b3 = [x - Fraction(3, 2) * y for x, y in zip(b0, b2)]
        vecs = [b0, [0, 0, 0], b2, b3, b4]
        gram = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in vecs] for u in vecs]
        selected, expand = gram_select(integer_rows(sparse_rows(gram)))
        assert selected == [0, 2, 4]
        num, den = expand
        assert den == 2
        assert num.tolist() == [[2, 0, 0], [0, 0, 0], [0, 2, 0], [2, -3, 0], [0, 0, 2]]
        assert expansion_rows(expand) == [
            [1, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
            [1, Fraction(-3, 2), 0],
            [0, 0, 1],
        ]

    def test_indefinite_form_keeps_isotropic_vectors(self):
        # form diag(1, -1): (1, 1) and (1, -1) are isotropic but independent
        gram = sparse_rows([[0, 2], [2, 0]])
        selected, expand = gram_select(gram)
        assert selected == [0, 1]
        assert expansion_rows(expand) == [[1, 0], [0, 1]]

    def test_empty_and_radical_grams(self):
        # nothing to select: the expansion is an empty (s, 0) matrix over 1
        for gram in ([], sparse_rows([[0, 0], [0, 0]])):
            selected, (num, den) = gram_select(gram)
            assert selected == [] and num.shape == (len(gram), 0) and den == 1


def big_matrix(rng, rows, cols):
    """Rational matrix with some numerators above 2^63 and zero entries."""
    def entry():
        num = rng.choice([0, rng.randint(-9, 9), rng.randint(2**63, 2**80)])
        return Fraction(num, rng.choice([1, 2, 3, 6, 7, 2**65 + 1]))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def reference_combine(terms, shape):
    """sum coeff * (F_1 @ F_2 @ ...) with the list-of-lists helpers; each
    factor is (matrix, rows, cols) so that empty shapes stay known."""
    total = rat_zeros(*shape)
    for coeff, factors in terms:
        prod = rat_identity(shape[0])
        if factors:
            prod = factors[0][0]
            for mat, _, cols in factors[1:]:
                # rat_mul gives [] when the inner dimension is 0
                prod = rat_mul(prod, mat) or rat_zeros(shape[0], cols)
        total = rat_add(total, [[coeff * x for x in row] for row in prod])
    return total


def small(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 3))


def small_int(rng):
    return rng.randint(-9, 9)


def near_2_31(rng):
    return rng.choice([-1, 1]) * rng.randint(2**31 - 9, 2**31)


def just_below_2_31(rng):
    return rng.randint(2**31 - 9, 2**31 - 1)


def above_2_40(rng):
    return rng.randint(2**40, 2**41)


def zero(rng):
    return 0


def near(top):
    """Entries in [top - 9, top], of either parity, so that sums of their
    products come close to the bound."""
    return lambda rng: rng.randint(top - 9, top)


# Sums of products whose work reaches numerics._INT64_MIN_WORK, and the type
# the bound admits them on: float64 below 2^53, int64 below 2^62, Python
# ints (object) otherwise. Each term is (coeff, chain of dims, an entry
# function per factor, {(factor, row, col): entry}); an empty chain is the
# identity.
WIDE_CASES = [
    # small entries over small denominators
    (np.float64, [
        (Fraction(3, 2), [16, 20, 16], [small, small], {}),
        (Fraction(-1, 3), [16, 16], [small], {}),
    ]),
    (np.float64, [
        (Fraction(5, 7), [18, 18, 18, 18], [small, small, small], {}),
        (Fraction(-4, 5), [], [], {}),
        (Fraction(2), [18, 24, 18], [small, small], {}),
    ]),
    # entries up to 2^24 keep the bound below 2^24 * 2^24 * 16 = 2^52
    (np.float64, [(Fraction(-1), [12, 16, 24], [lambda rng: rng.randint(-2**24, 2**24)] * 2, {})]),
    # max|F| at most 2^24 and 2^25 - 1 through an inner dimension of 16: the
    # bound is at most 2^53 - 2^28, and the entries of the product come
    # within 2^34 of it
    (np.float64, [(Fraction(1), [16, 16, 16], [near(2**24), near(2**25 - 1)], {})]),
    # entries from 2^24 and 2^25 up: the bound reaches 2^53, and the
    # entries pass it, of either parity, so float64 would round them
    (np.int64, [(Fraction(1), [16, 16, 16], [near(2**24 + 9), near(2**25 + 9)], {})]),
    # the scales 5 and 3 of the denominators 3 and 5 count in the bound:
    # 8 * 2^23 * 2^23 * 16 is 2^53 itself, and with 2^23 - 1 it is below
    (np.float64, [
        (Fraction(1, 3), [16, 16, 16], [near(2**23 - 1)] * 2, {}),
        (Fraction(1, 5), [16, 16, 16], [near(2**23 - 1)] * 2, {}),
    ]),
    (np.int64, [
        (Fraction(1, 3), [16, 16, 16], [near(2**23)] * 2, {(0, 0, 0): 2**23, (1, 0, 0): 2**23}),
        (Fraction(1, 5), [16, 16, 16], [near(2**23)] * 2, {(0, 0, 0): 2**23, (1, 0, 0): 2**23}),
    ]),
    # entries near 2^31: products pass 2^62; through an inner dimension of
    # 2 their sums pass 2^63 - 1 and would wrap on int64
    (object, [(Fraction(1), [12, 24, 16], [near_2_31, near_2_31], {})]),
    (object, [
        (Fraction(1), [24, 2, 24], [just_below_2_31, just_below_2_31], {}),
        (Fraction(1), [24, 12, 24], [small_int, small_int], {}),
    ]),
    # an entry above 2^63 does not convert to int64
    (object, [(Fraction(1), [16, 20, 16], [small_int, small_int], {(0, 3, 4): 2**63 + 5})]),
    # -2^63 converts, but its absolute value does not fit int64
    (object, [(Fraction(1), [16, 20, 16], [small_int, small_int], {(1, 2, 5): -2**63})]),
    # a zero coefficient does not cover an overflowing product
    (object, [
        (Fraction(0), [16, 20, 16], [near_2_31, near_2_31], {}),
        (Fraction(1), [16, 20, 16], [small, small], {}),
    ]),
    # a zero last factor must not hide the overflowing product before it
    (object, [
        (Fraction(1), [12, 16, 16, 12], [above_2_40, above_2_40, zero], {}),
        (Fraction(1, 2), [12, 20, 12], [small, small], {}),
    ]),
    # nor a zero product a huge coefficient
    (object, [
        (Fraction(2**70, 3), [12, 16, 12], [small, zero], {}),
        (Fraction(1), [12, 16, 12], [small, small], {}),
    ]),
]


def wide_terms(rng, case):
    """(terms, reference terms, shape) of one WIDE_CASES entry."""
    terms, ref_terms = [], []
    shape = (case[0][1][0], case[0][1][-1])
    for coeff, chain, entries, special in case:
        mats = [
            [[entry(rng) for _ in range(b)] for _ in range(a)]
            for a, b, entry in zip(chain, chain[1:], entries)
        ]
        for (f, i, j), x in special.items():
            mats[f][i][j] = x
        mats = [[[Fraction(x) for x in row] for row in m] for m in mats]
        terms.append((coeff, tuple(
            integer_matrix(m, (a, b)) for m, a, b in zip(mats, chain, chain[1:])
        )))
        ref_terms.append((coeff, list(zip(mats, chain, chain[1:]))))
    return terms, ref_terms, shape


def held_terms(terms, wrap=None):
    """``terms`` with every factor's N as int64 where it fits, or wrapped
    by ``wrap``."""
    def hold(n, d):
        return wrap(n, d) if wrap else (numerics.as_int64(n), d)

    return [(c, tuple(hold(n, d) for n, d in chain)) for c, chain in terms]


def spy_tiers(monkeypatch):
    """Record the type every combine call runs on: combine picks it with one
    call of numerics.product_dtype."""
    tiers = []
    real = numerics.product_dtype

    def spy(bound):
        dtype = real(bound)
        tiers.append(dtype)
        return dtype

    monkeypatch.setattr(numerics, "product_dtype", spy)
    return tiers


def raw_dtype(terms, shape):
    """The type of the sum combine forms, before it leaves float64."""
    return numerics._sum(terms, shape, ints=False)[0].dtype


def assert_lowest_terms(num, den):
    assert den >= 1 and math.gcd(den, *num.flat) == 1
    assert all(type(x) is int for x in num.flat)


class TestDenseExact:
    def test_round_trip(self):
        rng = random.Random(31)
        for rows, cols in [(0, 3), (3, 0), (0, 0), (1, 1), (4, 5), (6, 2)]:
            m = big_matrix(rng, rows, cols)
            num, den = integer_matrix(m, (rows, cols))
            assert num.shape == (rows, cols)
            assert_lowest_terms(num, den)
            back = fraction_rows(num, den)
            assert back == m and all(type(x) is Fraction for row in back for x in row)

    def test_combine_matches_reference(self, monkeypatch):
        rng = random.Random(37)
        for _ in range(60):
            dims = [rng.randint(0, 4) for _ in range(4)]
            rows, cols = dims[0], dims[-1]
            terms, ref_terms = [], []
            for _ in range(rng.randint(1, 4)):
                coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
                # a chain rows -> inner dims -> cols, possibly through a 0
                inner = [rng.randint(0, 3) for _ in range(rng.randint(0, 2))]
                chain = [rows] + inner + [cols]
                mats = [big_matrix(rng, a, b) for a, b in zip(chain, chain[1:])]
                terms.append((coeff, tuple(
                    integer_matrix(m, (a, b)) for m, a, b in zip(mats, chain, chain[1:])
                )))
                ref_terms.append((coeff, list(zip(mats, chain, chain[1:]))))
            if rows == cols:
                # an empty product is the identity
                coeff = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                terms.append((coeff, ()))
                ref_terms.append((coeff, []))
            num, den = combine(terms, (rows, cols))
            assert num.shape == (rows, cols)
            assert_lowest_terms(num, den)
            assert fraction_rows(num, den) == reference_combine(ref_terms, (rows, cols))

        # above the crossover: the type the bound admits, and the same exact
        # result on each; held factors (int64 where they fit) and plain
        # int64 ones take the same type, and the sum is formed on it
        tiers = spy_tiers(monkeypatch)
        for tier, case in WIDE_CASES:
            terms, ref_terms, shape = wide_terms(rng, case)
            expected = reference_combine(ref_terms, shape)
            for variant in (terms, held_terms(terms), held_terms(terms, Held)):
                tiers.clear()
                num, den = combine(variant, shape)
                assert tiers == [tier]
                assert num.shape == shape
                assert_lowest_terms(num, den)
                assert fraction_rows(num, den) == expected
                assert raw_dtype(variant, shape) == np.dtype(tier)

    def test_gate_converts_only_python_ints(self, monkeypatch):
        # a product under _INT64_MIN_WORK stays on Python ints when its
        # factors hold Python ints, and runs on float64 when they are held
        # as int64 already
        rng = random.Random(47)
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        fa, fb = integer_matrix(a, (3, 3)), integer_matrix(b, (3, 3))
        expected = rat_sub(rat_mul(a, b), rat_mul(b, a))
        tiers = spy_tiers(monkeypatch)
        for pair in ((fa, fb), (Held(*fa), Held(*fb))):
            x, y = pair
            num, den = combine([(1, (x, y)), (-1, (y, x))], (3, 3))
            assert_lowest_terms(num, den)
            assert fraction_rows(num, den) == expected
        assert tiers == [object, np.float64]

    def test_held_pairs(self):
        num, den = integer_matrix([[Fraction(-7, 2), 0], [1, Fraction(3, 4)]], (2, 2))
        held = Held(num, den)
        assert held[0].dtype == np.int64 and held[0].tolist() == [[-14, 0], [4, 3]]
        assert held[1] == 4 and held.max_abs == 14
        with pytest.raises(ValueError):
            held[0][0, 0] = 1
        big = Held(np.array([[2**63, -1]], dtype=object), 3)
        assert big[0].dtype == object and big.max_abs == 2**63
        for h in (held, big):
            for twin in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
                assert type(twin) is Held and twin[1] == h[1] and twin.max_abs == h.max_abs
                assert twin[0].tolist() == h[0].tolist() and not twin[0].flags.writeable

    def test_combine_rejects_mismatched_chains(self):
        def ones(rows, cols):
            return np.ones((rows, cols), dtype=object), 1

        bad = [
            # a 1x3 product would broadcast into 3x3, and so would a 3x1
            ([(Fraction(1), (ones(1, 2), ones(2, 3)))], (3, 3)),
            ([(Fraction(1), (ones(3, 1),))], (3, 3)),
            ([(Fraction(1), (ones(3, 2), ones(3, 3)))], (3, 3)),
            # the identity needs a square shape
            ([(Fraction(1), ())], (2, 3)),
            ([(Fraction(1), (ones(2, 3),)), (Fraction(2), ())], (2, 3)),
            # above the crossover the same checks hold
            ([(Fraction(1), (ones(20, 20), ones(20, 20)))], (20, 21)),
            ([(Fraction(1), (ones(20, 20), ones(21, 20)))], (20, 20)),
            ([(Fraction(1), (ones(1, 20), ones(20, 20)))], (20, 20)),
        ]
        for terms, shape in bad:
            with pytest.raises(ShapeError):
                combine(terms, shape)

    def test_commutator_and_cancellation(self):
        rng = random.Random(41)
        a, b = big_matrix(rng, 4, 4), big_matrix(rng, 4, 4)
        fa, fb = integer_matrix(a, (4, 4)), integer_matrix(b, (4, 4))
        comm = combine([(1, (fa, fb)), (-1, (fb, fa))], (4, 4))
        assert fraction_rows(*comm) == rat_sub(rat_mul(a, b), rat_mul(b, a))
        # a sum that cancels is the zero matrix over 1
        num, den = combine([(Fraction(2, 3), (fa, fb)), (Fraction(-2, 3), (fa, fb))], (4, 4))
        assert den == 1 and not num.any()

    def test_identity_only_terms(self):
        num, den = combine([(Fraction(3, 2), ()), (Fraction(-1, 3), ())], (3, 3))
        assert den == 6
        assert num.tolist() == [[7, 0, 0], [0, 7, 0], [0, 0, 7]]
        num, den = combine([], (2, 5))
        assert den == 1 and num.shape == (2, 5) and not num.any()

    def test_concat(self):
        rng = random.Random(43)
        a, b = big_matrix(rng, 2, 3), big_matrix(rng, 2, 1)
        num, den = concat([integer_matrix(a, (2, 3)), integer_matrix(b, (2, 1))], axis=1)
        assert fraction_rows(num, den) == [ra + rb for ra, rb in zip(a, b)]
        c = big_matrix(rng, 3, 3)
        num, den = concat([integer_matrix(a, (2, 3)), integer_matrix(c, (3, 3))], axis=0)
        assert fraction_rows(num, den) == a + c

    def test_int64_blocks_scale_on_python_ints(self):
        # int64 blocks over one D join as int64; a block over another D is
        # scaled on Python ints, where 2^62 * 4 does not wrap
        big = np.array([[2**62, -3]], dtype=np.int64)
        small = np.array([[1, 5]], dtype=np.int64)
        num, den = concat([(big, 7), (small, 7)], axis=0)
        assert num.dtype == np.int64 and den == 7
        num, den = concat([(big, 1), (small, 4)], axis=0)
        assert den == 4 and num.tolist() == [[2**64, -12], [1, 5]]
        num, den = block_matrix((2, 3), [([0], [0, 2], (big, 1)), ([1], [1, 2], (small, 4))])
        assert den == 4 and num.tolist() == [[2**64, 0, -12], [0, 1, 5]]
        assert all(type(x) is int for x in num.flat)


# (max|A|, max|B|, type): A (rows x 1) @ B (1 x cols) is bounded by their
# product, at and just below the limits of numerics.product_dtype, 2^53 and
# 2^62, and runs on the type that bound admits
BOUNDARIES = [
    (20394401, 441650591, np.float64),  # 2^53 - 1
    (2**26, 2**27, np.int64),  # 2^53
    (2**31 - 1, 2**31 + 1, np.int64),  # 2^62 - 1
    (2**31, 2**31, object),  # 2^62
]


def boundary_pair(a, b, rows, cols):
    """Python-int columns A (rows x 1) and rows B (1 x cols) with max|A| = a
    and max|B| = b, whose product holds a * b at (0, 0) and entries of both
    signs and parities near it elsewhere, and their Fraction reference."""
    col = [[(-1) ** i * (a - i)] for i in range(rows)]
    row = [[(-1) ** j * (b - j) for j in range(cols)]]
    mats = [(np.array(m, dtype=object).reshape(r, c), 1)
            for m, r, c in ((col, rows, 1), (row, 1, cols))]
    ref = [[[Fraction(x) for x in r] for r in m] for m in (col, row)]
    return mats, [(ref[0], rows, 1), (ref[1], 1, cols)]


def factor_kinds(mats):
    """The same factors of Python ints, as plain int64 and as held."""
    return {
        "python": mats,
        "int64": [(n.astype(np.int64), d) for n, d in mats],
        "held": [Held(n, d) for n, d in mats],
    }


def max_abs_of(rows):
    return max((abs(x) for r in rows for x in r), default=0)


def assert_exact(terms, shape, expected, tier, tiers):
    """combine, combine_held and combine_max each on ``tier`` and equal to
    the Fraction reference ``expected``."""
    tiers.clear()
    num, den = combine(terms, shape)
    assert_lowest_terms(num, den)
    assert num.shape == shape and fraction_rows(num, den) == expected
    held = combine_held(terms, shape)
    assert type(held) is Held and fraction_rows(*held) == expected
    assert held.max_abs == max_abs_of(held[0].tolist())
    worst = combine_max(terms, shape)
    assert type(worst) is Fraction
    assert worst == max_abs_of(expected)
    assert tiers == [tier] * 3
    assert raw_dtype(terms, shape) == np.dtype(tier)


class TestTierBoundaries:
    """combine's three entry points at the bounds where the type changes,
    against the Fraction reference, for each kind of factor and on either
    side of the gate that keeps small products of Python ints on them."""

    @pytest.mark.parametrize("a,b,tier", BOUNDARIES)
    def test_products_at_the_limits(self, monkeypatch, a, b, tier):
        tiers = spy_tiers(monkeypatch)
        # work 64 * 64 = 4096 reaches _INT64_MIN_WORK, 63 * 65 = 4095 does not
        for rows, cols in ((64, 64), (63, 65)):
            assert (rows * cols >= numerics._INT64_MIN_WORK) == (rows == 64)
            mats, ref = boundary_pair(a, b, rows, cols)
            expected = reference_combine([(Fraction(1), ref)], (rows, cols))
            assert expected[0][0] == a * b
            for kind, pair in factor_kinds(mats).items():
                want = object if kind == "python" and rows == 63 else tier
                assert_exact([(1, tuple(pair))], (rows, cols), expected, want, tiers)

    @pytest.mark.parametrize("a,b,c,tier", [
        (2**26, 2**27 - 1, 2**26 - 1, np.float64),
        (2**26, 2**27 - 1, 2**26, np.int64),
        (2**31, 2**31 - 1, 2**31 - 1, np.int64),
        (2**31, 2**31 - 1, 2**31, object),
    ])
    def test_identity_term_counts_in_the_bound(self, monkeypatch, a, b, c, tier):
        # a b + c is the bound, and the (0, 0) entry of A B + c 1
        tiers = spy_tiers(monkeypatch)
        mats, ref = boundary_pair(a, b, 64, 64)
        expected = reference_combine([(Fraction(1), ref), (Fraction(c), [])], (64, 64))
        assert expected[0][0] == a * b + c
        for pair in factor_kinds(mats).values():
            assert_exact([(1, tuple(pair)), (c, ())], (64, 64), expected, tier, tiers)

    @pytest.mark.parametrize("entry", [2**63, -2**63])
    def test_held_factor_past_int64(self, monkeypatch, entry):
        # 2^63 does not fit int64 and -2^63 does; either way max|N| = 2^63
        # puts even a small product on Python ints
        tiers = spy_tiers(monkeypatch)
        big = Held(np.array([[entry], [3]], dtype=object), 5)
        assert big.max_abs == 2**63 and big[0].dtype == (object if entry > 0 else np.int64)
        for cols in (2, 4096):
            small = Held(np.array([[1] + [-2] * (cols - 1)], dtype=object), 1)
            expected = [[Fraction(x * y, 5) for y in small[0][0].tolist()] for x in (entry, 3)]
            assert_exact([(1, (big, small))], (2, cols), expected, object, tiers)

    def test_zero_rows(self, monkeypatch):
        tiers = spy_tiers(monkeypatch)
        mats = [(np.zeros((0, 1), dtype=object), 1), (np.full((1, 64), 7, dtype=object), 2)]
        for kind, pair in factor_kinds(mats).items():
            # no work: Python ints stay on them, int64 factors run on float64
            tier = object if kind == "python" else np.float64
            assert_exact([(Fraction(3), tuple(pair))], (0, 64), [], tier, tiers)
            num, den = combine([(Fraction(3), tuple(pair))], (0, 64))
            assert num.shape == (0, 64) and den == 1

    @pytest.mark.parametrize("top,tier", [(2**50, np.float64), (2**55, np.int64),
                                          (2**61, object)])
    def test_factors_are_left_as_they_are(self, top, tier):
        # the sum accumulates into its first product in place, so a first
        # term of one factor must be a copy, on every type
        entries = [[top - 7 * i - j for j in range(8)] for i in range(8)]
        expected = [[Fraction(3 * x + (i == j)) for j, x in enumerate(row)]
                    for i, row in enumerate(entries)]
        for n in (np.array(entries, dtype=object), np.array(entries, dtype=np.int64)):
            terms = [(3, ((n, 1),)), (1, ())]
            assert fraction_rows(*combine(terms, (8, 8))) == expected
            assert fraction_rows(*combine_held(terms, (8, 8))) == expected
            assert combine_max(terms, (8, 8)) == 3 * top + 1
            assert n.tolist() == entries
        # the int64 factor, last, runs on the type its bound admits
        assert raw_dtype(terms, (8, 8)) == np.dtype(tier)

    def test_combine_max_matches_combine(self):
        rng = random.Random(53)
        for _, case in WIDE_CASES:
            terms, _, shape = wide_terms(rng, case)
            for variant in (terms, held_terms(terms), held_terms(terms, Held)):
                num, den = combine(variant, shape)
                assert combine_max(variant, shape) == Fraction(max_abs_of(num.tolist()), den)


class TestSparseOperator:
    def test_cancelled_entries_drop_out(self):
        # repeated positions add up; a sum of 0 is not stored
        entries = [(0, 1, Fraction(2)), (2, 2, Fraction(3)), (0, 1, Fraction(-2)),
                   (1, 0, Fraction(1, 2)), (1, 0, Fraction(-1, 2))]
        op = SparseOperator((3, 3), entries)
        assert op.nnz == 1
        assert op.cols == {2: {2: Fraction(3)}}


def scalar_power(a, tp):
    # dF/dt = a/(t - tp) F from F(0) = 1: ((1 - tp)/(-tp))^a on the branch
    # continuous along [0, 1], where t - tp stays in one half plane
    return cmath.exp(a * (cmath.log(1 - tp) - cmath.log(-tp)))


def diagonal_transport(diag, poles):
    """F(1) over the lines of ``poles`` for the residues diag(diag[p]): the
    product of scalar_power over every line's finite poles, entry by entry."""
    return np.diag([
        math.prod(scalar_power(x, tp) for row in poles
                  for x, tp in zip(diag[:, k], row) if math.isfinite(tp.real))
        for k in range(diag.shape[1])
    ])


class TestTransport:
    def test_zero_field_is_identity(self):
        f0 = np.eye(3, dtype=complex)
        f1, err, steps = ode_transport(np.zeros((2, 3, 3)), [0.5 + 0.1j, -0.2], f0, 1e-8)
        assert np.array_equal(f1, f0)
        assert err == 0.0 and steps > 0

    def test_scalar_exponential(self):
        a = 0.7 - 0.3j
        for tp in (1.5, 0.5 - 0.3j, -0.4 + 0.2j):
            f1, _, _ = ode_transport([[[a]]], [tp], np.eye(1, dtype=complex), 1e-10)
            assert abs(f1[0, 0] - scalar_power(a, tp)) < 1e-13

    def test_reverse_composes_to_identity(self):
        rng = np.random.default_rng(5)
        res = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        poles = np.array([0.3 + 0.4j, 0.8 - 0.2j, 1.6 + 0.1j])
        tol = 1e-9
        f1, _, _ = ode_transport(res, poles, np.eye(3, dtype=complex), tol)
        # t -> 1 - t maps the pole t_p to 1 - t_p and keeps the residues
        f0, _, _ = ode_transport(res, 1 - poles, f1, tol)
        assert np.max(np.abs(f0 - np.eye(3))) < tol

    def test_error_bound_dominates_true_error(self):
        # the bound covers both truncation and rounding, so it must hold alone
        a = 1.3 + 0.4j
        for dist in (0.6, 0.1, 1e-3):
            tp = 0.5 + 1j * dist
            f1, err, _ = ode_transport([[[a]]], [tp], np.eye(1, dtype=complex), 1e-10)
            assert abs(f1[0, 0] - scalar_power(a, tp)) <= err

    def test_pole_on_segment_raises(self):
        with pytest.raises(SingularityError):
            ode_transport([[[1.0]]], [0.25], np.eye(1, dtype=complex), 1e-8)

    def test_majorant_overflow_raises(self):
        # ||R|| = 3000 overflows the majorant's coefficients before they shrink
        with pytest.raises(SingularityError):
            ode_transport([[[3000j]]], [0.5 + 0.5j], np.eye(1, dtype=complex), 1e-8)

    @pytest.mark.parametrize("poles,line", [([-0.5 + 0.3j], 0),
                                            ([[math.inf], [-0.5 + 0.3j]], 1)])
    def test_overflow_in_the_last_batch_raises(self, poles, line):
        # ||R|| = 800: the majorant converges, but the frame and its bound
        # overflow in the line's last batch, which no later batch checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="transport overflowed") as info:
                ode_transport([[[800]]], poles, np.eye(1, dtype=complex), 1e-8)
        assert info.value.line == line

    def test_mismatched_shapes_raise(self):
        f0 = np.eye(3, dtype=complex)
        # two residues for three poles
        with pytest.raises(ShapeError):
            ode_transport(np.zeros((2, 3, 3)), [0.5j, 2.0, -1.0], f0, 1e-8)
        # residues of size 2 against an f0 of 3 rows
        with pytest.raises(ShapeError):
            ode_transport(np.zeros((1, 2, 2)), [0.5j], f0, 1e-8)

    @pytest.mark.parametrize("residue,pole,tol", [
        (1.0, math.nan, 1e-8),
        (1.0, complex(math.nan, 1), 1e-8),
        (1.0, 3.0, math.nan),
        (1.0, 3.0, -1.0),
        (math.nan, 3.0, 1e-8),
    ], ids=["nan_pole", "nan_real_part", "nan_tol", "negative_tol", "nan_residue"])
    def test_bad_input_is_a_domain_error(self, residue, pole, tol):
        # each was reported as a majorant overflow at t=0, a NaN pole after
        # a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                ode_transport([[[residue]]], [pole], np.eye(1, dtype=complex), tol)

    @pytest.mark.parametrize("layout", ["near_and_far", "close_to_segment", "equal"])
    def test_commuting_residues_match_closed_form(self, layout):
        # diagonal residues: F(1) = diag prod_p ((1 - t_p)/(-t_p))^(a_pk), and
        # the bound covers truncation and rounding, so it must hold alone
        rng = np.random.default_rng(11)
        if layout == "near_and_far":
            # far poles with large residues add little to a step's exponent
            poles = [0.5 + 0.05j, 3 + 1j, -2 - 2j, 5j, 4.0]
            scale = [0.3, 4.0, 4.0, 4.0, 4.0]
        elif layout == "close_to_segment":
            poles = [0.3 + 1e-3j, 0.7 - 0.5j]
            scale = [1.0, 1.0]
        else:
            poles = [0.5 - 0.4j] * 3
            scale = [1.0, 1.0, 1.0]
        diag = (rng.normal(size=(len(poles), 3)) + 1j * rng.normal(size=(len(poles), 3)))
        diag *= np.array(scale)[:, None]
        res = np.array([np.diag(x) for x in diag])
        f1, err, _ = ode_transport(res, poles, np.eye(3, dtype=complex), 1e-10)
        exact = [
            math.prod(scalar_power(x, tp) for x, tp in zip(diag[:, k], poles))
            for k in range(3)
        ]
        assert np.max(np.abs(f1 - np.diag(exact))) <= err
        # and the bound keeps the tol-per-unit-length contract: truncation
        # adds at most tol, rounding far less
        assert err <= 2e-10

    def test_initial_frame_multiplies_through(self):
        rng = np.random.default_rng(3)
        res = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        poles = [0.3 + 0.4j, 0.8 - 0.2j, 1.6 + 0.1j]
        f0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        fi, err_i, _ = ode_transport(res, poles, np.eye(3, dtype=complex), 1e-10)
        ff, err_f, _ = ode_transport(res, poles, f0, 1e-10)
        bound = err_f + err_i * np.abs(f0).sum(axis=1).max()
        assert np.max(np.abs(ff - fi @ f0)) <= bound

    def test_lines_in_one_call_match_chained_calls(self):
        # the frame leaving one line enters the next; each result is within
        # its bound of the exact transport, so the two are within the sum
        rng = np.random.default_rng(7)
        res = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        poles = np.array([[0.3 + 0.4j, 0.8 - 0.2j, 1.6 + 0.1j],
                          [-0.5 + 0.2j, 0.5 - 0.6j, 2.0 + 1.0j],
                          [0.1 - 0.3j, 1.2 + 0.2j, -1.0 - 1.0j]])
        tol = [1e-9, 1e-10, 1e-9]
        f1, err, steps = ode_transport(res, poles, np.eye(3, dtype=complex), tol)
        f, total, count = np.eye(3, dtype=complex), 0.0, 0
        for row, t in zip(poles, tol):
            f, e, s = ode_transport(res, row, f, t)
            total += e
            count += s
        assert steps == count
        assert np.max(np.abs(f1 - f)) <= err + total

    def test_pair_fixed_on_a_line_matches_closed_form(self):
        # a pole at infinity marks a pair fixed on that line: it adds nothing
        # there, so F(1) is the product over lines of each line's moving
        # pairs, diag prod ((1 - t_p)/(-t_p))^(a_pk)
        rng = np.random.default_rng(13)
        diag = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        res = np.array([np.diag(x) for x in diag])
        poles = np.array([[0.5 + 0.3j, -0.4 + 0.2j, math.inf],
                          [math.inf, 1.5 - 0.5j, 0.3 - 0.2j],
                          [0.6 - 0.1j, 2.0 + 2.0j, -1.0 + 0.5j]])
        f1, err, _ = ode_transport(res, poles, np.eye(2, dtype=complex), 1e-10)
        assert np.max(np.abs(f1 - diagonal_transport(diag, poles))) <= err
        # a line on which every pair is fixed is one step of nothing
        f2, err2, steps = ode_transport(res, [[math.inf] * 3], f1, 1e-10)
        assert np.array_equal(f2, f1) and err2 == 0.0 and steps == 1

    def test_per_line_tolerance_bounds_the_error(self):
        # truncation adds at most each line's tol, rounding far less, as
        # the one-line contract err <= 2 tol has it
        rng = np.random.default_rng(19)
        diag = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        res = np.array([np.diag(x) for x in diag])
        poles = np.array([[0.3 + 1e-3j, 0.7 - 0.5j, 4.0 + 0.5j],
                          [0.5 + 0.05j, math.inf, -2 - 2j],
                          [0.5 - 0.4j] * 3])
        tol = np.array([1e-10, 1e-12, 1e-11])
        f1, err, _ = ode_transport(res, poles, np.eye(3, dtype=complex), tol)
        assert np.max(np.abs(f1 - diagonal_transport(diag, poles))) <= err
        assert err <= 2 * tol.sum()

    def test_failure_names_its_line(self):
        poles = [[2.0 + 1j], [0.25], [3.0]]
        with pytest.raises(SingularityError) as info:
            ode_transport([[[1.0]]], poles, np.eye(1, dtype=complex), 1e-8)
        assert info.value.line == 1
        with pytest.raises(SingularityError) as info:
            ode_transport([[[3000j]]], [[math.inf], [0.5 + 0.5j]],
                          np.eye(1, dtype=complex), 1e-8)
        assert info.value.line == 1
        # one tol per line, or one for all
        with pytest.raises(ShapeError):
            ode_transport([[[1.0]]], poles, np.eye(1, dtype=complex), [1e-8, 1e-8])

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("layout", ["one_batch", "growth_cap"])
    def test_matches_stacked_recurrence(self, monkeypatch, d, kind, layout):
        # one product per order over all the steps of a batch sums the same
        # series as one product per step and order: the same steps, and the
        # frames within 4 ulps of their norm. Residues of norm 1 or less keep
        # the terms near the size of their sum, and complex ones are
        # anti-Hermitian, so the frames stay near unitary; neither order of
        # summation then rounds by more than a few ulps
        rng = np.random.default_rng([0, d])
        x = rng.normal(size=(3, d, d))
        if kind == "complex":
            x = x + 1j * rng.normal(size=(3, d, d))
            x = x - x.conj().transpose(0, 2, 1)
        if layout == "one_batch":
            poles, scale = [1.5, -0.6, 2.5], 0.5
        else:
            # a pole near the line's middle: 37 steps, and the a-priori
            # bound grows past 2^16 after 33 of them
            poles, scale = [0.5 + 0.01j, -0.6, 2.5], 1.0
        res = x * (scale / np.abs(x).sum(axis=2).max(axis=1))[:, None, None]
        batches, real = [], numerics._transport_batch

        def counted(*args):
            batches.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(numerics, "_transport_batch", counted)
        f1, err, steps = ode_transport(res, poles, np.eye(d, dtype=complex), 1e-10)
        monkeypatch.setattr(numerics, "_transport_batch", stacked_transport_batch)
        f2, err2, steps2 = ode_transport(res, poles, np.eye(d, dtype=complex), 1e-10)
        assert steps == steps2 and steps * len(poles) * d * d < numerics._BATCH_ENTRIES
        assert (len(batches) == 1) == (layout == "one_batch")
        assert np.max(np.abs(f1 - f2)) <= 4 * np.spacing(np.abs(f2).sum(axis=1).max())
        assert err == pytest.approx(err2, rel=1e-12)

    def test_no_poles_returns_f0(self):
        f0 = np.array([[1 + 2j, 3], [0.25, -1j]])
        f1, err, steps = ode_transport(np.zeros((0, 2, 2)), [], f0, 1e-10)
        assert np.array_equal(f1, f0) and f1 is not f0
        assert err == 0.0 and steps == 1
        # a zero-dimensional frame has nothing to transport either
        f1, err, _ = ode_transport(np.zeros((2, 0, 0)), [0.5j, 2.0], np.zeros((0, 0)), 1e-10)
        assert f1.shape == (0, 0) and err == 0.0
