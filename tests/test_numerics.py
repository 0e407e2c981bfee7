import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kzmono.errors import ShapeError, SingularityError
from kzmono.numerics import (
    QuadExt,
    SparseOperator,
    exact_rank,
    frac_sqrt,
    gram_select,
    nullspace_exact_sparse,
    ode_transport,
    rat_mul,
    rat_zeros,
    solve_exact,
)


def rand_matrix(rng, rows, cols, bound=4):
    return [
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


class TestNullspace:
    def test_identity_has_empty_kernel(self):
        m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert nullspace_exact_sparse(sparse_rows(m), 4) == ([], [])

    def test_zero_matrix_kernel_is_everything(self):
        basis, free = nullspace_exact_sparse(sparse_rows(rat_zeros(3, 3)), 3)
        assert free == [0, 1, 2]
        assert basis == [{0: 1}, {1: 1}, {2: 1}]

    def test_seeded_rank_two_product(self):
        rng = random.Random(5)
        a = rand_matrix(rng, 4, 2, bound=3)
        b = rand_matrix(rng, 2, 4, bound=3)
        m = rat_mul(a, b)
        basis, _ = nullspace_exact_sparse(sparse_rows(m), 4)
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
            cols, _ = nullspace_exact_sparse(sparse_rows(m), cols_n)
            a = np.array([[float(x) for x in r] for r in m])
            assert len(cols) == cols_n - np.linalg.matrix_rank(a)
            for col in cols:
                for r in m:
                    assert sum(r[k] * v for k, v in col.items()) == 0


class TestGramSelect:
    def test_psd_selection_and_expansion(self):
        rng = random.Random(2)
        for _ in range(15):
            k = rng.randint(1, 5)
            n = rng.randint(k, 8)
            b = rand_matrix(rng, k, n, bound=2)
            gram = rat_mul([list(r) for r in zip(*b)], b)  # B^T B, PSD
            selected, expand = gram_select(gram)
            assert 0 < len(selected) <= k
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
        selected, expand = gram_select(gram)
        assert selected == [0, 2, 4]
        assert expand == [
            [1, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
            [1, Fraction(-3, 2), 0],
            [0, 0, 1],
        ]
        assert all(isinstance(x, Fraction) for row in expand for x in row)

    def test_indefinite_form_keeps_isotropic_vectors(self):
        # form diag(1, -1): (1, 1) and (1, -1) are isotropic but independent
        gram = [[Fraction(0), Fraction(2)], [Fraction(2), Fraction(0)]]
        selected, expand = gram_select(gram)
        assert selected == [0, 1]
        assert expand == [[1, 0], [0, 1]]


class TestSolve:
    def test_solve_round_trip(self):
        rng = random.Random(9)
        a = rand_matrix(rng, 5, 5)
        while exact_rank(sparse_rows(a), 5) != 5:
            a = rand_matrix(rng, 5, 5)
        x = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        b = [sum(a[i][j] * x[j] for j in range(5)) for i in range(5)]
        assert solve_exact(a, b) == x

    def test_singular_system_raises(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        for b in ([Fraction(1), Fraction(2)], [Fraction(1), Fraction(0)]):
            with pytest.raises(ShapeError):
                solve_exact(a, b)


class TestQuadExt:
    def test_field_axioms_on_samples(self):
        rng = random.Random(7)
        xs = [QuadExt(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(8)]
        for x in xs:
            for y in xs:
                assert (x + y) - y == x
                if y:
                    assert (x * y) / y == x

    def test_sqrt_of_minus_two(self):
        root = QuadExt(-2).sqrt()
        assert root is not None and root * root == QuadExt(-2)

    def test_sqrt_roundtrip(self):
        rng = random.Random(4)
        for _ in range(20):
            x = QuadExt(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            sq = x * x
            r = sq.sqrt()
            assert r is not None and r * r == sq

    def test_frac_sqrt(self):
        assert frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert frac_sqrt(Fraction(2)) is None
        assert frac_sqrt(Fraction(-1)) is None


class TestSparseOperator:
    def test_apply_matches_dense_on_random_probes(self):
        rng = random.Random(12)
        entries = [
            (rng.randint(0, 9), rng.randint(0, 9), Fraction(rng.randint(-3, 3)))
            for _ in range(40)
        ]
        op = SparseOperator((10, 10), entries)
        dense = op.to_dense_rat()
        for _ in range(5):
            vec = {rng.randint(0, 9): Fraction(rng.randint(-2, 2)) for _ in range(4)}
            out = op.apply_dict(vec)
            expect = {}
            for i in range(10):
                s = sum(dense[i][j] * vec.get(j, Fraction(0)) for j in range(10))
                if s:
                    expect[i] = s
            assert out == expect


class TestTransport:
    def test_zero_field_is_identity(self):
        f0 = np.eye(3, dtype=complex)
        f1, err, steps = ode_transport(lambda t: np.zeros((3, 3)), 0, 1, f0, 1e-8)
        assert np.array_equal(f1, f0)

    def test_scalar_exponential(self):
        a = 0.7 - 0.3j
        f1, err, _ = ode_transport(
            lambda t: np.array([[a]]), 0.0, 2.0, np.eye(1, dtype=complex), 1e-10
        )
        assert abs(f1[0, 0] - np.exp(2 * a)) < 1e-8

    def test_reverse_composes_to_identity(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        def field(t):
            return m * np.cos(t)

        tol = 1e-9
        f1, _, _ = ode_transport(field, 0.0, 1.0, np.eye(3, dtype=complex), tol)
        f0, _, _ = ode_transport(field, 1.0, 0.0, f1, tol)
        assert np.max(np.abs(f0 - np.eye(3))) < 2 * tol * 1e3

    def test_order_five_convergence(self):
        a = 1.0

        def field(t):
            return np.array([[a]], dtype=complex)

        errs = []
        for h in (0.1, 0.05, 0.025):
            f1, _, _ = ode_transport(
                field, 0.0, 1.0, np.eye(1, dtype=complex), 1e-3, fixed_step=h
            )
            errs.append(abs(f1[0, 0] - math.e))
        slopes = [
            math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)
        ]
        for s in slopes:
            assert abs(s - 5.0) <= 0.3

    def test_underflow_raises(self):
        def field(t):
            return np.array([[1.0 / (1.0 - t + 1e-18)]], dtype=complex)

        with pytest.raises(SingularityError):
            ode_transport(field, 0.0, 1.0, np.eye(1, dtype=complex), 1e-8)
