import itertools
import random
from fractions import Fraction

import pytest

from kzmono.errors import ConfigurationError, DomainError, ShapeError
from kzmono.liealg import (
    bracket,
    build_algebra,
    killing_form,
    level_weights,
    orthonormal_basis,
    weight_form,
)
from kzmono.numerics import rat_mul

from oracles import (
    A1_E, A1_F, A1_H, a1_trace_form, basis_duals, basis_elements, dense_lie_data, rat_identity,
    rat_inverse,
)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_algebra("A", 2)


@pytest.fixture(scope="module")
def a3():
    return build_algebra("A", 3)


def coxeter_from_root_data(alg):
    """Independent derivation: 1 + height of the highest root."""
    # theta over the simple roots: x = A^-1 theta, the Cartan matrix A being
    # symmetric in type A
    inv = rat_inverse([[Fraction(x) for x in row] for row in alg.cartan_matrix])
    coords = [sum(a * t for a, t in zip(row, alg.highest_root)) for row in inv]
    assert all(c.denominator == 1 for c in coords)
    return 1 + int(sum(coords))


class TestBuild:
    def test_dims_and_coxeter(self, a1, a2):
        assert (a1.dim, a1.dual_coxeter) == (3, 2)
        assert (a2.dim, a2.dual_coxeter) == (8, 3)
        for alg in (a1, a2, build_algebra("A", 3)):
            assert alg.dim == alg.rank * (alg.rank + 2)
            assert coxeter_from_root_data(alg) == alg.dual_coxeter

    def test_highest_root_has_norm_two(self, a1, a2):
        for alg in (a1, a2):
            assert weight_form(alg, alg.highest_root, alg.highest_root) == 2

    def test_unsupported_series(self):
        with pytest.raises(ConfigurationError):
            build_algebra("B", 2)

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            build_algebra("A", 0)

    def test_gram_symmetric_nondegenerate(self):
        # G G^-1 = I on the algebra and A A^-1 = I on weight space, exactly
        for rank in range(1, 6):
            alg = build_algebra("A", rank)
            g = alg.gram_matrix
            assert g == [list(row) for row in zip(*g)]
            assert rat_mul(g, alg.gram_inverse) == rat_identity(alg.dim)
            assert rat_mul(alg.cartan_matrix, alg.weight_gram) == rat_identity(rank)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_matches_dense_oracle(self, rank):
        # the same keys and inner keys in the same order, and Fraction values
        alg = build_algebra("A", rank)
        labels, structure, gram = dense_lie_data(rank)
        assert alg.basis_labels == labels
        assert list(alg.structure) == list(structure)
        for key, coords in structure.items():
            assert list(alg.structure[key].items()) == list(coords.items())
            assert all(type(v) is Fraction for v in alg.structure[key].values())
        for got, want in ((alg.gram_matrix, gram), (alg.gram_inverse, rat_inverse(gram))):
            assert got == want
            assert all(type(v) is Fraction for row in got for v in row)


class TestKillingForm:
    def test_a1_values_match_trace_form(self, a1):
        e = a1.basis_vector(("e", 1, 2))
        f = a1.basis_vector(("f", 1, 2))
        h = a1.basis_vector(("h", 1))
        assert killing_form(a1, h, h) == a1_trace_form(A1_H, A1_H) == 2
        assert killing_form(a1, e, e) == a1_trace_form(A1_E, A1_E) == 0
        assert killing_form(a1, e, f) == a1_trace_form(A1_E, A1_F) == 1

    def test_shape_error(self, a1):
        with pytest.raises(ShapeError):
            killing_form(a1, [Fraction(1)] * 2, [Fraction(1)] * 3)

    def test_ad_invariance_all_triples(self, a1, a2, a3):
        for alg in (a1, a2, a3):
            basis = [alg.basis_vector(lab) for lab in alg.basis_labels]
            for x, y, z in itertools.product(basis, repeat=3):
                lhs = killing_form(alg, bracket(alg, x, y), z)
                rhs = killing_form(alg, y, bracket(alg, x, z))
                assert lhs + rhs == 0


class TestJacobi:
    def test_random_triples_exact(self, a1, a2, a3):
        rng = random.Random(31)
        for alg in (a1, a2, a3):
            for _ in range(40):
                vecs = []
                for _ in range(3):
                    vecs.append(
                        [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)]
                    )
                x, y, z = vecs
                total = [
                    a + b + c
                    for a, b, c in zip(
                        bracket(alg, x, bracket(alg, y, z)),
                        bracket(alg, y, bracket(alg, z, x)),
                        bracket(alg, z, bracket(alg, x, y)),
                    )
                ]
                assert all(t == 0 for t in total)


class TestLevelWeights:
    def test_a1_counts(self, a1):
        # brute-force oracle: kappa(m w, theta) = m for sl2
        for ell in range(1, 7):
            got = level_weights(a1, ell)
            brute = [(m,) for m in range(0, 40) if m <= ell]
            assert got == brute
            assert len(got) == ell + 1

    def test_a1_level_three(self, a1):
        assert level_weights(a1, 3) == [(0,), (1,), (2,), (3,)]

    def test_a2_level_one(self, a2):
        assert sorted(level_weights(a2, 1)) == [(0, 0), (0, 1), (1, 0)]

    def test_pairing_bound_holds(self, a2):
        for w in level_weights(a2, 3):
            assert weight_form(a2, w, a2.highest_root) <= 3

    def test_bad_level(self, a1):
        with pytest.raises(DomainError):
            level_weights(a1, 0)


class TestOrthonormal:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_dual_pairing_is_identity(self, rank):
        # kappa(x_a, x~_b) = delta_ab exactly, for two seeds
        alg = build_algebra("A", rank)
        for seed in (0, 1):
            basis = orthonormal_basis(alg, seed)
            xs, duals = basis_elements(basis), basis_duals(basis)
            assert len(xs) == len(duals) == alg.dim
            for i, x in enumerate(xs):
                for j, y in enumerate(duals):
                    assert killing_form(alg, x, y) == (1 if i == j else 0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_casimir_tensor_is_gram_inverse(self, rank):
        # sum_a x_a (x) x~_a does not depend on the basis
        alg = build_algebra("A", rank)
        for seed in (0, 1, 5):
            basis = orthonormal_basis(alg, seed)
            pairs = list(zip(basis_elements(basis), basis_duals(basis)))
            tensor = [
                [sum(x[p] * y[q] for x, y in pairs) for q in range(alg.dim)]
                for p in range(alg.dim)
            ]
            assert tensor == alg.gram_inverse

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_shear_product_is_unimodular(self, rank):
        # g = G^-1 P and g^-1 = Q^T are integer, and g g^-1 = I
        alg = build_algebra("A", rank)
        for seed in (0, 1):
            basis = orthonormal_basis(alg, seed)
            g = [list(col) for col in zip(*basis_elements(basis))]
            g_inv = basis.dual_forms
            assert all(type(v) is int for row in g_inv for v in row)
            assert all(v.denominator == 1 for row in g for v in row)
            assert rat_mul(g, g_inv) == rat_identity(alg.dim)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_seeds_give_different_bases(self, rank):
        alg = build_algebra("A", rank)
        b0, b1 = orthonormal_basis(alg, 0), orthonormal_basis(alg, 1)
        assert basis_elements(b0) != basis_elements(b1)
        assert basis_duals(b0) != basis_duals(b1)

    def test_mode_argument_is_gone(self, a1, a2):
        # a call written for the old (alg, mode, seed) signature fails loudly
        for alg in (a1, a2):
            with pytest.raises(DomainError):
                orthonormal_basis(alg, "symbolic")

    def test_equivariance_against_chevalley(self, a1):
        # kappa([x, J^a], J^b) = -kappa(J^a, [x, J^b]) for generators x
        basis = orthonormal_basis(a1, 2)
        gens = [("e", 1, 2), ("f", 1, 2), ("h", 1)]
        for lab in gens:
            x = a1.basis_vector(lab)
            xs = basis_elements(basis)
            for u in xs:
                for v in xs:
                    lhs = killing_form(a1, bracket(a1, x, u), v)
                    rhs = killing_form(a1, u, bracket(a1, x, v))
                    assert lhs + rhs == 0
