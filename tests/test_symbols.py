import random
from fractions import Fraction

import pytest

from kzmono.errors import DomainError, ShapeError
from kzmono.liealg import build_algebra, orthonormal_basis
from kzmono.symbols import (
    FormalField,
    LaurentGVector,
    cocycle_cross,
    cocycle_evaluation,
    random_laurent_vector,
    residue_side,
    symbol_pairing,
)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


@pytest.fixture(scope="module")
def sym_basis(a1):
    return orthonormal_basis(a1, 0)


def vec(a1, **named):
    out = [Fraction(0)] * a1.dim
    labels = {"e": ("e", 1, 2), "f": ("f", 1, 2), "h": ("h", 1)}
    for name, coeff in named.items():
        out[a1.index(labels[name])] += Fraction(coeff)
    return out


class TestSymbolPairing:
    def test_cartan_anchor(self, a1):
        phi = LaurentGVector(algebra=a1, support={0: vec(a1, h=1)})
        assert symbol_pairing(phi, 0, 1) == Fraction(1, 3)

    def test_empty_support(self, a1):
        phi = LaurentGVector(algebra=a1, support={})
        assert symbol_pairing(phi, 0, 1) == 0
        assert cocycle_evaluation(phi, 3) == 0

    def test_cross_term_anchor(self, a1):
        phi = LaurentGVector(algebra=a1, support={1: vec(a1, e=1), 2: vec(a1, f=1)})
        assert symbol_pairing(phi, 3, 2) == Fraction(1, 4)

    def test_level_validation(self, a1):
        phi = LaurentGVector(algebra=a1, support={0: vec(a1, h=1)})
        with pytest.raises(DomainError):
            symbol_pairing(phi, 0, 0)

    def test_reindexing_symmetry(self, a1):
        rng = random.Random(6)
        for _ in range(20):
            phi = random_laurent_vector(a1, rng)
            m = rng.randint(-3, 3)
            flipped = LaurentGVector(
                algebra=a1, support={m - k: v for k, v in phi.support.items()}
            )
            assert cocycle_evaluation(phi, m) == cocycle_evaluation(flipped, m)


class TestCocycle:
    def test_cartan_value(self, a1):
        phi = LaurentGVector(algebra=a1, support={0: vec(a1, h=1)})
        assert cocycle_evaluation(phi, 0) == 2

    def test_isotropic_root_vector(self, a1):
        phi = LaurentGVector(algebra=a1, support={1: vec(a1, e=1)})
        assert cocycle_evaluation(phi, 2) == 0

    def test_formal_field_wrapper(self, a1):
        phi = LaurentGVector(algebra=a1, support={0: vec(a1, h=1)})
        assert FormalField(0).evaluate(phi) == 2

    def test_scaling_identity_against_pairing(self, a1):
        rng = random.Random(13)
        for _ in range(25):
            phi = random_laurent_vector(a1, rng)
            m = rng.randint(-4, 4)
            for level in (1, 2, 3, 4):
                assert cocycle_evaluation(phi, m) == 2 * (level + 2) * symbol_pairing(
                    phi, m, level
                )

    def test_bilinearity_with_cross_term(self, a1):
        rng = random.Random(23)
        for _ in range(15):
            phi = random_laurent_vector(a1, rng, kmin=-3, kmax=0)
            psi = random_laurent_vector(a1, rng, kmin=1, kmax=3)
            both = LaurentGVector(
                algebra=a1,
                support={
                    k: [
                        a + b
                        for a, b in zip(
                            phi.coefficient(k), psi.coefficient(k)
                        )
                    ]
                    for k in set(phi.support) | set(psi.support)
                },
            )
            n = rng.randint(-2, 2)
            assert cocycle_evaluation(both, n) == (
                cocycle_evaluation(phi, n)
                + cocycle_evaluation(psi, n)
                + 2 * cocycle_cross(phi, psi, n)
            )

    def test_shape_validation(self, a1):
        with pytest.raises(ShapeError):
            LaurentGVector(algebra=a1, support={0: [Fraction(1)] * 2})


class TestResidueSide:
    def test_matches_pairing_anchor(self, a1, sym_basis):
        phi = LaurentGVector(algebra=a1, support={0: vec(a1, h=1)})
        assert residue_side(phi, 0, 1, sym_basis) == Fraction(1, 3)

    def test_empty(self, a1, sym_basis):
        phi = LaurentGVector(algebra=a1, support={})
        assert residue_side(phi, 2, 1, sym_basis) == 0

    def test_property_equality_100_trials(self, a1, sym_basis):
        rng = random.Random(0)
        for _ in range(100):
            phi = random_laurent_vector(a1, rng)
            for level in (1, 2, 3):
                for m in range(-3, 4):
                    assert residue_side(phi, m, level, sym_basis) == symbol_pairing(
                        phi, m, level
                    )

    def test_basis_independence(self, a1, sym_basis):
        other = orthonormal_basis(a1, 1)
        a2 = build_algebra("A", 2)
        duals = [orthonormal_basis(a2, seed) for seed in (0, 2)]
        rng, rng2 = random.Random(3), random.Random(4)
        for _ in range(30):
            phi = random_laurent_vector(a1, rng)
            m = rng.randint(-3, 3)
            sp = symbol_pairing(phi, m, 2)
            assert residue_side(phi, m, 2, sym_basis) == sp
            assert residue_side(phi, m, 2, other) == sp
            psi = random_laurent_vector(a2, rng2)
            sp = symbol_pairing(psi, m, 2)
            assert [residue_side(psi, m, 2, b) for b in duals] == [sp, sp]

    def test_zero_index_ordering_free_path(self, a1, sym_basis):
        # the index-0 evaluation runs through the split zero-mode formula;
        # exercise supports with and without a zero coefficient
        rng = random.Random(9)
        for _ in range(25):
            phi = random_laurent_vector(a1, rng)
            assert residue_side(phi, 0, 2, sym_basis) == symbol_pairing(phi, 0, 2)
        phi = LaurentGVector(
            algebra=a1, support={-2: vec(a1, e=1, h=2), 2: vec(a1, f=3)}
        )
        assert residue_side(phi, 0, 1, sym_basis) == symbol_pairing(phi, 0, 1)
