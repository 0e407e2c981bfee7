import itertools
from fractions import Fraction

import numpy as np
import pytest

from kzmono.errors import DomainError
from kzmono.invariants import (
    diagonal_action,
    invariant_basis,
    omega_pair,
    restrict,
    tensor_system,
)
from kzmono.liealg import build_algebra
from kzmono.reps import casimir_value, irrep

from oracles import CATALAN, brute_invariant_dim_a1


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_algebra("A", 2)


def a1_system(a1, ms):
    return tensor_system([irrep(a1, (m,)) for m in ms])


class TestTensorSystem:
    def test_dims(self, a1, a2):
        v = irrep(a1, (1,))
        assert tensor_system([v, v]).dim == 4
        assert tensor_system([v] * 4).dim == 16
        w1, w2 = irrep(a2, (1, 0)), irrep(a2, (0, 1))
        assert tensor_system([w1, w2]).dim == 9

    def test_index_maps_are_bijections(self, a1):
        sys = a1_system(a1, [1, 2, 1])
        seen = set()
        for idx in range(sys.dim):
            multi = sys.multi_index(idx)
            assert sys.flat_index(multi) == idx
            seen.add(multi)
        assert len(seen) == sys.dim

    def test_rejects_mixed_algebras(self, a1, a2):
        with pytest.raises(DomainError):
            tensor_system([irrep(a1, (1,)), irrep(a2, (1, 0))])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            tensor_system([])


class TestInvariantBasis:
    def test_anchor_dimensions(self, a1):
        assert invariant_basis(a1_system(a1, [1, 1])).dim == 1
        assert invariant_basis(a1_system(a1, [1, 1, 1, 1])).dim == 2
        assert invariant_basis(a1_system(a1, [1, 1, 1])).dim == 0

    def test_catalan_dimensions_vs_brute_force(self, a1):
        for m in range(1, 5):
            ms = [1] * (2 * m)
            exact = invariant_basis(a1_system(a1, ms)).dim
            assert exact == CATALAN[m]
            assert exact == brute_invariant_dim_a1(ms)

    def test_mixed_weights_vs_brute_force(self, a1):
        for ms in ([2, 1, 1, 2], [1, 2, 1], [2, 2, 2], [1, 1, 2, 2], [3, 1, 2]):
            exact = invariant_basis(a1_system(a1, ms)).dim
            assert exact == brute_invariant_dim_a1(ms)

    def test_every_generator_annihilates(self, a1, a2):
        cases = [
            (a1, a1_system(a1, [1, 1, 2])),
            (a2, tensor_system([irrep(a2, (1, 0)), irrep(a2, (0, 1)), irrep(a2, (1, 1))])),
        ]
        for alg, sys in cases:
            inv = invariant_basis(sys)
            assert inv.dim > 0
            for lab in alg.basis_labels:
                op = diagonal_action(sys, lab)
                for col in inv.basis:
                    assert op.apply_dict(col) == {}

    def test_a2_triple_product(self, a2):
        w1 = irrep(a2, (1, 0))
        adj = irrep(a2, (1, 1))
        assert invariant_basis(tensor_system([w1, irrep(a2, (0, 1))])).dim == 1
        assert invariant_basis(tensor_system([w1, w1, w1])).dim == 1
        assert invariant_basis(tensor_system([adj, adj, adj])).dim == 2

    def test_float_mode_matches_exact(self, a1):
        for ms in ([1, 1, 1, 1], [2, 1, 1], [2, 2, 2]):
            sys = a1_system(a1, ms)
            assert invariant_basis(sys, "float").dim == invariant_basis(sys).dim


class TestOmegaPair:
    def test_rejects_equal_slots(self, a1):
        sys = a1_system(a1, [1, 1])
        with pytest.raises(DomainError):
            omega_pair(sys, 1, 1)

    def test_symmetric_in_slots(self, a1):
        sys = a1_system(a1, [1, 2, 1])
        for i, j in itertools.combinations(range(3), 2):
            assert omega_pair(sys, i, j).matrix.equals(omega_pair(sys, j, i).matrix)

    def test_commutes_with_diagonal_action(self, a1):
        sys = a1_system(a1, [1, 1, 2])
        om = omega_pair(sys, 0, 2).matrix.to_dense_rat()
        for lab in a1.basis_labels:
            d = diagonal_action(sys, lab).to_dense_rat()
            from kzmono.numerics import rat_mul

            assert rat_mul(om, d) == rat_mul(d, om)

    def test_eigenvalues_on_two_factors(self, a1):
        # spectrum of the two-site operator on V_1 (x) V_1 is (c_nu - 2 c_1)/2
        sys = a1_system(a1, [1, 1])
        om = omega_pair(sys, 0, 1).matrix.to_complex()
        eig = np.linalg.eigvalsh(om)
        assert np.allclose(eig, [-1.5, 0.5, 0.5, 0.5])

    def test_highest_weight_leading_coefficient(self, a1):
        # on the top pure tensor the Cartan contribution is kappa(l_i, l_j)
        sys = a1_system(a1, [2, 3])
        om = omega_pair(sys, 0, 1).matrix
        top = sys.flat_index((0, 0))
        img = om.apply_dict({top: Fraction(1)})
        from kzmono.liealg import weight_form

        assert img[top] == weight_form(a1, (2,), (3,))

    def test_slot_swap_conjugation(self, a1):
        # permuting two equal factors conjugates the pair operator
        sys = a1_system(a1, [1, 2, 1])
        perm = {}
        for idx in range(sys.dim):
            k = sys.multi_index(idx)
            perm[idx] = sys.flat_index((k[2], k[1], k[0]))
        om02 = omega_pair(sys, 0, 1).matrix.to_dense_rat()
        om20 = omega_pair(sys, 2, 1).matrix.to_dense_rat()
        conj = [[om02[perm[i]][perm[j]] for j in range(sys.dim)] for i in range(sys.dim)]
        assert conj == om20


class TestRestrict:
    def test_singlet_scalar(self, a1):
        sys = a1_system(a1, [1, 1])
        inv = invariant_basis(sys)
        r = restrict(omega_pair(sys, 0, 1), inv)
        assert r == [[Fraction(-3, 2)]]

    def test_zero_dimensional_space(self, a1):
        sys = a1_system(a1, [1, 1, 1])
        inv = invariant_basis(sys)
        assert restrict(omega_pair(sys, 0, 1), inv) == []

    def test_total_casimir_identity(self, a1):
        # sum_{i<j} restricted pairs = -(1/2) sum_i c_i on invariants
        for ms in ([1, 1, 1, 1], [2, 1, 1, 2], [2, 2, 2]):
            sys = a1_system(a1, ms)
            inv = invariant_basis(sys)
            if inv.dim == 0:
                continue
            total = [[Fraction(0)] * inv.dim for _ in range(inv.dim)]
            for i, j in itertools.combinations(range(len(ms)), 2):
                r = restrict(omega_pair(sys, i, j), inv)
                for p in range(inv.dim):
                    for q in range(inv.dim):
                        total[p][q] += r[p][q]
            expect = -sum(casimir_value(a1, (m,)) for m in ms) / 2
            for p in range(inv.dim):
                for q in range(inv.dim):
                    assert total[p][q] == (expect if p == q else 0)

    def test_float_mode_restriction(self, a1):
        sys = a1_system(a1, [1, 1])
        inv = invariant_basis(sys, "float")
        op = omega_pair(sys, 0, 1)
        r = restrict(op, inv)
        assert np.allclose(np.asarray(r, dtype=complex), [[-1.5]])
        assert op.restriction is r

    def test_broken_basis_raises_consistency_error(self, a1):
        from kzmono.errors import ConsistencyError
        from kzmono.invariants import InvariantSpace

        sys = a1_system(a1, [1, 1])
        # a column that is not invariant cannot satisfy op.B = B.R
        fake = InvariantSpace(
            ambient=sys,
            basis=[{0: 1.0, 1: 0.5}],
            free_positions=[],
            mode="float",
        )
        with pytest.raises(ConsistencyError):
            restrict(omega_pair(sys, 0, 1), fake)
