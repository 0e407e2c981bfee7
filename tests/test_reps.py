import dataclasses
import itertools
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

import kzmono.reps as reps
import kzmono.sugawara as sugawara
from kzmono.errors import ConsistencyError, DomainError
from kzmono.invariants import tensor_system
from kzmono.liealg import build_algebra
from kzmono.numerics import (
    combine, concat, exact_rank, fraction_rows, gram_select, rat_mul, rat_zeros,
)
from kzmono.reps import (
    casimir,
    casimir_value,
    integer_dual_matrix,
    integer_rep_matrix,
    irrep,
    rep_matrix,
    tensor_decompose,
    weight_multiset,
    weyl_dimension,
)

from oracles import (
    freudenthal_multiplicities, integer_rows, peeled_decomposition, rat_add, rat_sub,
)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_algebra("A", 2)


def commutation_holds(alg, rep):
    """[e_i, f_j] = d_ij h_i and [h_i, e_j] = a_ij e_j, entrywise exact."""
    r = alg.rank
    raising = [rep_matrix(rep, ("e", i, i + 1)) for i in range(1, r + 1)]
    for i in range(r):
        for j in range(r):
            f = rep_matrix(rep, ("f", j + 1, j + 2))
            h_i = rep_matrix(rep, ("h", i + 1))
            e_j = raising[j]
            comm = rat_sub(rat_mul(raising[i], f), rat_mul(f, raising[i]))
            expect = (
                h_i if i == j else rat_zeros(rep.dim, rep.dim)
            )
            if comm != expect:
                return False
            comm2 = rat_sub(rat_mul(h_i, e_j), rat_mul(e_j, h_i))
            scaled = [
                [Fraction(alg.cartan_matrix[i][j]) * x for x in row] for row in e_j
            ]
            if comm2 != scaled:
                return False
    return True


class TestConstruction:
    def test_defining_rep_a1(self, a1):
        rep = irrep(a1, (1,))
        assert rep.dim == 2
        assert rep.cartan_diagonal[0] == [1, -1]

    def test_three_dim_weight_string(self, a1):
        rep = irrep(a1, (2,))
        assert rep.dim == 3
        assert rep.cartan_diagonal[0] == [2, 0, -2]

    def test_adjoint_a2_dim(self, a2):
        assert irrep(a2, (1, 1)).dim == weyl_dimension(a2, (1, 1)) == 8

    def test_dims_match_weyl_formula(self, a1, a2):
        for m in range(9):
            assert irrep(a1, (m,)).dim == weyl_dimension(a1, (m,)) == m + 1
        for lam in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (0, 3)]:
            assert irrep(a2, lam).dim == weyl_dimension(a2, lam)
        a3 = build_algebra("A", 3)
        for lam in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)]:
            assert irrep(a3, lam).dim == weyl_dimension(a3, lam)

    def test_weyl_dimension_pinned(self):
        a3, a4 = build_algebra("A", 3), build_algebra("A", 4)
        assert weyl_dimension(a3, (1, 0, 1)) == 15
        assert weyl_dimension(a4, (1, 0, 0, 1)) == 24
        assert weyl_dimension(a3, (3, 3, 3)) == 4096

    def test_rejects_non_dominant(self, a1):
        with pytest.raises(DomainError):
            irrep(a1, (-1,))
        with pytest.raises(DomainError):
            irrep(a1, (1, 1))

    def test_commutation_relations(self, a1, a2):
        rng = random.Random(19)
        for _ in range(4):
            m = rng.randint(0, 8)
            assert commutation_holds(a1, irrep(a1, (m,)))
        for lam in [(1, 0), (1, 1), (2, 1)]:
            assert commutation_holds(a2, irrep(a2, lam))

    def test_raising_shifts_weights(self, a2):
        rep = irrep(a2, (1, 1))
        for i in range(2):
            alpha = tuple(a2.cartan_matrix[r][i] for r in range(2))
            em = rep_matrix(rep, ("e", i + 1, i + 2))
            for col in range(rep.dim):
                for row in range(rep.dim):
                    if em[row][col]:
                        wc = rep.weight_of_basis_vector[col]
                        wr = rep.weight_of_basis_vector[row]
                        assert wr == tuple(w + a for w, a in zip(wc, alpha))


class TestContravariance:
    @pytest.mark.parametrize("rank, weight", [(1, (m,)) for m in range(7)] + [
        (2, (1, 0)), (2, (1, 1)), (2, (2, 1)), (2, (3, 3)), (3, (1, 0, 1)),
    ])
    def test_gram_is_contravariant(self, rank, weight):
        # <f_i u, v> = <u, e_i v> for the block-diagonal Gram G: G F_i = E_i^T G,
        # and every weight block of G is nonsingular
        alg = build_algebra("A", rank)
        rep = irrep(alg, weight)
        assert rep.dim == weyl_dimension(alg, weight)
        g = rat_zeros(rep.dim, rep.dim)
        for w, idxs in rep.basis_by_weight.items():
            block = fraction_rows(*rep.integer_grams[w])
            rows = integer_rows([{c: x for c, x in enumerate(row) if x} for row in block])
            assert exact_rank(rows, len(idxs)) == len(idxs)
            for a, p in enumerate(idxs):
                for b, q in enumerate(idxs):
                    g[p][q] = block[a][b]
        for i in range(1, rank + 1):
            f, e = (rep_matrix(rep, (kind, i, i + 1)) for kind in "fe")
            e_t = [list(col) for col in zip(*e)]
            assert rat_mul(g, f) == rat_mul(e_t, g)

    def test_spanning_order_is_pinned(self, a2):
        # a weight's basis is the leftmost independent part of the f_i.V_nu,
        # nu = mu + alpha_i ascending; that order fixes every exact output
        rep = irrep(a2, (1, 1))
        z = rep.basis_by_weight[(0, 0)]
        assert fraction_rows(*rep.integer_grams[(0, 0)]) == [[2, 1], [1, 2]]
        assert [[rep_matrix(rep, ("e", i + 1, i + 2))[a][b] for b in z]
                for i, a in ((0, 2), (1, 1))] == [[1, 2], [2, 1]]
        assert fraction_rows(*irrep(a2, (2, 1)).integer_grams[(1, 0)]) == [[4, 2], [2, 3]]

    @pytest.mark.parametrize("rank, weight", [(1, (1,)), (2, (1, 1))])
    def test_bad_quotient_raises(self, monkeypatch, rank, weight):
        # a quotient that keeps every spanning vector grows the Verma module,
        # which never ends; the Weyl dimension bounds it
        def keep_all(gram):
            s = len(gram)
            return list(range(s)), (np.eye(s, dtype=object), 1)

        def hung(signum, frame):
            raise TimeoutError("irrep did not stop")

        monkeypatch.setattr(reps, "gram_select", keep_all)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            start = time.perf_counter()
            with pytest.raises(ConsistencyError, match="Weyl dimension"):
                irrep(build_algebra("A", rank), weight)
            assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCharacters:
    def test_weights_match_freudenthal(self, a1, a2):
        for alg, lam in [
            (a1, (3,)),
            (a1, (5,)),
            (a2, (1, 1)),
            (a2, (2, 0)),
            (a2, (2, 1)),
        ]:
            rep = irrep(alg, lam)
            oracle = freudenthal_multiplicities(alg.cartan_matrix, lam)
            assert weight_multiset(rep) == oracle


class TestCasimir:
    def test_frozen_a1_values(self, a1):
        assert casimir(irrep(a1, (1,))).eigenvalue == Fraction(3, 2)
        assert casimir(irrep(a1, (2,))).eigenvalue == 4

    def test_trivial_rep(self, a1):
        rep = casimir(irrep(a1, (0,)))
        assert rep.eigenvalue == 0 and rep.is_scalar and rep.deviation == 0

    def test_scalar_exact_a1(self, a1):
        for m in range(9):
            rep = casimir(irrep(a1, (m,)))
            assert rep.is_scalar and rep.deviation == 0
            assert rep.eigenvalue == Fraction(m * (m + 2), 2)

    def test_scalar_exact_a2_small(self, a2):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
            if weyl_dimension(a2, lam) <= 15:
                rep = casimir(irrep(a2, lam))
                assert rep.is_scalar and rep.deviation == 0
                assert rep.eigenvalue == casimir_value(a2, lam)

    def test_commutes_with_generators(self, a1):
        rep = irrep(a1, (3,))
        alg = a1
        from kzmono.liealg import dual_pairs

        total = rat_zeros(rep.dim, rep.dim)
        for a, dual in dual_pairs(alg):
            ma = rep_matrix(rep, alg.basis_labels[a])
            md = rat_zeros(rep.dim, rep.dim)
            for b, coeff in dual.items():
                mb = rep_matrix(rep, alg.basis_labels[b])
                md = rat_add(md, [[coeff * x for x in row] for row in mb])
            total = rat_add(total, rat_mul(md, ma))
        for lab in alg.basis_labels:
            g = rep_matrix(rep, lab)
            assert rat_mul(total, g) == rat_mul(g, total)


class TestRepMatrix:
    def test_bad_labels_rejected(self, a1, a2):
        # ("h", 0) used to read h_r through index -1, and ("e", 2, 1),
        # ("f", 1, 4) and ("h", 3) raised IndexError
        for alg, label in [(a1, ("h", 0)), (a2, ("h", 0)), (a2, ("e", 2, 1)),
                           (a2, ("f", 1, 4)), (a2, ("h", 3)), (a2, ("x", 1, 2))]:
            rep = irrep(alg, (1,) * alg.rank)
            for matrix in (rep_matrix, integer_rep_matrix):
                with pytest.raises(DomainError, match="no basis element"):
                    matrix(rep, label)

    def test_long_root_vectors_are_commutators(self):
        a3 = build_algebra("A", 3)
        rep = irrep(a3, (1, 0, 1))
        e = {j: rep_matrix(rep, ("e", 1, j)) for j in (2, 3, 4)}
        f = {j: rep_matrix(rep, ("f", 1, j)) for j in (2, 3, 4)}
        e34, f34 = rep_matrix(rep, ("e", 3, 4)), rep_matrix(rep, ("f", 3, 4))
        assert e[4] == rat_sub(rat_mul(e[3], e34), rat_mul(e34, e[3]))
        assert f[4] == rat_sub(rat_mul(f34, f[3]), rat_mul(f[3], f34))
        assert all(type(x) is Fraction for m in (e[4], f[4]) for row in m for x in row)


class TestModuleCache:
    """An irrep is a constant of its algebra object: built once, shared,
    and read-only."""

    @pytest.mark.parametrize("rank,weights", [
        (1, [(0,), (1,), (3,)]),
        (2, [(1, 0), (0, 1), (1, 1), (2, 1)]),
    ])
    def test_one_module_per_algebra_and_weight(self, rank, weights):
        alg = build_algebra("A", rank)
        for w in weights:
            rep = irrep(alg, w)
            assert irrep(alg, w) is rep and irrep(alg, list(w)) is rep
        assert len({id(irrep(alg, w)) for w in weights}) == len(weights)

    def test_algebras_share_no_module(self):
        a, b = build_algebra("A", 2), build_algebra("A", 2)
        va, vb = irrep(a, (1, 0)), irrep(b, (1, 0))
        assert va is not vb and va.algebra is a and vb.algebra is b
        with pytest.raises(DomainError, match="same algebra"):
            tensor_system([va, vb])
        # a replaced algebra is another object and starts an empty cache
        c = dataclasses.replace(a)
        assert irrep(c, (1, 0)) is not va and irrep(c, (1, 0)).algebra is c

    def test_weight_is_checked_before_the_lookup(self):
        # (1.0,) == (1,) and hashes alike, so a cached V_1 must not answer it
        alg = build_algebra("A", 1)
        irrep(alg, (1,))
        for bad in [(1.0,), (-1,), (1, 0)]:
            with pytest.raises(DomainError):
                irrep(alg, bad)

    @pytest.mark.parametrize("rank,weight", [(1, (2,)), (2, (1, 1)), (3, (1, 0, 1))])
    def test_handed_out_matrices_are_read_only(self, rank, weight):
        alg = build_algebra("A", rank)
        rep = irrep(alg, weight)
        held = [integer_rep_matrix(rep, lab) for lab in alg.basis_labels]
        held += [integer_dual_matrix(rep, a) for a in range(alg.dim)]
        held += list(rep.integer_grams.values())
        for num, _ in held:
            with pytest.raises(ValueError, match="read-only"):
                num[(0,) * num.ndim] = 7
        # the shared module is unchanged, and a later call gets it again
        assert irrep(alg, weight) is rep
        assert all(integer_rep_matrix(rep, lab) is m for lab, m in zip(alg.basis_labels, held))

    def test_build_runs_once_per_algebra(self, monkeypatch):
        # patched on a fresh algebra: a module already in a shared
        # algebra's cache would never reach the patched step
        steps = []
        real = reps.quotient_step
        monkeypatch.setattr(reps, "quotient_step", lambda blocks: steps.append(1) or real(blocks))
        alg = build_algebra("A", 2)
        irrep(alg, (1, 1))
        built = len(steps)
        assert built > 0
        irrep(alg, (1, 1))
        assert len(steps) == built
        irrep(build_algebra("A", 2), (1, 1))
        assert len(steps) == 2 * built


class TestTensorDecompose:
    def test_weights_built_once_per_weight(self, monkeypatch):
        tensor_decompose(build_algebra("A", 2), (2, 0), (1, 1))
        built = []
        monkeypatch.setattr(reps, "irrep", lambda alg, w: built.append(w))
        # the multisets are constants of (series, rank, weight), shared
        # across algebra objects and calls
        dec = tensor_decompose(build_algebra("A", 2), (2, 0), (1, 1))
        assert built == []
        assert sum(weyl_dimension(build_algebra("A", 2), nu) * k for nu, k in dec.items()) == 48

    def test_bad_weights_rejected(self, a1):
        # the multisets are built outside any algebra's cache, and their
        # weights are checked as irrep checks them
        for bad in [(-1,), (1.5,), (1, 2)]:
            with pytest.raises(DomainError, match="highest weight"):
                tensor_decompose(a1, bad, (1,))

    def test_a1_clebsch_gordan(self, a1):
        assert tensor_decompose(a1, (1,), (1,)) == {(2,): 1, (0,): 1}
        assert tensor_decompose(a1, (2,), (1,)) == {(3,): 1, (1,): 1}
        assert tensor_decompose(a1, (2,), (2,)) == {(4,): 1, (2,): 1, (0,): 1}

    def test_a2_adjoint_square(self, a2):
        dec = tensor_decompose(a2, (1, 1), (1, 1))
        assert dec[(0, 0)] == 1 and dec[(1, 1)] == 2
        assert sum(weyl_dimension(a2, nu) * k for nu, k in dec.items()) == 64

    def test_matches_freudenthal_peel(self):
        # every A1 pair with labels <= 7, and samples of the A2 pairs with
        # labels <= 2 and the A3 pairs with labels <= 1, whose oracle peels
        # take up to 0.2 s and 1.1 s a pair
        a2_pairs = list(itertools.product(itertools.product(range(3), repeat=2), repeat=2))
        cases = [(1, (a,), (b,)) for a in range(8) for b in range(8)]
        cases += [(2, lam, mu) for lam, mu in random.Random(5).sample(a2_pairs, 10)]
        cases += [(2, (1, 1), (1, 1)), (2, (2, 1), (1, 2))]
        cases += [(3, (1, 0, 0), (0, 0, 1)), (3, (0, 1, 0), (0, 1, 0)),
                  (3, (1, 0, 0), (1, 1, 0)), (3, (0, 0, 1), (1, 0, 1))]
        for rank, lam, mu in cases:
            alg = build_algebra("A", rank)
            assert tensor_decompose(alg, lam, mu) == peeled_decomposition(
                alg.cartan_matrix, lam, mu), (lam, mu)

    def test_builds_only_the_second_factor(self, monkeypatch):
        # the components come from V_mu's weights by reflection; neither
        # V_lam nor any component is built
        built, real = [], reps.build_irrep
        monkeypatch.setattr(reps, "build_irrep", lambda alg, w: built.append(w) or real(alg, w))
        reps._weights_of.cache_clear()
        dec = tensor_decompose(build_algebra("A", 2), (2, 0), (1, 1))
        assert built == [(1, 1)]
        assert dec == {(3, 1): 1, (1, 2): 1, (2, 0): 1, (0, 1): 1}

    @pytest.mark.parametrize("lam, weights", [
        # V_1 without its lowest weight: the dimensions do not add up
        ((1,), (((1,), 1),)),
        # they add up, to 4 - 2, but V_1 comes with multiplicity -1
        ((0,), (((3,), 1), ((-3,), 1))),
    ], ids=["dimension", "negative"])
    def test_corrupt_multiset_fails_certificate(self, monkeypatch, a1, lam, weights):
        monkeypatch.setattr(reps, "_weights_of", lambda series, rank, weight: weights)
        with pytest.raises(ConsistencyError, match="does not decompose"):
            tensor_decompose(a1, lam, (1,))


class TestQuotientStep:
    def test_columns_select_as_their_gram(self, monkeypatch):
        # every parent Gram G is nonsingular, so the stacked raising columns
        # M and the Gram rows G.M have one row space and one RREF: the
        # selection, the expansions and the kept Gram equal those of
        # gram_select on G.M, at every weight block of the irreps up to
        # A2 (2, 2) and at every degree of the (1, 1, 5) and (2, 2, 5)
        # truncations
        real, steps = reps.quotient_step, []

        def oracle(blocks):
            selected, gram, tables = real(blocks)
            num, den = concat([
                combine([(1, (g, m))], (len(g[0]), m[0].shape[1])) for g, m in blocks
            ], axis=0)
            want, (exp_n, exp_d) = gram_select([dict(enumerate(row)) for row in num.tolist()])
            assert selected == want
            assert gram[1] == den and gram[0].tolist() == num[np.ix_(want, want)].tolist()
            lo = 0
            for (g, _), (tab_n, tab_d) in zip(blocks, tables):
                hi = lo + len(g[0])
                assert tab_d == exp_d and tab_n.tolist() == exp_n[lo:hi].T.tolist()
                lo = hi
            steps.append(len(selected))
            return selected, gram, tables

        monkeypatch.setattr(reps, "quotient_step", oracle)
        monkeypatch.setattr(sugawara, "quotient_step", oracle)
        a1, a2 = build_algebra("A", 1), build_algebra("A", 2)
        dims = [irrep(a1, (m,)).dim for m in range(5)]
        dims += [irrep(a2, (a, b)).dim for a in range(3) for b in range(3)]
        assert dims == [1, 2, 3, 4, 5, 1, 3, 6, 3, 8, 15, 6, 15, 27]
        # each basis vector below the top is kept at one step
        assert sum(steps) == sum(d - 1 for d in dims) and len(steps) > len(dims)
        for level, m, graded in ((1, 1, [2, 2, 6, 8, 14, 20]), (2, 2, [3, 4, 12, 21, 43, 69])):
            mod = sugawara.truncated_module(level, m, 5, depth_guard=5)
            assert mod.graded_dims == graded
            # degree 0 is the irrep V_m, grown through the same step first
            assert steps[-5:] == graded[1:]
