import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kzmono import invariants, numerics
from kzmono.errors import ConsistencyError, DomainError
from kzmono.invariants import (
    InvariantSpace,
    TwoSiteOperator,
    invariant_basis,
    omega_pair,
    raising_rows,
    restrict,
    swap_matrix,
    tensor_system,
)
from kzmono.liealg import build_algebra
from kzmono.numerics import fraction_rows, nullspace_exact_sparse
from kzmono.reps import casimir_value, integer_dual_matrix, integer_rep_matrix, irrep

from oracles import (
    CATALAN, brute_invariant_dim_a1, dense_kernel, flat_index, kernel_fractions,
    kron_operator, multi_index, zero_weight_enumeration,
)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_algebra("A", 2)


def a1_system(a1, ms):
    return tensor_system([irrep(a1, (m,)) for m in ms])


# A1 V1^4, A1 (1, 1, 2) and A2 (1,0), (0,1), (1,1), for the Kronecker oracle
ORACLE_CASES = [
    (1, [(1,)] * 4),
    (1, [(1,), (1,), (2,)]),
    (2, [(1, 0), (0, 1), (1, 1)]),
]


def oracle_system(rank, weights):
    alg = build_algebra("A", rank)
    return alg, tensor_system([irrep(alg, w) for w in weights])


def kron_diagonal(sys, label):
    """sum_slots 1 (x) ... rho_s(label) ... (x) 1 from the Kronecker oracle."""
    return kron_operator(sys.factor_dims, [
        {slot: integer_rep_matrix(rep, label)} for slot, rep in enumerate(sys.factors)
    ])


def dense(op):
    """The ambient matrix of a two-site operator as rows of Fraction, read
    off the compressed columns of ``op.matrix``."""
    m = op.matrix
    rows = [[Fraction(0)] * m.shape[1] for _ in range(m.shape[0])]
    for j, col in m.cols.items():
        for i, v in col.items():
            rows[i][j] = v
    return rows


def scaled_operator(op, scale):
    """``op`` with every entry of its local factor times ``scale``."""
    den, cos, ros, vals = op.local
    local = (den, cos, ros, [v * scale for v in vals])
    return TwoSiteOperator(i=op.i, j=op.j, system=op.system, local=local,
                           sizes=invariants._sizes(local))


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
            multi = multi_index(sys, idx)
            assert flat_index(sys, multi) == idx
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
            cols = [dict(zip(inv.support.tolist(), col)) for col in inv.rows.T.tolist()]
            for lab in alg.basis_labels:
                for row in kron_diagonal(sys, lab):
                    assert not any(sum(row[p] * x for p, x in col.items()) for col in cols)

    def test_a2_triple_product(self, a2):
        w1 = irrep(a2, (1, 0))
        adj = irrep(a2, (1, 1))
        assert invariant_basis(tensor_system([w1, irrep(a2, (0, 1))])).dim == 1
        assert invariant_basis(tensor_system([w1, w1, w1])).dim == 1
        assert invariant_basis(tensor_system([adj, adj, adj])).dim == 2

    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,)] * 6),
        (2, [(1, 0), (0, 1), (1, 0), (0, 1)]),
        (1, [(1,)] * 10),
    ])
    def test_zero_weight_kernel_matches_dense_oracle(self, rank, weights):
        alg = build_algebra("A", rank)
        sys = tensor_system([irrep(alg, w) for w in weights])
        rows, zw = raising_rows(sys)
        assert kernel_fractions(nullspace_exact_sparse(rows, len(zw))) == dense_kernel(rows, len(zw))


class TestRaisingRows:
    @pytest.mark.parametrize("rank,weights", ORACLE_CASES)
    def test_zero_weight_block_matches_kronecker_oracle(self, rank, weights):
        # the rows of each e_i are the nonzero rows of its ambient matrix on
        # the zero-weight columns, times the lcm of its slot denominators
        _, sys = oracle_system(rank, weights)
        rows, zw = raising_rows(sys)
        expect = []
        for i in range(1, rank + 1):
            label = ("e", i, i + 1)
            den = math.lcm(*(integer_rep_matrix(rep, label)[1] for rep in sys.factors))
            for row in kron_diagonal(sys, label):
                block = {p: row[idx] * den for p, idx in enumerate(zw) if row[idx]}
                if block:
                    expect.append(block)
        assert rows == expect
        coroots = [kron_diagonal(sys, ("h", i)) for i in range(1, rank + 1)]
        assert zw == [idx for idx in range(sys.dim) if not any(h[idx][idx] for h in coroots)]


# systems with a repeated irrep, so that pairs of irreps repeat in both
# slot orders
MIXED_CASES = [
    (2, [(1, 0), (0, 1), (1, 1), (1, 0)]),
    (1, [(1,), (2,), (1,), (3,)]),
]


def shared_system(rank, weights):
    """A tensor system whose equal weights share one Irrep, as in kz_system."""
    alg = build_algebra("A", rank)
    built = {w: irrep(alg, w) for w in dict.fromkeys(weights)}
    return alg, tensor_system([built[w] for w in weights])


def direct_factor(alg, sys, i, j):
    """The local factor of Omega_ij built on the ambient strides at once."""
    return invariants._local_factor(sys.strides, [
        {i: integer_rep_matrix(sys.factors[i], label),
         j: integer_dual_matrix(sys.factors[j], a)}
        for a, label in enumerate(alg.basis_labels)
    ])


def assert_same_factor(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:3], want[1:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[3] == want[3]


class TestPairCache:
    @pytest.mark.parametrize("rank,weights", MIXED_CASES)
    def test_cached_factor_matches_direct_build(self, rank, weights):
        alg, sys = shared_system(rank, weights)
        perms = list(itertools.permutations(range(len(weights)), 2))
        for i, j in perms:
            assert_same_factor(omega_pair(sys, i, j).local, direct_factor(alg, sys, i, j))
        # one entry per ordered pair of irreps, built once
        assert len(sys._pairs) == len({(sys.factors[i], sys.factors[j]) for i, j in perms})

    @pytest.mark.parametrize("rank,weights", MIXED_CASES + [(2, [(1, 1)] * 4)])
    def test_cached_sizes_hold_at_every_placement(self, rank, weights):
        # restrict bounds op~.B~ by the row width and max|entry| kept with
        # the pair's factor; placement maps offsets injectively, so the
        # placed factor has the same two numbers in both slot orders
        _, sys = shared_system(rank, weights)
        for i, j in itertools.permutations(range(len(weights)), 2):
            op = omega_pair(sys, i, j)
            assert op.sizes == invariants._sizes(op.local)
            width, wmax = op.sizes
            assert width >= 1 and wmax == max(map(abs, op.local[3]))

    def test_systems_share_no_cache_entry(self, a2):
        reps = [irrep(a2, w) for w in ((1, 0), (0, 1), (1, 1))]
        systems = [tensor_system(reps), tensor_system(reps[::-1])]
        for sys in systems:
            for i, j in itertools.permutations(range(3), 2):
                assert_same_factor(omega_pair(sys, i, j).local, direct_factor(a2, sys, i, j))
        first, second = ({id(f) for f in sys._pairs.values()} for sys in systems)
        assert systems[0]._pairs is not systems[1]._pairs and not first & second

    @pytest.mark.parametrize("rank,weights", MIXED_CASES + [(2, [(1, 1)] * 3)])
    def test_zero_weight_indices_match_enumeration(self, rank, weights):
        _, sys = shared_system(rank, weights)
        assert invariants.zero_weight_indices(sys).tolist() == zero_weight_enumeration(sys)

    @pytest.mark.parametrize("rank,weights", MIXED_CASES)
    def test_diagonal_factors_match_direct_build(self, rank, weights):
        alg, sys = shared_system(rank, weights)
        for label in alg.basis_labels:
            for s, ((slot,), factor) in enumerate(invariants._diagonal_factors(sys, label)):
                direct = invariants._local_factor(
                    sys.strides, [{s: integer_rep_matrix(sys.factors[s], label)}])
                assert slot == s
                assert_same_factor(factor, direct)


class TestOmegaPair:
    def test_rejects_equal_slots(self, a1):
        sys = a1_system(a1, [1, 1])
        with pytest.raises(DomainError):
            omega_pair(sys, 1, 1)

    def test_symmetric_in_slots(self, a1):
        sys = a1_system(a1, [1, 2, 1])
        for i, j in itertools.combinations(range(3), 2):
            assert omega_pair(sys, i, j).matrix.cols == omega_pair(sys, j, i).matrix.cols

    def test_matches_kronecker_reference(self):
        # Omega_ij = sum_ab G^{-1}[b][a] x_a at slot i, x_b at slot j, against
        # np.kron of the factor matrices with identities
        for rank, weights in ORACLE_CASES:
            alg, sys = oracle_system(rank, weights)
            labels = alg.basis_labels
            for i, j in itertools.permutations(range(len(weights)), 2):
                terms = []
                for a, b in itertools.product(range(alg.dim), repeat=2):
                    g = alg.gram_inverse[b][a]
                    if g:
                        num, den = integer_rep_matrix(sys.factors[j], labels[b])
                        terms.append({
                            i: integer_rep_matrix(sys.factors[i], labels[a]),
                            j: (num * g.numerator, den * g.denominator),
                        })
                ref = kron_operator(sys.factor_dims, terms)
                assert dense(omega_pair(sys, i, j)) == ref

    def test_commutes_with_diagonal_action(self, a1):
        sys = a1_system(a1, [1, 1, 2])
        om = dense(omega_pair(sys, 0, 2))
        for lab in a1.basis_labels:
            d = kron_diagonal(sys, lab)
            from kzmono.numerics import rat_mul

            assert rat_mul(om, d) == rat_mul(d, om)

    def test_eigenvalues_on_two_factors(self, a1):
        # spectrum of the two-site operator on V_1 (x) V_1 is (c_nu - 2 c_1)/2
        sys = a1_system(a1, [1, 1])
        om = np.array(dense(omega_pair(sys, 0, 1)), dtype=float)
        eig = np.linalg.eigvalsh(om)
        assert np.allclose(eig, [-1.5, 0.5, 0.5, 0.5])

    def test_highest_weight_leading_coefficient(self, a1):
        # on the top pure tensor the Cartan contribution is kappa(l_i, l_j)
        sys = a1_system(a1, [2, 3])
        om = omega_pair(sys, 0, 1).matrix
        top = flat_index(sys, (0, 0))
        from kzmono.liealg import weight_form

        assert om.cols[top][top] == weight_form(a1, (2,), (3,))

    def test_slot_swap_conjugation(self, a1):
        # permuting two equal factors conjugates the pair operator
        sys = a1_system(a1, [1, 2, 1])
        perm = {}
        for idx in range(sys.dim):
            k = multi_index(sys, idx)
            perm[idx] = flat_index(sys, (k[2], k[1], k[0]))
        om02 = dense(omega_pair(sys, 0, 1))
        om20 = dense(omega_pair(sys, 2, 1))
        conj = [[om02[perm[i]][perm[j]] for j in range(sys.dim)] for i in range(sys.dim)]
        assert conj == om20


class TestRestrict:
    def test_singlet_scalar(self, a1):
        sys = a1_system(a1, [1, 1])
        inv = invariant_basis(sys)
        op = omega_pair(sys, 0, 1)
        assert fraction_rows(*restrict(op, inv)) == [[Fraction(-3, 2)]]

    def test_zero_dimensional_space(self, a1):
        sys = a1_system(a1, [1, 1, 1])
        inv = invariant_basis(sys)
        assert fraction_rows(*restrict(omega_pair(sys, 0, 1), inv)) == []

    def test_total_casimir_identity(self, a1):
        # sum_{i<j} restricted pairs = -(1/2) sum_i c_i on invariants
        for ms in ([1, 1, 1, 1], [2, 1, 1, 2], [2, 2, 2]):
            sys = a1_system(a1, ms)
            inv = invariant_basis(sys)
            if inv.dim == 0:
                continue
            total = [[Fraction(0)] * inv.dim for _ in range(inv.dim)]
            for i, j in itertools.combinations(range(len(ms)), 2):
                r = fraction_rows(*restrict(omega_pair(sys, i, j), inv))
                for p in range(inv.dim):
                    for q in range(inv.dim):
                        total[p][q] += r[p][q]
            expect = -sum(casimir_value(a1, (m,)) for m in ms) / 2
            for p in range(inv.dim):
                for q in range(inv.dim):
                    assert total[p][q] == (expect if p == q else 0)

    def test_exact_basis_off_by_a_third_raises(self, a1):
        from kzmono.errors import ConsistencyError
        from kzmono.invariants import InvariantSpace

        sys = a1_system(a1, [1, 1, 1, 1])
        inv = invariant_basis(sys)
        ops = [omega_pair(sys, i, j) for i, j in itertools.combinations(range(4), 2)]
        for op in ops:
            restrict(op, inv)
        # every entry off the identity block, moved by 1/3, breaks op.B = B.R
        # for some pair; the entry both vectors share breaks it for all. B
        # has L = 1, so the moved basis is 3 B plus 1 at that entry, over 3
        assert inv.den == 1
        for c in range(inv.dim):
            for p in {p for p, v in enumerate(inv.rows[:, c]) if v} - set(inv.free):
                rows = inv.rows * 3
                rows[p, c] += 1
                broken = InvariantSpace(ambient=sys, den=3, support=inv.support,
                                        rows=rows, free=inv.free)
                raised = 0
                for op in ops:
                    try:
                        restrict(op, broken)
                    except ConsistencyError:
                        raised += 1
                shared = all(inv.rows[p])
                assert raised == len(ops) if shared else raised > 0
        # the pure tensor 0001 alone: op.B = B.R holds on the one row B
        # covers, but omega_23 also sends it to 0010, outside that row
        idx = flat_index(sys, (0, 0, 0, 1))
        lone = InvariantSpace(ambient=sys, den=1, support=np.array([idx], dtype=np.intp),
                              rows=np.array([[1]], dtype=object), free=[0])
        with pytest.raises(ConsistencyError):
            restrict(omega_pair(sys, 2, 3), lone)

    def test_broken_basis_raises_consistency_error(self, a1):
        from kzmono.errors import ConsistencyError
        from kzmono.invariants import InvariantSpace

        sys = a1_system(a1, [1, 1])
        # a column that is not invariant, (1, 1/2) on the ambient indices 0
        # and 1, cannot satisfy op.B = B.R, whichever of its positions is
        # taken as free
        for free in ([0], [1]):
            fake = InvariantSpace(
                ambient=sys,
                den=2,
                support=np.array([0, 1], dtype=np.intp),
                rows=np.array([[2], [1]], dtype=object),
                free=free,
            )
            with pytest.raises(ConsistencyError):
                restrict(omega_pair(sys, 0, 1), fake)

    def test_off_by_a_third_raises_on_python_ints(self, a1, monkeypatch):
        # the same broken bases through the Python-int path of the gather
        monkeypatch.setattr(numerics, "INT64_LIMIT", 1)
        self.test_exact_basis_off_by_a_third_raises(a1)


def spy_restrict_dtype(monkeypatch):
    """Record the dtype of the integer matrix S each restrict call brings to
    lowest terms."""
    seen = []
    real = invariants.lowest_terms

    def spy(num, den):
        seen.append(num.dtype)
        return real(num, den)

    monkeypatch.setattr(invariants, "lowest_terms", spy)
    return seen


class TestRestrictPaths:
    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,)] * 4),
        (1, [(1,), (2,), (1,), (2,)]),
        (1, [(0,), (1,), (1,)]),  # trivial slot: an empty local factor
        (2, [(1, 0), (0, 1), (1, 1), (1, 1)]),
        (2, [(0, 0), (1, 1), (1, 1)]),
    ])
    def test_python_ints_give_the_same_rows(self, rank, weights, monkeypatch):
        alg = build_algebra("A", rank)
        sys = tensor_system([irrep(alg, w) for w in weights])
        inv = invariant_basis(sys)
        seen = spy_restrict_dtype(monkeypatch)
        pairs = list(itertools.combinations(range(len(weights)), 2))
        fast = [fraction_rows(*restrict(omega_pair(sys, i, j), inv)) for i, j in pairs]
        monkeypatch.setattr(numerics, "INT64_LIMIT", 1)
        slow = [fraction_rows(*restrict(omega_pair(sys, i, j), inv)) for i, j in pairs]
        assert fast == slow
        assert seen == [np.int64] * len(pairs) + [object] * len(pairs)

    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,)] * 6),
        (2, [(1, 0), (0, 1), (1, 1), (1, 1)]),
    ])
    def test_scatter_in_chunks_gives_the_same_rows(self, rank, weights, monkeypatch):
        # one term per chunk of the scatter, on int64 and on Python ints
        alg = build_algebra("A", rank)
        sys = tensor_system([irrep(alg, w) for w in weights])
        inv = invariant_basis(sys)
        pairs = list(itertools.combinations(range(len(weights)), 2))

        def rows():
            return [fraction_rows(*restrict(omega_pair(sys, i, j), inv)) for i, j in pairs]

        whole = rows()
        monkeypatch.setattr(invariants, "_SCATTER", 1)
        assert rows() == whole
        monkeypatch.setattr(numerics, "INT64_LIMIT", 1)
        assert rows() == whole

    @pytest.mark.parametrize("scale,dtype", [(2**58, np.int64), (2**59, object)])
    def test_scaled_operator_crosses_the_bound(self, a1, scale, dtype, monkeypatch):
        # V1^4: L = 1, k = 2, max|B~| = 1, and every local factor has D = 2,
        # at most 2 entries a row and max|Omega~| = 2, so the bound is
        # max(1, 2) * 2 * 2 * 1 * scale = 8 * scale: 2^61 runs on int64,
        # 2^62 on Python ints
        sys = a1_system(a1, [1, 1, 1, 1])
        inv = invariant_basis(sys)
        seen = spy_restrict_dtype(monkeypatch)
        for i, j in itertools.combinations(range(4), 2):
            op = omega_pair(sys, i, j)
            big = scaled_operator(op, scale)
            assert fraction_rows(*restrict(big, inv)) == [
                [x * scale for x in row] for row in fraction_rows(*restrict(op, inv))
            ]
        assert seen == [dtype, np.int64] * 6

    @pytest.mark.parametrize("scale,tier", [(2**50 - 1, np.float64), (2**50 + 1, np.int64)])
    def test_scaled_operator_crosses_2_53(self, a1, scale, tier, monkeypatch):
        # the bound of test_scaled_operator_crosses_the_bound, 8 * scale, is
        # 2^53 - 8 or 2^53 + 8: the certificate B~.S runs on float64 below
        # 2^53 and on int64 above, and both give the rows Python ints give
        sys = a1_system(a1, [1, 1, 1, 1])
        inv = invariant_basis(sys)
        tiers = []
        real = invariants.product_dtype

        def spy(bound):
            tiers.append(real(bound))
            return tiers[-1]

        def scaled(i, j):
            return scaled_operator(omega_pair(sys, i, j), scale)

        monkeypatch.setattr(invariants, "product_dtype", spy)
        pairs = list(itertools.combinations(range(4), 2))
        fast = [fraction_rows(*restrict(scaled(i, j), inv)) for i, j in pairs]
        assert tiers == [tier] * len(pairs)
        monkeypatch.setattr(numerics, "INT64_LIMIT", 1)
        assert [fraction_rows(*restrict(scaled(i, j), inv)) for i, j in pairs] == fast
        assert tiers[len(pairs):] == [object] * len(pairs)

    @pytest.mark.parametrize("scale", [2**20, 2**40])
    def test_scaled_basis_raises_on_both_paths(self, a1, scale, monkeypatch):
        # 2^20 B (bound 2^43, int64) and 2^40 B (bound 2^83, Python ints)
        # span the invariants but carry scale, not 1, at the free positions,
        # so op.B = B.R fails for every pair
        sys = a1_system(a1, [1, 1, 1, 1])
        inv = invariant_basis(sys)
        assert inv.den == 1
        scaled = InvariantSpace(ambient=sys, den=1, support=inv.support,
                                rows=inv.rows * scale, free=inv.free)
        for limit in (numerics.INT64_LIMIT, 1):
            monkeypatch.setattr(numerics, "INT64_LIMIT", limit)
            for i, j in itertools.combinations(range(4), 2):
                with pytest.raises(ConsistencyError):
                    restrict(omega_pair(sys, i, j), scaled)


class TestSwapMatrix:
    """T_s = L T with P_s.B = B.T for the swap s of two slots of one irrep."""

    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,)] * 6),
        (1, [(2,), (1,), (2,), (1,)]),
        (2, [(1, 0), (0, 1), (1, 0), (0, 1)]),
    ])
    def test_swap_against_dense_digit_permutation(self, rank, weights):
        # P_s applied to the dense B by swapping the digits of multi-indices
        alg = build_algebra("A", rank)
        built = {w: irrep(alg, w) for w in weights}
        sys = tensor_system([built[w] for w in weights])
        inv = invariant_basis(sys)
        assert inv.dim > 0
        dense = np.zeros((sys.dim, inv.dim), dtype=object)
        dense[inv.support] = inv.rows
        for a, b in itertools.combinations(range(len(weights)), 2):
            if weights[a] != weights[b]:
                continue
            t, den = swap_matrix(inv, a, b)
            assert den == inv.den
            moved = np.zeros_like(dense)
            for idx in range(sys.dim):
                digits = list(multi_index(sys, idx))
                digits[a], digits[b] = digits[b], digits[a]
                moved[idx] = dense[flat_index(sys, digits)]
            # P_s B = B T with B = dense / L and T = t / L
            assert (moved * den == dense @ t.astype(object)).all()
            assert (t.astype(object) @ t.astype(object) == den * den * np.identity(
                inv.dim, dtype=int)).all()

    @pytest.mark.parametrize("limit", [None, 1])
    def test_corrupted_row_raises(self, a1, limit, monkeypatch):
        # every row of B~ moved by 1 in one column breaks P_s.B = B.T for
        # some swap, on int64 and on Python ints
        if limit:
            monkeypatch.setattr(numerics, "INT64_LIMIT", limit)
        sys = a1_system(a1, [1, 1, 1, 1])
        inv = invariant_basis(sys)
        for p, c in itertools.product(range(len(inv.support)), range(inv.dim)):
            rows = inv.rows.copy()
            rows[p, c] += 1
            broken = InvariantSpace(ambient=sys, den=inv.den, support=inv.support,
                                    rows=rows, free=inv.free)
            raised = 0
            for a, b in itertools.combinations(range(4), 2):
                try:
                    swap_matrix(broken, a, b)
                except ConsistencyError:
                    raised += 1
            assert raised, (p, c)

    def test_support_not_closed_raises(self, a1):
        # the pure tensor 0001 alone: the swap of slots 3 and 4 moves it to
        # 0010, outside the support
        sys = a1_system(a1, [1, 1, 1, 1])
        lone = InvariantSpace(ambient=sys, den=1,
                              support=np.array([flat_index(sys, (0, 0, 0, 1))], dtype=np.intp),
                              rows=np.array([[1]], dtype=object), free=[0])
        with pytest.raises(ConsistencyError):
            swap_matrix(lone, 2, 3)
        assert swap_matrix(lone, 0, 1)[0].tolist() == [[1]]

    def test_different_irreps_rejected(self, a1):
        sys = a1_system(a1, [1, 2, 1])
        with pytest.raises(DomainError):
            swap_matrix(invariant_basis(sys), 0, 1)

    def test_zero_dimensional(self, a1):
        t, den = swap_matrix(invariant_basis(a1_system(a1, [1, 1, 1])), 0, 1)
        assert t.shape == (0, 0) and den == 1
