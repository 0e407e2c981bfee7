"""Tensor products, their invariant subspaces, and two-site Casimir operators.

The space of invariant functionals on V_1 (x) ... (x) V_n is realized as the
space of invariant *vectors* of the tensor product, paired against the
ambient coordinate basis; this fixes all sign conventions once. Invariant
vectors are exactly the zero-weight vectors killed by every raising
generator, so the exact kernel computation runs on the zero-weight block
only. Two-site operators are assembled through dual bases of the invariant
form, which gives the same operator as the orthonormal-basis sum with purely
rational arithmetic.

An operator that acts on a few slots and by the identity on the others is
kept as its local factor: for Omega_ij the matrix of
sum_a rho_i(J^a) (x) rho_j(J_a) on V_i (x) V_j, with its row and column
indices written as offsets in ambient strides. One ambient column is then the
local column its slot digits select, shifted by the offset of the remaining
digits, so the exact paths apply an operator to the ambient columns they
need without building it; the ambient sparse matrix is only built when
asked for. A local factor is built from the (N, D) matrices of
:func:`kzmono.reps.integer_rep_matrix` and held as Python integers over one
denominator, so the kernel rows, the restriction and its certificate
Omega.B = B.R, an integer identity, all run on integers. The restriction
forms Omega.B in one vectorised gather of the factor's entries over the
ambient indices B touches, on int64 when a bound computed beforehand shows
that no entry or partial sum can reach 2^62, and on Python ints otherwise.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .numerics import (
    INT64_LIMIT, SparseOperator, fraction_rows, max_abs, np, nullspace_exact_sparse,
)
from .reps import integer_dual_matrix, integer_rep_matrix


@dataclass(eq=False)
class TensorSystem:
    factors: list
    dim: int
    factor_dims: list
    strides: list

    def multi_index(self, idx):
        out = []
        for d, s in zip(self.factor_dims, self.strides):
            out.append((idx // s) % d)
        return tuple(out)

    def flat_index(self, multi):
        return sum(k * s for k, s in zip(multi, self.strides))


@dataclass(eq=False)
class InvariantSpace:
    ambient: TensorSystem
    basis: list            # columns as {ambient_index: Fraction}
    free_positions: list   # ambient indices carrying the identity block

    @property
    def dim(self):
        return len(self.basis)

    @functools.cached_property
    def integer_rows(self):
        """(L, support, rows, free): L is the lcm of the basis denominators,
        ``support`` the ambient indices the basis touches, in increasing
        order, ``rows`` the matching rows of L.B as an object array of
        Python ints, and ``free`` the positions of the free positions in
        ``support``."""
        den = math.lcm(*(v.denominator for col in self.basis for v in col.values()))
        support = sorted(set().union(*self.basis))
        at = {idx: p for p, idx in enumerate(support)}
        rows = np.zeros((len(support), self.dim), dtype=object)
        for c, col in enumerate(self.basis):
            for idx, v in col.items():
                rows[at[idx], c] = v.numerator * (den // v.denominator)
        support = np.array(support, dtype=np.intp)
        return den, support, rows, [at[idx] for idx in self.free_positions]


@dataclass(eq=False)
class TwoSiteOperator:
    i: int
    j: int
    system: TensorSystem
    local: tuple                 # local two-slot factor, see _local_factor
    restriction: object = None   # dense matrix, attached by restrict()

    @functools.cached_property
    def matrix(self):
        """The ambient operator as a SparseOperator, built on first use."""
        return _ambient(self.system, [((self.i, self.j), self.local)])


def tensor_system(reps):
    if not reps:
        raise DomainError("a tensor system needs at least one factor")
    alg = reps[0].algebra
    for rep in reps[1:]:
        if rep.algebra is not alg:
            raise DomainError("all factors must live over the same algebra")
    dims = [rep.dim for rep in reps]
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    return TensorSystem(factors=list(reps), dim=acc, factor_dims=dims, strides=strides)


def _local_factor(sys, terms):
    """Local factor of sum over ``terms`` of the operator acting by
    ``mats[slot]``, an (N, D) pair, in each slot of a term and by the
    identity elsewhere.

    Returned as (D, {column offset: [(row offset, integer)]}): the factor is
    those integers over D, and an offset is sum_s k_s * stride_s over the
    slots s the factor acts on.
    """
    parts = []
    for mats in terms:
        local, den = [(0, 0, 1)], 1
        for slot, (num, d) in mats.items():
            st = sys.strides[slot]
            nnz = [
                (st * r, st * c, v)
                for r, row in enumerate(num.tolist())
                for c, v in enumerate(row)
                if v
            ]
            local = [(ro + r, co + c, w * v) for ro, co, w in local for r, c, v in nnz]
            den *= d
        parts.append((den, local))
    den = math.lcm(*(d for d, _ in parts))
    acc = {}
    for d, local in parts:
        for ro, co, v in local:
            col = acc.setdefault(co, {})
            col[ro] = col.get(ro, 0) + v * (den // d)
    return den, {
        co: [(ro, v) for ro, v in col.items() if v]
        for co, col in acc.items()
        if any(col.values())
    }


def _slot_column(sys, slots, local, idx):
    """Ambient column ``idx`` of the operator whose local factor on ``slots``
    has the columns ``local``, as [(row, value)]."""
    co = sum(idx // sys.strides[s] % sys.factor_dims[s] * sys.strides[s] for s in slots)
    base = idx - co
    return [(base + ro, v) for ro, v in local.get(co, ())]


def _ambient(sys, factors):
    """Ambient SparseOperator of a sum of local factors, [(slots, factor)]."""
    entries = (
        (r, idx, Fraction(v, den))
        for idx in range(sys.dim)
        for slots, (den, local) in factors
        for r, v in _slot_column(sys, slots, local, idx)
    )
    return SparseOperator((sys.dim, sys.dim), entries)


def _diagonal_factors(sys, label):
    """One local factor per slot of sum_slots 1 (x) ... rho_s(label) ... (x) 1."""
    return [
        ((slot,), _local_factor(sys, [{slot: integer_rep_matrix(rep, label)}]))
        for slot, rep in enumerate(sys.factors)
    ]


def diagonal_action(sys, label):
    """Sparse operator of sum_slots 1 (x) ... rho_s(label) ... (x) 1."""
    return _ambient(sys, _diagonal_factors(sys, label))


def omega_pair(sys, i, j):
    """The two-site Casimir sum_a rho_i(J^a) rho_j(J^a), assembled through
    dual bases so it stays exactly rational. Only its local factor on
    V_i (x) V_j is built here; ``.matrix`` gives the ambient operator."""
    n = len(sys.factors)
    if i == j:
        raise DomainError("the two-site operator is defined for distinct slots only")
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"slot indices out of range for an {n}-factor system")
    alg = sys.factors[0].algebra
    vi, vj = sys.factors[i], sys.factors[j]
    local = _local_factor(sys, [
        {i: integer_rep_matrix(vi, label), j: integer_dual_matrix(vj, a)}
        for a, label in enumerate(alg.basis_labels)
    ])
    return TwoSiteOperator(i=i, j=j, system=sys, local=local)


def zero_weight_indices(sys):
    """Ambient indices of weight zero, in increasing order."""
    zero = (0,) * sys.factors[0].algebra.rank
    weights = itertools.product(*(rep.weight_of_basis_vector for rep in sys.factors))
    return [
        idx for idx, combo in enumerate(weights)
        if tuple(map(sum, zip(*combo))) == zero
    ]


def raising_rows(sys):
    """The zero-weight block of the stacked simple raising actions.

    Returns (rows, zw): one sparse row {position in zw: integer} per
    (generator, target index), in that order, and the zero-weight indices
    zw. A generator's rows are its exact ones times the common denominator
    of its slot factors, so the kernel of the rows is the space of
    invariant vectors. Only the zero-weight columns of each e_i are built.
    """
    zw = zero_weight_indices(sys)
    rows = {}
    for i in range(1, sys.factors[0].algebra.rank + 1):
        factors = _diagonal_factors(sys, ("e", i, i + 1))
        den = math.lcm(*(d for _, (d, _) in factors))
        for p, idx in enumerate(zw):
            for slots, (d, local) in factors:
                for tgt, v in _slot_column(sys, slots, local, idx):
                    row = rows.setdefault((i, tgt), {})
                    row[p] = row.get(p, 0) + v * (den // d)
    return [{p: v for p, v in rows[k].items() if v} for k in sorted(rows)], zw


def invariant_basis(sys):
    """Basis of the invariant vectors of the tensor product, exact.

    Invariants are the zero-weight vectors annihilated by every raising
    generator, so only a zero-weight block of each e_i action enters the
    kernel, which fraction-free sparse elimination computes. Each basis
    vector carries 1 at its own free position and 0 at the others.
    """
    row_list, zw = raising_rows(sys)
    cols, free = nullspace_exact_sparse(row_list, len(zw))
    return InvariantSpace(
        ambient=sys,
        basis=[{zw[p]: v for p, v in col.items()} for col in cols],
        free_positions=[zw[p] for p in free],
    )


def _factor_arrays(local):
    """The entries of a local factor's columns, {column offset: [(row
    offset, value)]}, as three lists (column offsets, row offsets, values)
    sorted by column offset."""
    cos, ros, vals = [], [], []
    for co in sorted(local):
        for ro, v in local[co]:
            cos.append(co)
            ros.append(ro)
            vals.append(v)
    return cos, ros, vals


def restrict(op, inv):
    """Restriction R of a two-site operator to invariant coordinates, exact.

    Exactness contract: op.B = B.R with B the invariant basis, and a failure
    of this identity raises ConsistencyError (it means the basis is
    broken). R is read off the free rows of op.B, in integers: with L the
    lcm of the denominators of B and D that of op's local factor,
    B~ = L B and the local integers op~ = D op give op~.B~ = D L op.B. So
    S = (op~.B~)[free] = D L R, and the identity holds exactly when
    L (op~.B~) == B~.S on the rows B touches and op~.B~ vanishes on every
    other row.

    op~.B~ is one gather over the ambient indices B touches: each index
    selects, by ``searchsorted`` on the sorted column offsets of the local
    factor, the entries of its column, and ``np.add.at`` sums their
    products with the rows of B~ into the target rows. Every entry of
    op~.B~ and of its partial sums is at most m |op~| |B~|, with m the most
    entries in a row of the local factor, and every entry of L (op~.B~)
    and of B~.S (and of the partial sums of B~.S) at most
    max(L, k |B~|) m |op~| |B~| for k = dim B. When that bound is below
    2^62, so that their difference stays below 2^63, this runs on int64;
    otherwise the same code runs on Python ints.
    An empty local factor (a trivial slot) counts as m = |op~| = 1.
    """
    if op.system is not inv.ambient:
        raise DomainError("operator and invariant space live on different systems")
    r = []
    if inv.dim:
        sys = op.system
        den_b, support, bt, free = inv.integer_rows
        den_w, local = op.local
        cos, ros, vals = _factor_arrays(local)
        width = max(collections.Counter(ros).values(), default=1)
        wmax = max(map(abs, vals), default=1)
        bmax = max_abs(bt)
        bound = max(den_b, inv.dim * bmax) * width * wmax * bmax
        dtype = np.int64 if bound < INT64_LIMIT else object
        bt = bt.astype(dtype)
        # column offset of every index B touches; the index less it is the
        # base its column is shifted by
        co = sum(support // sys.strides[x] % sys.factor_dims[x] * sys.strides[x]
                 for x in (op.i, op.j))
        # column co of the factor is cos[lo:lo + count]; entry e of the
        # gather takes factor entry pos[e] times row src[e] of B~
        cos = np.array(cos, dtype=np.intp)
        lo = np.searchsorted(cos, co, "left")
        count = np.searchsorted(cos, co, "right") - lo
        n = len(support)
        src = np.repeat(np.arange(n), count)
        pos = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(src))
        tgt = (support - co)[src] + np.array(ros, dtype=np.intp)[pos]
        terms = np.array(vals, dtype=dtype)[pos, None] * bt[src]
        # every target row gets a slot past the support, then the rows of
        # the support take back their own
        slot = np.zeros(sys.dim, dtype=np.intp)
        slot[tgt] = np.arange(n, n + len(tgt))
        slot[support] = np.arange(n)
        img = np.zeros((n + len(tgt), inv.dim), dtype=dtype)
        np.add.at(img, slot[tgt], terms)
        s = img[free]
        if np.count_nonzero(img[n:]) or np.count_nonzero(img[:n] * den_b - bt @ s):
            raise ConsistencyError(
                "two-site operator does not preserve the invariant space"
            )
        r = fraction_rows(s, den_b * den_w)
    op.restriction = r
    return r
