"""Tensor products, their invariant subspaces, and two-site Casimir operators.

The space of invariant functionals on V_1 (x) ... (x) V_n is realized as the
space of invariant *vectors* of the tensor product, paired against the
ambient coordinate basis; this fixes all sign conventions once. Invariant
vectors are exactly the zero-weight vectors killed by every raising
generator, so the exact kernel computation runs on the zero-weight block
only, and gives the basis B as integers L.B; its ``Fraction`` columns are a
view. Two-site operators are assembled through dual bases of the invariant
form, which gives the same operator as the orthonormal-basis sum with purely
rational arithmetic.

An operator that acts on a few slots and by the identity on the others is
kept as its local factor: for Omega_ij the matrix of
sum_a rho_i(J^a) (x) rho_j(J_a) on V_i (x) V_j, from the (N, D) matrices of
:func:`kzmono.reps.integer_rep_matrix`, as Python integers over one
denominator with their column and row offsets in ambient strides. One
ambient column is the local column its slot digits select, shifted by the
offset of the remaining digits; :func:`_gather` applies that map to any set
of columns at once, and the kernel rows, the restriction and the ambient
sparse matrix (built only when asked for) all read a factor through it. So
the kernel rows, the restriction and its certificate Omega.B = B.R all run
on integers: the last two on int64 when a bound computed beforehand shows
that no entry or partial sum can reach 2^62, with the certificate's dense
product on float64 when the same bound is below 2^53, and on Python ints
otherwise. :func:`restrict` hands R on as a held (N, D) pair.
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
    Held, SparseOperator, lowest_terms, max_abs, np, nullspace_exact_sparse, product_dtype,
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
    """Invariant vectors, basis B held as ``rows``: L.B, L = ``den``, in Python
    ints on the ambient indices ``support`` (np.intp, increasing) B touches;
    column c of B is 1 at row free[c] and 0 at the other free rows."""
    ambient: TensorSystem
    den: int
    support: object
    rows: object
    free: list

    @property
    def dim(self):
        return len(self.free)

    @functools.cached_property
    def basis(self):
        """The columns of B as {ambient index: Fraction}, each listing its
        free position first and the others in increasing order."""
        idx, cols = self.support.tolist(), []
        for f, col in zip(self.free, self.rows.T.tolist()):
            keys = [f] + [p for p, v in enumerate(col) if v and p != f]
            cols.append({idx[p]: Fraction(col[p], self.den) for p in keys})
        return cols


@dataclass(eq=False)
class TwoSiteOperator:
    i: int
    j: int
    system: TensorSystem
    local: tuple                 # local two-slot factor, see _local_factor

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

    Returned as (D, cos, ros, vals): the factor is the integers ``vals``
    over D, entry e sitting at column offset cos[e] and row offset ros[e],
    sorted by column and then row offset. An offset is sum_s k_s * stride_s
    over the slots s the factor acts on; ``cos`` and ``ros`` are np.intp
    arrays and ``vals`` a list of Python ints.
    """
    parts = []
    for mats in terms:
        local, den = [(0, 0, 1)], 1
        for slot, (num, d) in mats.items():
            st = sys.strides[slot]
            nnz = [
                (st * c, st * r, v)
                for r, row in enumerate(num.tolist())
                for c, v in enumerate(row)
                if v
            ]
            local = [(co + c, ro + r, w * v) for co, ro, w in local for c, r, v in nnz]
            den *= d
        parts.append((den, local))
    den = math.lcm(*(d for d, _ in parts))
    acc = collections.Counter()
    for d, local in parts:
        for co, ro, v in local:
            acc[co, ro] += v * (den // d)
    entries = sorted(k for k, v in acc.items() if v)
    cos, ros = np.array(entries, dtype=np.intp).reshape(-1, 2).T.copy()
    return den, cos, ros, [acc[e] for e in entries]


def _gather(sys, slots, factor, idx):
    """The entries of a local factor on ``slots`` in the ambient columns
    ``idx`` (np.intp) as arrays (src, tgt, pos): factor entry pos[e] lies in
    column idx[src[e]] and ambient row tgt[e]. The column offset of an index
    selects its local column from the sorted ``cos`` by ``searchsorted``."""
    _, cos, ros, _ = factor
    co = sum(idx // sys.strides[s] % sys.factor_dims[s] * sys.strides[s] for s in slots)
    lo = np.searchsorted(cos, co, "left")
    count = np.searchsorted(cos, co, "right") - lo
    src = np.repeat(np.arange(len(idx)), count)
    pos = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(src))
    return src, (idx - co)[src] + ros[pos], pos


def _ambient(sys, factors):
    """Ambient SparseOperator of a sum of local factors, [(slots, factor)]."""
    idx = np.arange(sys.dim)
    entries = []
    for slots, factor in factors:
        den, _, _, vals = factor
        fracs = [Fraction(v, den) for v in vals]
        src, tgt, pos = _gather(sys, slots, factor, idx)
        entries += zip(tgt.tolist(), src.tolist(), (fracs[e] for e in pos.tolist()))
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
    idx = np.array(zw, dtype=np.intp)
    out = []
    for i in range(1, sys.factors[0].algebra.rank + 1):
        factors = _diagonal_factors(sys, ("e", i, i + 1))
        den = math.lcm(*(f[0] for _, f in factors))
        rows = {}
        for slots, factor in factors:
            d, _, _, vals = factor
            src, tgt, pos = _gather(sys, slots, factor, idx)
            for p, t, e in zip(src.tolist(), tgt.tolist(), pos.tolist()):
                row = rows.setdefault(t, {})
                row[p] = row.get(p, 0) + vals[e] * (den // d)
        out += [{p: row[p] for p in sorted(row) if row[p]} for _, row in sorted(rows.items())]
    return out, zw


def invariant_basis(sys):
    """Basis of the invariant vectors of the tensor product, exact.

    Invariants are the zero-weight vectors annihilated by every raising
    generator, so only a zero-weight block of each e_i action enters the
    kernel, which fraction-free sparse elimination computes. Each basis
    vector carries 1 at its own free position and 0 at the others.
    """
    row_list, zw = raising_rows(sys)
    den, cols, free = nullspace_exact_sparse(row_list, len(zw))
    support = sorted(set().union(*cols))
    at = {p: k for k, p in enumerate(support)}
    rows = np.zeros((len(support), len(cols)), dtype=object)
    for c, col in enumerate(cols):
        rows[[at[p] for p in col], c] = list(col.values())
    return InvariantSpace(
        ambient=sys,
        den=den,
        support=np.array(zw, dtype=np.intp)[support],
        rows=rows,
        free=[at[p] for p in free],
    )


def restrict(op, inv):
    """Restriction R of a two-site operator to invariant coordinates, exact.

    Exactness contract: op.B = B.R with B the invariant basis, and a failure
    of this identity raises ConsistencyError (it means the basis is
    broken). R is read off the free rows of op.B, in integers: with L the
    denominator of the held basis and D that of op's local factor,
    B~ = L B and the local integers op~ = D op give op~.B~ = D L op.B. So
    S = (op~.B~)[free] = D L R, and the identity holds exactly when
    L (op~.B~) == B~.S on the rows B touches and op~.B~ vanishes on every
    other row. R is returned as the :class:`numerics.Held` pair
    (S, D L) in lowest terms, (0 x 0, 1) on a zero-dimensional space.

    op~.B~ is one :func:`_gather` over the ambient indices B touches, and
    ``np.add.at`` sums the products of the entries it selects with the rows
    of B~ into their target rows. Every entry of
    op~.B~ and of its partial sums is at most m |op~| |B~|, with m the most
    entries in a row of the local factor, and every entry of L (op~.B~)
    and of B~.S (and of the partial sums of B~.S) at most
    max(L, k |B~|) m |op~| |B~| for k = dim B. The bound picks the type
    through :func:`numerics.product_dtype`. Below 2^62, so that their
    difference stays below 2^63, the gather runs on int64, and B~.S on
    float64 below 2^53 and on int64 above; otherwise the same code runs on
    Python ints.
    An empty local factor (a trivial slot) counts as m = |op~| = 1.
    """
    if op.system is not inv.ambient:
        raise DomainError("operator and invariant space live on different systems")
    if not inv.dim:
        return Held(np.zeros((0, 0), dtype=np.int64), 1)
    sys = op.system
    den_b, support, bt, free = inv.den, inv.support, inv.rows, inv.free
    den_w, _, ros, vals = op.local
    width = max(collections.Counter(ros.tolist()).values(), default=1)
    wmax = max(map(abs, vals), default=1)
    bmax = max_abs(bt)
    bound = max(den_b, inv.dim * bmax) * width * wmax * bmax
    tier = product_dtype(bound)
    dtype = object if tier is object else np.int64
    bt = bt.astype(dtype)
    # entry e of the gather takes factor entry pos[e] times row src[e]
    # of B~ into ambient row tgt[e]
    src, tgt, pos = _gather(sys, (op.i, op.j), op.local, support)
    n = len(support)
    terms = np.array(vals, dtype=dtype)[pos, None] * bt[src]
    # every target row gets a slot past the support, then the rows of
    # the support take back their own
    slot = np.zeros(sys.dim, dtype=np.intp)
    slot[tgt] = np.arange(n, n + len(tgt))
    slot[support] = np.arange(n)
    img = np.zeros((n + len(tgt), inv.dim), dtype=dtype)
    np.add.at(img, slot[tgt], terms)
    s = img[free]
    bs = (bt.astype(tier, copy=False) @ s.astype(tier, copy=False)).astype(dtype, copy=False)
    if np.count_nonzero(img[n:]) or np.count_nonzero(img[:n] * den_b - bs):
        raise ConsistencyError(
            "two-site operator does not preserve the invariant space"
        )
    return Held(*lowest_terms(s, den_b * den_w))
