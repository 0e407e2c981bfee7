"""Tensor products, their invariant subspaces, and two-site Casimir operators.

The space of invariant functionals on V_1 (x) ... (x) V_n is realized as the
space of invariant *vectors* of the tensor product, paired against the
ambient coordinate basis; this fixes all sign conventions once. Invariant
vectors are exactly the zero-weight vectors killed by every raising
generator, so the exact kernel computation runs on the zero-weight block
only, and gives the basis B as integers L.B over one denominator L.
Two-site operators are assembled through dual bases of the invariant form,
which gives the same operator as the orthonormal-basis sum with purely
rational arithmetic.

An operator that acts on a few slots and by the identity on the others is
kept as its local factor, integers over one denominator at column and row
offsets: for Omega_ij, sum_a rho_i(J^a) (x) rho_j(J_a) on V_i (x) V_j, built
once per system and ordered pair of irreps and placed at slots i, j. An
ambient column is the local column its slot digits select, shifted by the
other digits; :func:`_gather` applies that map to any columns, and the
kernel rows, the restriction and the ambient matrix read a factor through
it. The restriction and its certificate Omega.B = B.R run on int64 or
float64 under a proved bound, else on Python ints; :func:`restrict` hands R
on as a held (N, D). The swap P_s of two slots of one irrep maps the
invariants to themselves, and :func:`swap_matrix` reads its matrix T on
invariant coordinates off the free rows of P_s.B and certifies P_s.B = B.T
the same way, so a restriction W_p gives W_{s(p)} = T W_p T:
:func:`restrict_orbits` restricts one pair per orbit of such swaps and
conjugates the rest, and :func:`braid_relations` lists the flatness
relations, or one per orbit of them.
"""

from __future__ import annotations

import collections
import collections.abc
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, DomainError, integer
from .numerics import (
    Held, SparseOperator, lowest_terms, np, nullspace_exact_sparse, product_dtype,
)
from .reps import integer_dual_matrix, integer_rep_matrix

# term entries restrict scatters at once: 8 MB of index and terms
_SCATTER = 2 ** 20


@dataclass(eq=False)
class TensorSystem:
    factors: list
    dim: int
    factor_dims: list
    strides: list
    _pairs: dict = field(default_factory=dict)  # (V_i, V_j) -> (factor, _sizes)


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
    def held(self):
        """``rows`` over ``den``, held (:class:`numerics.Held`) once."""
        return Held(self.rows.copy(), self.den)


@dataclass(eq=False)
class TwoSiteOperator:
    i: int
    j: int
    system: TensorSystem
    local: tuple                 # local two-slot factor, see _local_factor
    sizes: tuple                 # _sizes(local)

    @functools.cached_property
    def matrix(self):
        """The ambient operator as a SparseOperator, built on first use."""
        sys, (den, _, _, vals) = self.system, self.local
        fracs = [Fraction(v, den) for v in vals]
        src, tgt, pos = _gather(sys, (self.i, self.j), self.local, np.arange(sys.dim))
        return SparseOperator((sys.dim, sys.dim), zip(
            tgt.tolist(), src.tolist(), (fracs[e] for e in pos.tolist())))


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


def _local_factor(strides, terms):
    """Local factor of sum over ``terms`` of the operator acting by
    ``mats[slot]``, an (N, D) pair, in each slot of a term and by the
    identity elsewhere.

    Returned as (D, cos, ros, vals): the factor is the integers ``vals``
    over D, entry e sitting at column offset cos[e] and row offset ros[e],
    sorted by column and then row offset. An offset is sum_s k_s * strides[s]
    over the slots s the factor acts on; ``cos`` and ``ros`` are np.intp
    arrays and ``vals`` a list of Python ints.
    """
    parts = []
    for mats in terms:
        local, den = [(0, 0, 1)], 1
        for slot, (num, d) in mats.items():
            st = strides[slot]
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


def _sizes(factor):
    """(most entries in a row, max |entry|) of a local factor, 1 if empty;
    the same at every placement, which maps offsets injectively."""
    return (max(collections.Counter(factor[2].tolist()).values(), default=1),
            max(map(abs, factor[3]), default=1))


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


def _placed(sys, slots, factor):
    """A factor on the strides of V_s alone, s in ``slots``, moved to the
    ambient strides and, if the slots decrease, re-sorted."""
    den, cos, ros, vals = factor
    dims = [sys.factor_dims[s] for s in slots]
    cos, ros = (sum(k * sys.strides[s] for k, s in zip(np.unravel_index(x, dims), slots))
                for x in (cos, ros))
    if slots[0] > slots[-1]:
        order = np.lexsort((ros, cos))
        cos, ros, vals = cos[order], ros[order], [vals[e] for e in order.tolist()]
    return den, cos, ros, vals


def _diagonal_factors(sys, label):
    """One local factor per slot of sum_slots 1 (x) ... rho_s(label) ... (x) 1,
    built once per irrep."""
    local = {rep: _local_factor([1], [{0: integer_rep_matrix(rep, label)}])
             for rep in dict.fromkeys(sys.factors)}
    return [((s,), _placed(sys, [s], local[rep])) for s, rep in enumerate(sys.factors)]


def omega_pair(sys, i, j):
    """The two-site Casimir sum_a rho_i(J^a) rho_j(J^a), assembled through
    dual bases so it stays exactly rational. Only its local factor on
    V_i (x) V_j is built and sized, once per pair of irreps
    (``sys._pairs``), then placed; ``.matrix`` gives the ambient operator."""
    i, j = (integer(k, "slot index", 0, len(sys.factors)) for k in (i, j))
    if i == j:
        raise DomainError("the two-site operator is defined for distinct slots only")
    vi, vj = key = sys.factors[i], sys.factors[j]
    if key not in sys._pairs:
        factor = _local_factor([vj.dim, 1], [
            {0: integer_rep_matrix(vi, label), 1: integer_dual_matrix(vj, a)}
            for a, label in enumerate(vi.algebra.basis_labels)
        ])
        sys._pairs[key] = factor, _sizes(factor)
    factor, sizes = sys._pairs[key]
    return TwoSiteOperator(i=i, j=j, system=sys, local=_placed(sys, [i, j], factor),
                           sizes=sizes)


def zero_weight_indices(sys):
    """Ambient indices of weight zero (np.intp, increasing): broadcast
    sums of the factors' weights."""
    total = np.zeros((1, 1), dtype=int)
    for rep in sys.factors:
        w = np.reshape(rep.weight_of_basis_vector, (rep.dim, -1))
        total = (total[:, None] + w).reshape(-1, w.shape[1])
    return np.flatnonzero(~total.any(axis=1))


def raising_rows(sys):
    """The zero-weight block of the stacked simple raising actions.

    Returns (rows, zw): one sparse row {position in zw: integer} per
    (generator, target index), in that order, and the zero-weight indices
    zw. A generator's rows are its exact ones times the common denominator
    of its slot factors, so the kernel of the rows is the space of
    invariant vectors. Only the zero-weight columns of each e_i are built.
    """
    idx = zero_weight_indices(sys)
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
    return out, idx.tolist()


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
    denominator of the basis, D that of op's local factor, B~ = L B and
    op~ = D op, S = (op~.B~)[free] = D L R, and the identity holds exactly
    when L (op~.B~) == B~.S on the rows B touches and op~.B~ vanishes on
    every other row. R is the held (S, D L) in lowest terms, (0 x 0, 1) if
    dim B = 0.

    op~.B~ is one :func:`_gather` over the rows B touches, whose terms
    ``np.add.at`` sums on the flat image (fast from numpy 1.25). No
    entry of op~.B~ or its partial sums exceeds m |op~| |B~|, m the most
    entries in a row of the local factor (1 if empty, as is |op~|), nor one
    of L (op~.B~) or B~.S or its partial sums max(L, k |B~|) m |op~| |B~|,
    k = dim B. On that bound :func:`numerics.product_dtype` picks int64
    below 2^62 (differences stay below 2^63), with B~.S on float64 below
    2^53, and Python ints above.
    """
    if op.system is not inv.ambient:
        raise DomainError("operator and invariant space live on different systems")
    if not inv.dim:
        return Held(np.zeros((0, 0), dtype=np.int64), 1)
    sys = op.system
    den_b, support, free = inv.den, inv.support, inv.free
    den_w, _, _, vals = op.local
    width, wmax = op.sizes
    bmax = inv.held.max_abs
    bound = max(den_b, inv.dim * bmax) * width * wmax * bmax
    tier = product_dtype(bound)
    dtype = object if tier is object else np.int64
    bt = inv.held[0].astype(dtype, copy=False)
    # entry e of the gather takes factor entry pos[e] times row src[e]
    # of B~ into ambient row tgt[e]
    src, tgt, pos = _gather(sys, (op.i, op.j), op.local, support)
    n = len(support)
    # every target row gets a slot past the support, then the rows of
    # the support take back their own
    slot = np.zeros(sys.dim, dtype=np.intp)
    slot[tgt] = np.arange(n, n + len(tgt))
    slot[support] = np.arange(n)
    # a repeated target keeps one slot, so img ends at the last slot kept:
    # rows past it would stay zero
    img = np.zeros((int(slot[tgt].max(initial=n - 1)) + 1, inv.dim), dtype=dtype)
    flat, w = img.reshape(-1), np.array(vals, dtype=dtype)
    step = max(1, _SCATTER // inv.dim)
    for lo in range(0, len(src), step):
        e = slice(lo, lo + step)
        np.add.at(flat, (slot[tgt[e], None] * inv.dim + np.arange(inv.dim)).ravel(),
                  (w[pos[e], None] * bt[src[e]]).ravel())
    s = img[free]
    bs = (bt.astype(tier, copy=False) @ s.astype(tier, copy=False)).astype(dtype, copy=False)
    if np.count_nonzero(img[n:]) or np.count_nonzero(img[:n] * den_b - bs):
        raise ConsistencyError(
            "two-site operator does not preserve the invariant space"
        )
    return Held(*lowest_terms(s, den_b * den_w))


def swap_matrix(inv, a, b):
    """T_s = L T for the swap s of two slots a, b that carry one irrep, held:
    P_s.B = B.T, with P_s the ambient swap of their digits, exact.

    B is the identity on the free rows, so T is P_s.B read there: row r of
    P_s.B~ is the row of B~ at the image of support[r], which
    ``searchsorted`` finds in the support. The identity holds exactly when
    P_s maps the support onto itself (P_s.B~ then vanishes off it) and
    L (P_s.B~) == B~.T_s, and a failure raises ConsistencyError. As in
    :func:`restrict`, no entry or partial sum exceeds max(L, k |B~|) |B~|,
    k = dim B, and the product runs on the type
    :func:`numerics.product_dtype` picks from it. P_s^2 = 1, so (T_s / L)^2
    = 1 and W_{s(p)} = T_s W_p T_s / L^2 for restrictions W_p.
    """
    sys = inv.ambient
    a, b = (integer(k, "slot index", 0, len(sys.factors)) for k in (a, b))
    if sys.factors[a].highest_weight != sys.factors[b].highest_weight:
        raise DomainError(f"slots {a} and {b} carry different irreps")
    if not inv.dim:
        return Held(np.zeros((0, 0), dtype=np.int64), 1)
    den, support = inv.den, inv.support
    da, db = (support // sys.strides[s] % sys.factor_dims[s] for s in (a, b))
    image = support + (db - da) * sys.strides[a] + (da - db) * sys.strides[b]
    pos = np.searchsorted(support, image) % len(support)
    bmax = inv.held.max_abs
    tier = product_dtype(max(den, inv.dim * bmax) * bmax)
    dtype = object if tier is object else np.int64
    bt = inv.held[0].astype(dtype, copy=False)
    moved = bt[pos]
    t = moved[inv.free]
    bs = (bt.astype(tier, copy=False) @ t.astype(tier, copy=False)).astype(dtype, copy=False)
    if np.count_nonzero(support[pos] - image) or np.count_nonzero(moved * den - bs):
        raise ConsistencyError(f"the swap of slots {a} and {b} does not preserve "
                               "the invariant space")
    return Held(t, den)


def conjugate(t, w):
    """T W T, T and W held, as a held (N, D) in lowest terms. No entry or
    partial sum of the two products exceeds d^2 |T|^2 |W|, d = dim, and
    they run on the type :func:`numerics.product_dtype` picks from it."""
    (tn, tden), (num, den) = t, w
    tier = product_dtype(len(num) ** 2 * t.max_abs ** 2 * w.max_abs)
    tn = tn.astype(tier, copy=False)
    out = (tn @ num.astype(tier, copy=False) @ tn).astype(
        object if tier is object else np.int64, copy=False)
    return Held(*lowest_terms(out, tden * tden * den))


class ReadOnlyPairs(collections.abc.Mapping):
    """A mapping that refuses item assignment, over a private dict; copy,
    deepcopy and pickle rebuild it like any plain object."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def restrict_orbits(inv, first):
    """Every restricted two-site Casimir W_ij, i < j, in combinations order,
    held, in a read-only :class:`ReadOnlyPairs`: ``first(i, j)`` restricts
    the first pair of each orbit of the swaps of slots of one irrep, and
    every later pair (i, j) is conjugated from an earlier pair that one
    such swap s moves onto it, W = T_s W T_s, with T_s certified once
    (:func:`swap_matrix`). P_s.Omega_p.P_s = Omega_{s(p)}, so each W is the
    one :func:`restrict` gives, bit for bit. The swap (k, u) takes k the
    last slot before u of u's irrep, u = i first, then u = j with k != i:
    an earlier pair exists unless (i, j) is the first of its orbit."""
    hw = [f.highest_weight for f in inv.ambient.factors]
    omegas, swaps = {}, {}
    for i, j in itertools.combinations(range(len(hw)), 2):
        src = next(((k, u) for u in (i, j) for k in reversed(range(u))
                    if hw[k] == hw[u] and k != i), None)
        if src is None:
            omegas[i, j] = first(i, j)
            continue
        if src not in swaps:
            swaps[src] = swap_matrix(inv, *src)
        k, u = src
        other = i + j - u
        omegas[i, j] = conjugate(swaps[src], omegas[min(k, other), max(k, other)])
    return ReadOnlyPairs(omegas)


def braid_relations(points, weights=None):
    """The infinitesimal pure braid relations of the W_ij on ``points``
    (increasing), as (p, q, r) for [W_p, W_q + W_r], pairs p = (i, j) with
    i < j and r None for a disjoint [W_p, W_q]: [W_ij, W_ik + W_jk] for
    each i < j < k and its two rotations, then [W_p, W_q] for disjoint p
    before q. Given the weights of the points, only the first relation of
    each orbit of the weight-preserving permutations, which conjugate the
    relations of equivariant W's into each other: keyed by the weights of
    p and of the point outside p for the first kind, and by those of p and
    of q for the second, frozensets standing for multisets of two."""
    w = weights
    rel = {}
    for i, j, k in itertools.combinations(points, 3):
        for p, q, r, c in (((i, j), (i, k), (j, k), k), ((i, k), (i, j), (j, k), j),
                           ((j, k), (i, j), (i, k), i)):
            rel.setdefault((frozenset(w[x] for x in p), w[c]) if w else len(rel), (p, q, r))
    for p, q in itertools.combinations(itertools.combinations(points, 2), 2):
        if not set(p) & set(q):
            key = frozenset(frozenset(w[x] for x in y) for y in (p, q)) if w else len(rel)
            rel.setdefault(key, (p, q, None))
    return list(rel.values())
