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
asked for. Exact restriction runs on Python integers: the basis and the
local factor are scaled by the lcm of their denominators, and the
certificate Omega.B = B.R is checked as an integer identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .liealg import dual_pairs
from .numerics import ONE, SparseOperator, fraction_rows, np, nullspace_exact_sparse
from .reps import rep_matrix, rep_matrix_combo

ZERO = Fraction(0)


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
    basis: list            # columns as {ambient_index: Fraction} (exact mode)
    free_positions: list   # ambient indices carrying the identity block
    mode: str

    @property
    def dim(self):
        return len(self.basis)

    @functools.cached_property
    def integer_rows(self):
        """(L, rows) for an exact basis: L is the lcm of its denominators and
        rows[idx] is row idx of L.B as an object array of Python ints, for
        every ambient index the basis touches, in increasing order."""
        den = math.lcm(*(v.denominator for col in self.basis for v in col.values()))
        rows = {idx: np.zeros(self.dim, dtype=object)
                for idx in sorted(set().union(*self.basis))}
        for c, col in enumerate(self.basis):
            for idx, v in col.items():
                rows[idx][c] = v.numerator * (den // v.denominator)
        return den, rows


@dataclass(eq=False)
class TwoSiteOperator:
    i: int
    j: int
    system: TensorSystem
    local: dict                  # local two-slot factor, see _local_factor
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
    ``mats[slot]`` in each slot of a term and by the identity elsewhere.

    Returned as {column offset: [(row offset, value)]}, where an offset is
    sum_s k_s * stride_s over the slots s the factor acts on.
    """
    acc = {}
    for mats in terms:
        local = [(0, 0, ONE)]
        for slot, mat in mats.items():
            st = sys.strides[slot]
            nnz = [
                (st * r, st * c, v)
                for r, row in enumerate(mat)
                for c, v in enumerate(row)
                if v
            ]
            local = [(ro + r, co + c, w * v) for ro, co, w in local for r, c, v in nnz]
        for ro, co, v in local:
            col = acc.setdefault(co, {})
            col[ro] = col.get(ro, ZERO) + v
    return {
        co: [(ro, v) for ro, v in col.items() if v]
        for co, col in acc.items()
        if any(col.values())
    }


def _slot_column(sys, slots, local, idx):
    """Ambient column ``idx`` of the operator with local factor ``local`` on
    ``slots``, as [(row, value)]."""
    co = sum(idx // sys.strides[s] % sys.factor_dims[s] * sys.strides[s] for s in slots)
    base = idx - co
    return [(base + ro, v) for ro, v in local.get(co, ())]


def _ambient(sys, factors):
    """Ambient SparseOperator of a sum of local factors, [(slots, local)]."""
    entries = (
        (r, idx, v)
        for idx in range(sys.dim)
        for slots, local in factors
        for r, v in _slot_column(sys, slots, local, idx)
    )
    return SparseOperator((sys.dim, sys.dim), entries)


def _diagonal_factors(sys, label):
    """One local factor per slot of sum_slots 1 (x) ... rho_s(label) ... (x) 1."""
    return [
        ((slot,), _local_factor(sys, [{slot: rep_matrix(rep, label)}]))
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
    local = _local_factor(sys, [
        {
            i: rep_matrix(sys.factors[i], alg.basis_labels[a]),
            j: rep_matrix_combo(sys.factors[j], dual),
        }
        for a, dual in dual_pairs(alg)
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

    Returns (rows, zw): one sparse row {position in zw: value} per
    (generator, target index), in that order, and the zero-weight indices
    zw. The kernel of the rows is the space of invariant vectors. Only the
    zero-weight columns of each e_i are built.
    """
    zw = zero_weight_indices(sys)
    rows = {}
    for i in range(1, sys.factors[0].algebra.rank + 1):
        factors = _diagonal_factors(sys, ("e", i, i + 1))
        for p, idx in enumerate(zw):
            for slots, local in factors:
                for tgt, v in _slot_column(sys, slots, local, idx):
                    row = rows.setdefault((i, tgt), {})
                    row[p] = row.get(p, ZERO) + v
    return [{p: v for p, v in rows[k].items() if v} for k in sorted(rows)], zw


def invariant_basis(sys, mode="exact"):
    """Basis of the invariant vectors of the tensor product.

    Invariants are the zero-weight vectors annihilated by every raising
    generator, so only a zero-weight block of each e_i action enters the
    kernel computation. Exact mode uses sparse rational elimination; float
    mode uses an SVD with threshold 1e-10 times the matrix max-norm.
    """
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown arithmetic mode {mode!r}")
    row_list, zw = raising_rows(sys)
    if not zw:
        return InvariantSpace(ambient=sys, basis=[], free_positions=[], mode=mode)

    if mode == "exact":
        cols, free = nullspace_exact_sparse(row_list, len(zw))
        basis = []
        for col in cols:
            basis.append({zw[p]: v for p, v in col.items()})
        return InvariantSpace(
            ambient=sys,
            basis=basis,
            free_positions=[zw[p] for p in free],
            mode="exact",
        )

    m = np.zeros((len(row_list), len(zw)))
    for r, row in enumerate(row_list):
        for c, v in row.items():
            m[r, c] = float(v)
    if m.size == 0:
        null = np.eye(len(zw))
    else:
        _, s, vh = np.linalg.svd(m)
        tol = 1e-10 * (np.max(np.abs(m)) if m.size else 1.0)
        rank = int(np.sum(s > tol))
        null = vh[rank:].T
    basis = []
    for c in range(null.shape[1]):
        basis.append({zw[p]: null[p, c] for p in range(len(zw)) if null[p, c]})
    return InvariantSpace(ambient=sys, basis=basis, free_positions=[], mode="float")


def _images(op, local, brows):
    """Rows of op.B from the rows of B: ``brows`` maps an ambient index to
    that row of B as an ndarray, ``local`` is op's local factor with entries
    of a matching type. Only the columns of op that B touches are built."""
    img = {}
    for idx, brow in brows.items():
        for r, w in _slot_column(op.system, (op.i, op.j), local, idx):
            acc = img.get(r)
            img[r] = w * brow if acc is None else acc + w * brow
    return img


def restrict(op, inv):
    """Restriction R of a two-site operator to invariant coordinates.

    Exactness contract: op.B = B.R with B the invariant basis. In exact mode
    a failure of this identity raises ConsistencyError (it means the basis is
    broken); in float mode the residual is checked against 1e-8 of scale.
    """
    if op.system is not inv.ambient:
        raise DomainError("operator and invariant space live on different systems")
    r = [] if inv.dim == 0 else (
        _restrict_exact if inv.mode == "exact" else _restrict_float)(op, inv)
    op.restriction = r
    return r


def _restrict_exact(op, inv):
    """R read off the free rows of op.B, in integers.

    With L, D the lcm of the denominators of B and of op's local factor,
    B~ = L B and op~ = D op are integral and op~.B~ = D L op.B. So
    S = (op~.B~)[free] = D L R, and op.B = B.R holds exactly when
    L (op~.B~) == B~.S on every row that either side touches.
    """
    den_b, brows = inv.integer_rows
    den_w = math.lcm(*(v.denominator for col in op.local.values() for _, v in col))
    local = {
        co: [(ro, v.numerator * (den_w // v.denominator)) for ro, v in col]
        for co, col in op.local.items()
    }
    img = _images(op, local, brows)
    zero = np.zeros(inv.dim, dtype=object)
    s = np.array([img.get(fp, zero) for fp in inv.free_positions], dtype=object)
    lhs = np.array([img.get(idx, zero) for idx in brows], dtype=object) * den_b
    leaves = any(row.any() for idx, row in img.items() if idx not in brows)
    if leaves or not np.array_equal(lhs, np.array(list(brows.values())) @ s):
        raise ConsistencyError(
            "two-site operator does not preserve the invariant space"
        )
    return fraction_rows(s, den_b * den_w)


def _restrict_float(op, inv):
    """R as the least-squares solution of B.R = op.B on the rows that B or
    op.B touches, with the residual checked against 1e-8 of scale."""
    d = inv.dim
    brows = {idx: np.zeros(d) for idx in sorted(set().union(*inv.basis))}
    for c, col in enumerate(inv.basis):
        for idx, v in col.items():
            brows[idx][c] = float(v)
    local = {co: [(ro, float(v)) for ro, v in col] for co, col in op.local.items()}
    img = _images(op, local, brows)
    rows = sorted(set(brows) | set(img))
    zero = np.zeros(d)
    b = np.array([brows.get(idx, zero) for idx in rows])
    ob = np.array([img.get(idx, zero) for idx in rows], dtype=complex)
    r, *_ = np.linalg.lstsq(b, ob, rcond=None)
    resid = np.max(np.abs(ob - b @ r)) if ob.size else 0.0
    scale = max(1.0, float(np.max(np.abs(ob))) if ob.size else 1.0)
    if resid > 1e-8 * scale:
        raise ConsistencyError(
            f"restriction residual {resid:.3e} exceeds tolerance; "
            "invariant basis looks broken"
        )
    return r
