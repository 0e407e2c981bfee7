"""Tensor products, their invariant subspaces, and two-site Casimir operators.

The space of invariant functionals on V_1 (x) ... (x) V_n is realized as the
space of invariant *vectors* of the tensor product, paired against the
ambient coordinate basis; this fixes all sign conventions once. Invariant
vectors are exactly the zero-weight vectors killed by every raising
generator, so the exact kernel computation runs on the zero-weight block
only. Two-site operators are assembled through dual bases of the invariant
form, which gives the same operator as the orthonormal-basis sum with purely
rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError
from .liealg import dual_pairs
from .numerics import ONE, SparseOperator, nullspace_exact_sparse, rat_zeros
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

    def weight_of_index(self, idx):
        multi = self.multi_index(idx)
        rank = self.factors[0].algebra.rank
        acc = [0] * rank
        for rep, k in zip(self.factors, multi):
            w = rep.weight_of_basis_vector[k]
            for t in range(rank):
                acc[t] += w[t]
        return tuple(acc)


@dataclass(eq=False)
class InvariantSpace:
    ambient: TensorSystem
    basis: list            # columns as {ambient_index: Fraction} (exact mode)
    free_positions: list   # ambient indices carrying the identity block
    mode: str

    @property
    def dim(self):
        return len(self.basis)


@dataclass(eq=False)
class TwoSiteOperator:
    i: int
    j: int
    system: TensorSystem
    matrix: SparseOperator
    restriction: object = None   # dense matrix, attached by restrict()


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


def _other_bases(sys, skip):
    """Base flat indices over all slots except those in ``skip``."""
    ranges = [
        range(d) if s not in skip else range(1)
        for s, d in enumerate(sys.factor_dims)
    ]
    for combo in itertools.product(*ranges):
        yield sum(k * st for k, st in zip(combo, sys.strides))


def _slot_entries(sys, mats):
    """Ambient (row, col, value) entries of the operator that acts by
    ``mats[slot]`` in each given slot and by the identity in every other."""
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
    for base in _other_bases(sys, mats):
        for ro, co, v in local:
            yield base + ro, base + co, v


def diagonal_action(sys, label):
    """Sparse operator of sum_slots 1 (x) ... rho_s(label) ... (x) 1."""
    entries = itertools.chain.from_iterable(
        _slot_entries(sys, {slot: rep_matrix(rep, label)})
        for slot, rep in enumerate(sys.factors)
    )
    return SparseOperator((sys.dim, sys.dim), entries)


def omega_pair(sys, i, j):
    """The two-site Casimir sum_a rho_i(J^a) rho_j(J^a), assembled through
    dual bases so the ambient matrix stays exactly rational."""
    n = len(sys.factors)
    if i == j:
        raise DomainError("the two-site operator is defined for distinct slots only")
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"slot indices out of range for an {n}-factor system")
    alg = sys.factors[0].algebra
    entries = itertools.chain.from_iterable(
        _slot_entries(sys, {
            i: rep_matrix(sys.factors[i], alg.basis_labels[a]),
            j: rep_matrix_combo(sys.factors[j], dual),
        })
        for a, dual in dual_pairs(alg)
    )
    return TwoSiteOperator(i=i, j=j, system=sys, matrix=SparseOperator((sys.dim, sys.dim), entries))


def zero_weight_indices(sys):
    rank = sys.factors[0].algebra.rank
    zero = (0,) * rank
    return [idx for idx in range(sys.dim) if sys.weight_of_index(idx) == zero]


def invariant_basis(sys, mode="exact"):
    """Basis of the invariant vectors of the tensor product.

    Invariants are the zero-weight vectors annihilated by every raising
    generator, so only a zero-weight block of each e_i action enters the
    kernel computation. Exact mode uses sparse rational elimination; float
    mode uses an SVD with threshold 1e-10 times the matrix max-norm.
    """
    alg = sys.factors[0].algebra
    zw = zero_weight_indices(sys)
    pos = {idx: p for p, idx in enumerate(zw)}
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown arithmetic mode {mode!r}")
    if not zw:
        return InvariantSpace(ambient=sys, basis=[], free_positions=[], mode=mode)

    rows = {}
    for i in range(1, alg.rank + 1):
        op = diagonal_action(sys, ("e", i, i + 1))
        for idx in zw:
            col = op.apply_dict({idx: ONE})
            for tgt, v in col.items():
                rows.setdefault((i, tgt), {})[pos[idx]] = v
    row_list = [rows[k] for k in sorted(rows)]

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


def restrict(op, inv):
    """Restriction R of a two-site operator to invariant coordinates.

    Exactness contract: op.B = B.R with B the invariant basis. In exact mode
    a failure of this identity raises ConsistencyError (it means the basis is
    broken); in float mode the residual is checked against 1e-8 of scale.
    """
    if op.system is not inv.ambient:
        raise DomainError("operator and invariant space live on different systems")
    d = inv.dim
    if d == 0:
        op.restriction = []
        return []
    if inv.mode == "exact":
        images = [op.matrix.apply_dict(col) for col in inv.basis]
        r = rat_zeros(d, d)
        for c, img in enumerate(images):
            for k, fp in enumerate(inv.free_positions):
                r[k][c] = img.get(fp, ZERO)
        # full verification: op.B == B.R, entry for entry
        for c, img in enumerate(images):
            recon = {}
            for k in range(d):
                coeff = r[k][c]
                if coeff:
                    for idx, v in inv.basis[k].items():
                        recon[idx] = recon.get(idx, ZERO) + coeff * v
            recon = {i: v for i, v in recon.items() if v}
            if recon != {i: v for i, v in img.items() if v}:
                raise ConsistencyError(
                    "two-site operator does not preserve the invariant space"
                )
        op.restriction = r
        return r

    b = np.zeros((op.system.dim, d))
    for c, col in enumerate(inv.basis):
        for idx, v in col.items():
            b[idx, c] = float(v)
    ob = op.matrix.to_complex() @ b
    r, *_ = np.linalg.lstsq(b, ob, rcond=None)
    resid = np.max(np.abs(ob - b @ r)) if ob.size else 0.0
    scale = max(1.0, float(np.max(np.abs(ob))) if ob.size else 1.0)
    if resid > 1e-8 * scale:
        raise ConsistencyError(
            f"restriction residual {resid:.3e} exceeds tolerance; "
            "invariant basis looks broken"
        )
    op.restriction = r
    return r
