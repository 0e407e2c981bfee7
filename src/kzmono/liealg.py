"""Type-A simple Lie algebras with the trace-form normalization.

Conventions used throughout the package:

* weights and roots live in fundamental-weight coordinates, so the bilinear
  form on weight space is the inverse Cartan matrix and the highest root
  automatically has squared length 2;
* the algebra sl(r+1) is realized on its defining representation, with basis
  E_ij (i < j raising, i > j lowering) followed by the simple coroots h_i;
* the invariant form is kappa(x, y) = tr(xy) in the defining representation,
  which for type A equals the abstract form normalized by kappa(theta,
  theta) = 2 and is much cheaper to evaluate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigurationError, DomainError, ShapeError, integer
from .numerics import rat_zeros


@dataclass(eq=False)
class LieAlgebra:
    """Structure data for sl(r+1); immutable after construction."""

    series: str
    rank: int
    dim: int
    dual_coxeter: int
    cartan_matrix: list
    positive_roots: list           # fundamental-weight coordinates
    highest_root: tuple
    weyl_vector: tuple
    basis_labels: list             # ("e", i, j) / ("f", i, j) / ("h", i)
    gram_matrix: list              # dim x dim, normalized invariant form
    gram_inverse: list
    weight_gram: list              # inverse Cartan matrix (Fractions)
    structure: dict                # (a, b) -> {c: Fraction} bracket table
    chevalley_index: dict = field(default_factory=dict)
    # what depends on the algebra alone, built on first use: its irreps
    # (reps.irrep) and kz's candidate local spectra. It lives and dies with
    # the object, and dataclasses.replace starts an empty one
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def index(self, label):
        try:
            return self.chevalley_index[label]
        except KeyError:
            raise DomainError(f"no basis element labelled {label!r}") from None

    def basis_vector(self, label):
        v = [Fraction(0)] * self.dim
        v[self.index(label)] = Fraction(1)
        return v


@dataclass(eq=False)
class DualBasis:
    """A basis x_a of the algebra and its dual basis x~_a, kappa(x_a, x~_b) =
    delta_ab, so that sum_a x_a (x) x~_a is the Casimir tensor.

    Both are held by their pairings with coordinate vectors: ``forms[a]`` is
    the row of kappa(., x_a) and ``dual_forms[a]`` that of kappa(., x~_a), so
    kappa(X, x_a) = sum_b X_b forms[a][b].
    """

    algebra: LieAlgebra
    forms: list
    dual_forms: list


def build_algebra(series, rank):
    """Construct sl(rank+1) with its normalized invariant form."""
    if series != "A":
        raise ConfigurationError(
            f"unsupported series {series!r}; supported series: A"
        )
    rank = integer(rank, "rank", 1)
    n = rank + 1

    labels = []
    for span in range(1, n):
        for i in range(1, n - span + 1):
            labels.append(("e", i, i + span))
    for span in range(1, n):
        for i in range(1, n - span + 1):
            labels.append(("f", i, i + span))
    for i in range(1, n):
        labels.append(("h", i))

    # each basis matrix as its one or two nonzero entries (row, column, value)
    entries = []
    for lab in labels:
        if lab[0] == "e":
            entries.append(((lab[1] - 1, lab[2] - 1, 1),))
        elif lab[0] == "f":
            entries.append(((lab[2] - 1, lab[1] - 1, 1),))
        else:
            entries.append(((lab[1] - 1, lab[1] - 1, 1), (lab[1], lab[1], -1)))
    dim = len(labels)
    index = {lab: a for a, lab in enumerate(labels)}
    m = (dim - rank) // 2   # e labels at 0..m-1, f at m..2m-1, h from 2m
    offdiag = {ent[0][:2]: a for a, ent in enumerate(entries[:2 * m])}

    # [E_rc, E_st] = delta_cs E_rt - delta_tr E_sc on the sparse entries; an
    # off-diagonal entry is one e or f coordinate, and the diagonal d is
    # sum_i (d_1 + ... + d_i) h_i since it is traceless
    structure = {}
    for a, ent_a in enumerate(entries):
        for b, ent_b in enumerate(entries):
            if a == b:
                continue
            comm = {}
            for r, c, x in ent_a:
                for s, t, y in ent_b:
                    if c == s:
                        comm[r, t] = comm.get((r, t), 0) + x * y
                    if t == r:
                        comm[s, c] = comm.get((s, c), 0) - x * y
            coords = sorted(
                (offdiag[rc], Fraction(v)) for rc, v in comm.items() if v and rc[0] != rc[1]
            )
            acc = 0
            for i in range(rank):
                acc += comm.get((i, i), 0)
                if acc:
                    coords.append((2 * m + i, Fraction(acc)))
            if coords:
                structure[(a, b)] = dict(coords)

    cartan = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]
    # the inverse Cartan matrix in closed form, (A^-1)_ij = min(i, j)(n - max(i, j))/n
    weight_gram = [
        [Fraction(min(i, j) * (n - max(i, j)), n) for j in range(1, n)]
        for i in range(1, n)
    ]
    # tr(xy) pairs E_ij with E_ji alone, with value 1, and is the Cartan
    # matrix on the coroots, so its inverse swaps e and f and is A^-1 there
    gram = rat_zeros(dim, dim)
    gram_inv = rat_zeros(dim, dim)
    for a in range(m):
        gram[a][m + a] = gram[m + a][a] = Fraction(1)
        gram_inv[a][m + a] = gram_inv[m + a][a] = Fraction(1)
    for i in range(rank):
        gram[2 * m + i][2 * m:] = [Fraction(x) for x in cartan[i]]
        gram_inv[2 * m + i][2 * m:] = weight_gram[i]

    pos_roots = []
    for span in range(1, n):
        for i in range(1, n - span + 1):
            root = [0] * rank
            for k in range(i, i + span):
                for r in range(rank):
                    root[r] += cartan[r][k - 1]
            pos_roots.append(tuple(root))

    return LieAlgebra(
        series=series,
        rank=rank,
        dim=dim,
        dual_coxeter=rank + 1,
        cartan_matrix=cartan,
        positive_roots=pos_roots,
        highest_root=pos_roots[-1],  # the root of span rank
        weyl_vector=tuple([1] * rank),
        basis_labels=labels,
        gram_matrix=gram,
        gram_inverse=gram_inv,
        weight_gram=weight_gram,
        structure=structure,
        chevalley_index=index,
    )


def killing_form(alg, x, y):
    """Normalized invariant form on coordinate vectors."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ShapeError(
            f"expected coordinate vectors of length {alg.dim}, "
            f"got {len(x)} and {len(y)}"
        )
    total = 0
    for a, xa in enumerate(x):
        if not xa:
            continue
        row = alg.gram_matrix[a]
        for b, yb in enumerate(y):
            if yb and row[b]:
                total = total + xa * (row[b] * yb)
    return total


def bracket(alg, x, y):
    """Lie bracket of coordinate vectors via the structure-constant table."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ShapeError("coordinate vectors do not match the algebra dimension")
    out = [0] * alg.dim
    for (a, b), coords in alg.structure.items():
        xa = x[a]
        yb = y[b]
        if xa and yb:
            p = xa * yb
            for c, s in coords.items():
                out[c] = out[c] + p * s
    return out


def weight_form(alg, mu, nu):
    """kappa on weight space (fundamental-weight coordinates)."""
    if len(mu) != alg.rank or len(nu) != alg.rank:
        raise ShapeError(f"weights must have {alg.rank} coordinates")
    total = Fraction(0)
    for i, mi in enumerate(mu):
        if mi:
            row = alg.weight_gram[i]
            for j, nj in enumerate(nu):
                if nj:
                    total += Fraction(mi) * row[j] * Fraction(nj)
    return total


def dual_pairs(alg):
    """Pairs (x_a, x~_a) of dual bases: sum_a x_a (x) x~_a is the Casimir
    tensor, equal to sum_a J^a (x) J^a for any orthonormal basis."""
    pairs = []
    for a in range(alg.dim):
        dual = {b: alg.gram_inverse[b][a] for b in range(alg.dim) if alg.gram_inverse[b][a]}
        pairs.append((a, dual))
    return pairs


def level_weights(alg, level):
    """The dominant integral weights with kappa(lambda, theta) <= level."""
    level = integer(level, "level", 1)
    theta = alg.highest_root
    out = []

    def theta_pairing(partial):
        return weight_form(alg, tuple(partial) + (0,) * (alg.rank - len(partial)), theta)

    def rec(prefix):
        if len(prefix) == alg.rank:
            out.append(tuple(prefix))
            return
        m = 0
        while True:
            cand = prefix + [m]
            if theta_pairing(cand) > level:
                break
            rec(cand)
            m += 1

    rec([])
    return out


# ---------------------------------------------------------------------------
# bases and their duals
# ---------------------------------------------------------------------------

def orthonormal_basis(alg, seed=0):
    """A seeded basis of the algebra with its dual basis, by one integer
    construction at every rank.

    x_a = g e_a and x~_a = G^-1 g^-T e_a over the Chevalley basis e_a, where
    G is the Gram matrix and g a seeded product of elementary integer
    shears: det g = 1, so both maps, G g and g^-T, are integer. Distinct
    seeds give genuinely different bases, which is how basis independence of
    downstream sums is tested. The basis is not orthonormal; the name is
    kept because the benchmark's tracer reads it.
    """
    rng = random.Random(integer(seed, "seed"))
    n = alg.dim
    g = [[int(a == b) for a in range(n)] for b in range(n)]   # columns x_a
    g_inv_t = [col[:] for col in g]                          # columns of g^-T
    for _ in range(2 * n):
        # g <- g (1 + c e_i e_j^T) and g^-T <- g^-T (1 - c e_j e_i^T)
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        g[j] = [x + c * y for x, y in zip(g[j], g[i])]
        g_inv_t[i] = [x - c * y for x, y in zip(g_inv_t[i], g_inv_t[j])]
    # G has at most three nonzeros a row: G g runs over those alone
    gram = [[(b, int(v)) for b, v in enumerate(row) if v] for row in alg.gram_matrix]
    forms = [[sum(v * x[b] for b, v in row) for row in gram] for x in g]
    return DualBasis(alg, forms, g_inv_t)
