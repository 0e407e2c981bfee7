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

import cmath
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigurationError, DomainError, ShapeError
from .numerics import QuadExt, rat_identity, rat_zeros, solve_exact


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
    defining_matrices: list        # (r+1)x(r+1) Fraction matrices
    gram_matrix: list              # dim x dim, normalized invariant form
    gram_inverse: list
    weight_gram: list              # inverse Cartan matrix (Fractions)
    structure: dict                # (a, b) -> {c: Fraction} bracket table
    chevalley_index: dict = field(default_factory=dict)

    def index(self, label):
        try:
            return self.chevalley_index[label]
        except KeyError:
            raise DomainError(f"no basis element labelled {label!r}") from None

    def basis_vector(self, label):
        v = [Fraction(0)] * self.dim
        v[self.index(label)] = Fraction(1)
        return v


@dataclass
class OrthonormalBasis:
    """dim(g) vectors with kappa(J^a, J^b) = delta_ab in the chosen mode."""

    algebra: LieAlgebra
    elements: list
    mode: str   # "symbolic" (QuadExt entries) or "float" (complex entries)


def build_algebra(series, rank):
    """Construct sl(rank+1) with its normalized invariant form."""
    if series != "A":
        raise ConfigurationError(
            f"unsupported series {series!r}; supported series: A"
        )
    if not isinstance(rank, int) or rank < 1:
        raise DomainError(f"rank must be a positive integer, got {rank!r}")
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

    def unit_matrix(r, c):
        m = rat_zeros(n, n)
        m[r - 1][c - 1] = Fraction(1)
        return m

    mats = []
    for lab in labels:
        if lab[0] == "e":
            mats.append(unit_matrix(lab[1], lab[2]))
        elif lab[0] == "f":
            mats.append(unit_matrix(lab[2], lab[1]))
        else:
            i = lab[1]
            m = rat_zeros(n, n)
            m[i - 1][i - 1] = Fraction(1)
            m[i][i] = Fraction(-1)
            mats.append(m)
    dim = len(labels)
    index = {lab: a for a, lab in enumerate(labels)}

    def decompose(m):
        """Coordinates of a traceless matrix in the chosen basis."""
        coords = {}
        for lab, a in index.items():
            if lab[0] == "e":
                v = m[lab[1] - 1][lab[2] - 1]
            elif lab[0] == "f":
                v = m[lab[2] - 1][lab[1] - 1]
            else:
                continue
            if v:
                coords[a] = v
        acc = Fraction(0)
        for i in range(1, n):
            acc += m[i - 1][i - 1]
            if acc:
                coords[index[("h", i)]] = acc
        return coords

    structure = {}
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            ma, mb = mats[a], mats[b]
            comm = [
                [
                    sum(ma[i][k] * mb[k][j] - mb[i][k] * ma[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            coords = decompose(comm)
            if coords:
                structure[(a, b)] = coords

    gram = rat_zeros(dim, dim)
    for a in range(dim):
        for b in range(a, dim):
            v = sum(
                mats[a][i][k] * mats[b][k][i]
                for i in range(n)
                for k in range(n)
            )
            gram[a][b] = gram[b][a] = v
    gram_inv = solve_exact(gram, rat_identity(dim))

    cartan = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]
    weight_gram = solve_exact(
        [[Fraction(x) for x in row] for row in cartan],
        rat_identity(rank),
    )

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
        highest_root=pos_roots[simple_count_to_highest(rank)],
        weyl_vector=tuple([1] * rank),
        basis_labels=labels,
        defining_matrices=mats,
        gram_matrix=gram,
        gram_inverse=gram_inv,
        weight_gram=weight_gram,
        structure=structure,
        chevalley_index=index,
    )


def simple_count_to_highest(rank):
    #.positive_roots lists roots by increasing span; the highest root is the
    # unique span-rank one, stored last among the "e" labels of that span
    count = 0
    for span in range(1, rank):
        count += rank + 1 - span
    return count


def killing_form(alg, x, y):
    """Normalized invariant form on coordinate vectors (any scalar type)."""
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
    if not isinstance(level, int) or level < 1:
        raise DomainError(f"level must be a positive integer, got {level!r}")
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
    return [w for w in out if weight_form(alg, w, theta) <= level]


# ---------------------------------------------------------------------------
# orthonormal bases
# ---------------------------------------------------------------------------

# Preconditioned sl2 spanning sets over Q(sqrt(-2)); Gram-Schmidt succeeds on
# every permutation of either set because all pivot norms stay exact squares.
_SL2_SEED_SETS = (
    (
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1), Fraction(-1), Fraction(0)),
    ),
    (
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(-1, 2), Fraction(1)),
        (Fraction(2), Fraction(-1), Fraction(1)),
    ),
)


def orthonormal_basis(alg, mode="float", seed=0):
    """An orthonormal basis for the normalized invariant form.

    ``mode="symbolic"`` gives exact entries in Q(sqrt(-2)) (rank 1 only);
    ``mode="float"`` gives complex double entries for any rank. Distinct
    seeds give genuinely different bases, which is how basis independence
    of downstream sums is tested.
    """
    if mode == "symbolic":
        return _orthonormal_symbolic(alg, seed)
    if mode == "float":
        return _orthonormal_float(alg, seed)
    raise ConfigurationError(f"unknown arithmetic mode {mode!r}")


def _orthonormal_symbolic(alg, seed):
    if alg.rank != 1:
        raise ConfigurationError(
            "symbolic orthonormal bases are available for rank 1 only"
        )
    variant = _SL2_SEED_SETS[seed % len(_SL2_SEED_SETS)]
    perm = list(itertools.permutations(range(3)))[(seed // 2) % 6]
    e = alg.basis_vector(("e", 1, 2))
    f = alg.basis_vector(("f", 1, 2))
    h = alg.basis_vector(("h", 1))

    def combo(c):
        return [
            QuadExt(c[0] * e[a] + c[1] * f[a] + c[2] * h[a]) for a in range(alg.dim)
        ]

    vecs = [combo(variant[p]) for p in perm]
    basis = []
    for v in vecs:
        w = list(v)
        for u in basis:
            coeff = killing_form(alg, w, u)
            w = [wa - coeff * ua for wa, ua in zip(w, u)]
        nrm = killing_form(alg, w, w)
        root = QuadExt.of(nrm).sqrt()
        if root is None or not root:
            raise ConfigurationError(
                "seeded spanning set does not normalize inside Q(sqrt(-2))"
            )
        basis.append([wa / root for wa in w])
    return OrthonormalBasis(algebra=alg, elements=basis, mode="symbolic")


def _orthonormal_float(alg, seed):
    rng = random.Random(seed)
    order = list(range(alg.dim))
    rng.shuffle(order)
    remaining = [
        [complex(1) if a == b else complex(0) for a in range(alg.dim)]
        for b in order
    ]
    basis = []
    scale = 1.0
    while remaining:
        # orthogonalize the frontier against what is already accepted
        for idx, w in enumerate(remaining):
            for u in basis:
                coeff = killing_form(alg, w, u)
                if coeff:
                    remaining[idx] = [wa - coeff * ua for wa, ua in zip(w, u)]
                    w = remaining[idx]
        norms = [killing_form(alg, w, w) for w in remaining]
        best = max(range(len(remaining)), key=lambda i: abs(norms[i]))
        if abs(norms[best]) > 1e-9 * scale:
            w = remaining.pop(best)
            root = cmath.sqrt(norms[best])
            basis.append([wa / root for wa in w])
            scale = max(scale, abs(norms[best]))
        else:
            # all frontier vectors isotropic: mix the pair with the largest
            # cross pairing, which is nonzero by nondegeneracy
            pairs = [
                (abs(killing_form(alg, remaining[i], remaining[j])), i, j)
                for i in range(len(remaining))
                for j in range(i + 1, len(remaining))
            ]
            _, i, j = max(pairs)
            remaining[i] = [a + b for a, b in zip(remaining[i], remaining[j])]
    return OrthonormalBasis(algebra=alg, elements=basis, mode="float")
