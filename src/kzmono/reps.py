"""Explicit irreducible representations in a weight basis, exact entries.

The module is generated downward from the highest-weight vector, weight
block by weight block. At each depth the vectors f_i.b, b in V_nu with
nu = mu + alpha_i, span the new weight space V_mu, and the columns of e_i on
that spanning list come from data one level up,

    e_i f_j b = f_j e_i b + delta_ij <nu, alpha_i~> b.

:func:`quotient_step` turns those columns into the Gram of the spanning
list, keeps a maximal subset with nonsingular Gram as the basis and
expresses the rest over it; the affine truncations of :mod:`kzmono.sugawara`
grow degree by degree through the same step. Tables and Grams are held in
the dense exact format (N, D) of :mod:`kzmono.numerics` and converted to
rows of ``Fraction`` once, at the end. Bases are deterministic (graded by
depth, weights in ascending order within a depth, spanning blocks in
ascending nu), and the per-weight Gram blocks are retained because the
affine truncations reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .liealg import LieAlgebra, build_algebra, weight_form
from .numerics import combine, concat, fraction_rows, gram_select, integer_matrix, rat_zeros
# not called here: the benchmark's tracer wraps kzmono.reps.rat_mul
from .numerics import rat_mul  # noqa: F401


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


def quotient_step(blocks):
    """One weight block or degree of a module spanned by X.b, taken modulo
    the radical of the contravariant form.

    ``blocks`` = [(G, M)] has one pair per block X.b of the spanning list,
    b in a parent block: G is the parent's Gram and M the columns of tauX
    on the whole spanning list into it, both as (N, D). The Gram rows of
    the block are G.M, since <X b, v> = <b, tauX v>. Returns ``selected``
    (as from ``gram_select``), the Gram of the kept vectors as (N, D), and
    per block its slice of the expansion, transposed, as (N, D): the matrix
    of X from the parent block into the new one.
    """
    num, den = concat([
        combine([(1, (g, m))], (len(g[0]), m[0].shape[1])) for g, m in blocks
    ], axis=0)
    selected, expand = gram_select(num.tolist())
    exp_n, exp_d = integer_matrix(expand, (len(num), len(selected)))
    cuts = np.cumsum([len(g[0]) for g, _ in blocks])[:-1]
    tables = [(part.T, exp_d) for part in np.split(exp_n, cuts)]
    return selected, (num[np.ix_(selected, selected)], den), tables


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

    def shift(w, i, sign):
        return tuple(a + sign * b for a, b in zip(w, alpha[i]))

    weights = [weight]
    by_weight = {weight: [0]}
    grams = {weight: (np.ones((1, 1), dtype=object), 1)}
    # (i, w) -> (N, D) of f_i from V_w down, and of e_i from V_w up
    f_tab, e_tab = {}, {}

    def e_block(i, nu, j, nu2):
        # e_i f_j b = f_j e_i b + delta_ij <nu2, alpha_i~> b, b in V_nu2
        terms = [(nu2[i], ())] if i == j else []
        if (i, nu2) in e_tab:
            terms.append((1, (f_tab[(j, shift(nu2, i, 1))], e_tab[(i, nu2)])))
        return combine(terms, (len(by_weight[nu]), len(by_weight[nu2])))

    layer = [weight]
    while layer:
        new_layer = []
        for mu in sorted({shift(nu, i, -1) for nu in layer for i in range(r)}):
            # spanning blocks f_i.V_nu, nu = mu + alpha_i, in ascending nu
            spans = sorted((shift(mu, i, 1), i) for i in range(r)
                           if shift(mu, i, 1) in by_weight)
            modes = [concat([e_block(i, nu, j, nu2) for nu2, j in spans], axis=1)
                     for nu, i in spans]
            selected, gram, tables = quotient_step(
                [(grams[nu], m) for (nu, _), m in zip(spans, modes)]
            )
            if not selected:
                continue
            by_weight[mu] = list(range(len(weights), len(weights) + len(selected)))
            weights.extend([mu] * len(selected))
            grams[mu] = gram
            for (nu, i), table, (num, den) in zip(spans, tables, modes):
                f_tab[(i, nu)] = table
                e_tab[(i, mu)] = num[:, selected], den
            new_layer.append(mu)
        layer = new_layer

    dim = len(weights)

    def dense(tab, i, sign):
        num = np.zeros((dim, dim), dtype=object)
        blocks = [(w, t) for (j, w), t in tab.items() if j == i]
        den = math.lcm(*(d for _, (_, d) in blocks))
        for w, (n, d) in blocks:
            num[np.ix_(by_weight[shift(w, i, sign)], by_weight[w])] = n * (den // d)
        return fraction_rows(num, den)

    return Irrep(
        algebra=alg,
        highest_weight=weight,
        dim=dim,
        weight_of_basis_vector=weights,
        lowering=[dense(f_tab, i, -1) for i in range(r)],
        raising=[dense(e_tab, i, 1) for i in range(r)],
        cartan_diagonal=[[w[i] for w in weights] for i in range(r)],
        gram_blocks={w: fraction_rows(*g) for w, g in grams.items()},
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
