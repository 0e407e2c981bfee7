"""Explicit irreducible representations in a weight basis, exact entries.

The module is generated downward from the highest-weight vector, weight
block by weight block. At each depth the vectors f_i.b, b in V_nu with
nu = mu + alpha_i, span the new weight space V_mu, and the columns of e_i on
that spanning list come from data one level up,

    e_i f_j b = f_j e_i b + delta_ij <nu, alpha_i~> b.

:func:`quotient_step` keeps a maximal subset of the spanning list with
nonsingular Gram as the basis and expresses the rest over it; the affine
truncations of :mod:`kzmono.sugawara` grow degree by degree through the same
step. The basis and the expansions come from the primitive integer pivot
rows of those columns, whose RREF is the Gram's
(:func:`kzmono.numerics.gram_select`), so no ``Fraction`` is formed in the
build. Bases are deterministic (graded by depth, weights in ascending order
within a depth, spanning blocks in ascending nu), and the per-weight Gram
blocks are retained because the affine truncations reuse them.

Every matrix of a module is held in the dense exact format (N, D) of
:mod:`kzmono.numerics`: the simple e_i and f_i and the Gram blocks from the
build, every other basis element from :func:`integer_rep_matrix`, which
derives it on first use and caches it. Only ``rep build --emit`` reads a
matrix as rows of ``Fraction``, through :func:`rep_matrix`.

A module depends on its algebra and highest weight alone, so irreps are
per-algebra constants: :func:`irrep` builds each once per algebra object,
keeps it on that object, and hands the same module to every later caller.
Every matrix of a module, Grams and derived matrices included, is made
read-only, so no caller can change the module the next one gets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, DomainError, integer
from .liealg import LieAlgebra, build_algebra, dual_pairs, weight_form
from .numerics import (
    block_matrix, combine, combine_max, concat, fraction_rows, gram_select, np,
)
# not called here: the benchmark's tracer wraps kzmono.reps.rat_mul
from .numerics import rat_mul  # noqa: F401


@dataclass(eq=False)
class Irrep:
    algebra: LieAlgebra
    highest_weight: tuple
    dim: int
    weight_of_basis_vector: list
    cartan_diagonal: list           # per simple root i: list of integers
    integer_grams: dict             # weight -> Gram of that block as (N, D)
    basis_by_weight: dict           # weight -> list of basis indices
    # label -> (N, D); the build stores the simple e_i and f_i here
    _matrices: dict = field(default_factory=dict)
    _duals: dict = field(default_factory=dict)   # a -> integer_dual_matrix


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
    the block are G.M, since <X b, v> = <b, tauX v>; each G is nonsingular,
    so the stacked M has their row space and RREF, and ``gram_select``
    takes its sparser, smaller rows. Returns ``selected``, the Gram of the
    kept vectors as (N, D), and per block its slice of the expansion,
    transposed, as (N, D): the matrix of X from the parent block into the
    new one.
    """
    selected, (exp_n, exp_d) = gram_select([
        {j: v for j, v in enumerate(row) if v} for _, (n, _) in blocks for row in n.tolist()
    ])
    num, den = concat([
        combine([(1, (g, m))], (len(g[0]), m[0].shape[1])) for g, m in blocks
    ], axis=0)
    cuts = np.cumsum([len(g[0]) for g, _ in blocks])[:-1]
    tables = [(part.T, exp_d) for part in np.split(exp_n, cuts)]
    return selected, (num[np.ix_(selected, selected)], den), tables


def irrep(alg, weight):
    """The irreducible module with the given dominant integral weight.

    A module depends on (algebra, weight) alone, so it is a constant of the
    algebra: built on first use, kept in the algebra's ``_cache`` and shared
    by every later call on that algebra object. Every matrix it hands out,
    Grams and derived matrices included, is read-only."""
    # checked first: (1.0,) == (1,), and a cached V_1 must not answer it
    weight = _highest_weight(alg, weight)
    key = ("irrep", weight)
    if key not in alg._cache:
        alg._cache[key] = build_irrep(alg, weight)
    return alg._cache[key]


def _highest_weight(alg, weight):
    weight = tuple(weight)
    if len(weight) != alg.rank:
        raise DomainError(f"highest weight must have {alg.rank} labels, got {weight!r}")
    return tuple(integer(m, "highest weight label", 0) for m in weight)


def _frozen(m):
    """An (N, D) pair with N made read-only, as every module matrix is."""
    m[0].flags.writeable = False
    return m


def build_irrep(alg, weight):
    """The module :func:`irrep` caches, built afresh and not cached: for an
    algebra made for one computation, whose cache would only tie it and the
    module into a cycle left to the garbage collector."""
    weight = _highest_weight(alg, weight)
    r = alg.rank
    alpha = [tuple(alg.cartan_matrix[i][j] for i in range(r)) for j in range(r)]

    def shift(w, i, sign):
        return tuple(a + sign * b for a, b in zip(w, alpha[i]))

    bound = weyl_dimension(alg, weight)
    weights = [weight]
    by_weight = {weight: [0]}
    grams = {weight: _frozen((np.ones((1, 1), dtype=object), 1))}
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
            if len(weights) > bound:
                # a wrong Gram leaves weights outside V_lambda nonzero
                raise ConsistencyError(
                    f"irrep {weight} grew past its Weyl dimension {bound}"
                )
            grams[mu] = _frozen(gram)
            for (nu, i), table, (num, den) in zip(spans, tables, modes):
                f_tab[(i, nu)] = table
                e_tab[(i, mu)] = num[:, selected], den
            new_layer.append(mu)
        layer = new_layer

    dim = len(weights)

    def dense(tab, i, sign):
        return _frozen(block_matrix((dim, dim), [
            (by_weight[shift(w, i, sign)], by_weight[w], t)
            for (j, w), t in tab.items() if j == i
        ]))

    matrices = {}
    for i in range(r):
        matrices[("e", i + 1, i + 2)] = dense(e_tab, i, 1)
        matrices[("f", i + 1, i + 2)] = dense(f_tab, i, -1)
    return Irrep(
        algebra=alg,
        highest_weight=weight,
        dim=dim,
        weight_of_basis_vector=weights,
        cartan_diagonal=[[w[i] for w in weights] for i in range(r)],
        integer_grams=grams,
        basis_by_weight=by_weight,
        _matrices=matrices,
    )


def integer_rep_matrix(rep, label):
    """Matrix of an algebra basis element as (N, D); cached, exact.

    Raises DomainError for a label that names no basis element of the
    algebra."""
    cached = rep._matrices.get(label)
    if cached is not None:
        return cached
    rep.algebra.index(label)
    if label[0] == "h":
        m = np.diag(np.array(rep.cartan_diagonal[label[1] - 1], dtype=object)), 1
    else:
        # E_ij = [E_ik, E_kj]; the same split works on the f side
        kind, i, j = label
        a = integer_rep_matrix(rep, (kind, i, i + 1))
        b = integer_rep_matrix(rep, (kind, i + 1, j))
        if kind == "f":
            a, b = b, a
        m = combine([(1, (a, b)), (-1, (b, a))], (rep.dim, rep.dim))
    rep._matrices[label] = _frozen(m)
    return m


def integer_dual_matrix(rep, a):
    """Matrix of x~_a, the dual of basis element ``a`` under the invariant
    form (see :func:`kzmono.liealg.dual_pairs`), as (N, D); cached, exact."""
    cached = rep._duals.get(a)
    if cached is None:
        labels = rep.algebra.basis_labels
        _, dual = dual_pairs(rep.algebra)[a]
        cached = rep._duals[a] = _frozen(combine([
            (coeff, (integer_rep_matrix(rep, labels[b]),)) for b, coeff in dual.items()
        ], (rep.dim, rep.dim)))
    return cached


def rep_matrix(rep, label):
    """Matrix of an algebra basis element as rows of ``Fraction``, read off
    :func:`integer_rep_matrix`, and like it a DomainError for a label that
    names no basis element."""
    return fraction_rows(*integer_rep_matrix(rep, label))


def casimir_value(alg, weight):
    """kappa(lambda, lambda + 2 rho), the Casimir scalar on V_lambda."""
    lam = tuple(integer(m, "highest weight label") for m in weight)
    shifted = tuple(m + 2 for m in lam)
    return weight_form(alg, lam, shifted)


def casimir(rep):
    """Evaluate sum_a J^a J^a on the module and certify it is scalar."""
    alg = rep.algebra
    ginv = alg.gram_inverse
    shape = (rep.dim, rep.dim)
    mats = [integer_rep_matrix(rep, lab) for lab in alg.basis_labels]
    c = casimir_value(alg, rep.highest_weight)
    # sum_ab Ginv_ba J^b J^a - c
    dev = combine_max([
        (ginv[b][a], (mats[b], mats[a]))
        for a in range(alg.dim)
        for b in range(alg.dim)
        if ginv[b][a]
    ] + [(-c, ())], shape)
    return CasimirReport(eigenvalue=c, is_scalar=(dev == 0), deviation=dev)


def weyl_dimension(alg, weight):
    """Weyl's product formula for dim V_lambda, on integers.

    For sl(r+1) the positive root alpha_i + ... + alpha_(j-1) pairs with
    lambda + rho to sum_(k=i)^(j-1) (lambda_k + 1) and with rho to j - i,
    so dim V_lambda is the product of those sums over the product of the
    j - i, and the division is exact.
    """
    num = den = 1
    shifted = [integer(m, "highest weight label") + 1 for m in weight]
    for i in range(alg.rank):
        pairing = 0
        for j in range(i, alg.rank):
            pairing += shifted[j]
            num *= pairing
            den *= j - i + 1
    return num // den


def weight_multiset(rep):
    """Weight -> multiplicity for a constructed module."""
    out = {}
    for w in rep.weight_of_basis_vector:
        out[w] = out.get(w, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def _weights_of(series, rank, weight):
    """The weight multiset of V_weight as ((weight, multiplicity), ...).

    Multisets are whole-program constants, so results are cached."""
    return tuple(weight_multiset(build_irrep(build_algebra(series, rank), weight)).items())


def tensor_decompose(alg, lam, mu):
    """Multiplicities of irreducibles inside V_lam (x) V_mu.

    Works by repeatedly peeling the highest remaining weight off the
    convolved weight multiset; returns {nu: multiplicity}.
    """
    def weights_of(nu):
        return _weights_of(alg.series, alg.rank, nu)

    # checked first: (True,) == (1,), and a cached multiset must not answer it
    wl, wm = (weights_of(_highest_weight(alg, nu)) for nu in (lam, mu))
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
