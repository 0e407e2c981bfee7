"""Graded truncations of integrable level-l highest-weight sl2-hat modules,
and the quadratic Virasoro operators built from current modes.

A truncation is grown degree by degree, as :func:`kzmono.reps.irrep` grows
weight block by weight block. Since [g, g] = g, degree D is spanned by the
y(-1).b, y in (f, h, e) and b in degree D - 1, and for n in {0, 1}

    x(n) y(-1) b = y(-1) x(n) b + [x, y](n-1) b + n kappa(x, y) l b

gives the columns of x(n) on that list. The Gram rows of y(-1).b are
<b, tauy(1) v>, the degree D - 1 Gram times the x(1) columns of tauy;
:func:`kzmono.reps.quotient_step` keeps a maximal subset with nonsingular
Gram, selected from those columns, and its expansions over that subset are
the tables of y(-1) into D.
The tables of x(1) and, once y(-1) is stored, of x(0) out of D are the kept
columns. Every basis vector is an h-weight vector, so the weights are the
diagonal of h(0). Every mode with |n| >= 2 is derived on first use, and
cached, by one bracket rule x(n) = c [a(s), b(n-s)], s = sign n, from
e = [h, e]/2, f = -[h, f]/2 and h = [e, f] (no central term, as n != 0).
The central element acts by the level throughout, and the quotient by the
form's radical is what makes the module integrable rather than a
generalized Verma module. Mode operators are stored per source degree;
blocks whose target exceeds the truncation are absent, never silently zero.

Every mode table, Gram block and quadratic-operator block is stored in the
dense exact format (N, D) of :mod:`kzmono.numerics`, held once as a
:class:`kzmono.numerics.Held` pair: N is int64 when every entry fits and
Python ints otherwise, read-only, and kept with max|N|. So ``combine``
takes the tables as they are and bounds them without reading them again,
and the products run on float64 or int64 when that bound admits it. All
the algebra on them (the commutation and bracket rules, the Gram rows, the
quadratic sums and the bracket residuals) is one ``combine`` of products,
which walks its terms once and costs about 11 us a call and 3 to 4 us a
term beyond the products themselves; the rational weights of L_n and of a
residual's right-hand side are formed once per operator, outside the loop
over source degrees.
The x(1) columns reach ``gram_select`` as their integer N: the RREF, hence
the selection and the expansions, does not change under scaling.
``action_matrix`` gives rows of ``Fraction`` (None for an absent block), and
``graded_weights`` Python ints.

The quadratic operators use the dual-basis contraction sum_ab Ginv_ab
x_a(p) x_b(q), which equals the orthonormal-basis sum and keeps every entry
rational. Only the p + q = 0 diagonal needs an ordering convention: the
zero-index operator is assembled as (1/2) sum_a J^a J^a plus the
annihilation-right tail sum_{k>=1} J^a(-k) J^a(k). The Virasoro, [L_n, X(k)]
and affine bracket identities are all checked by one residual loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, integer
from .liealg import LieAlgebra, build_algebra
from .numerics import (
    Held, block_matrix, combine_held, combine_max, concat, fraction_rows, np,
)
# not called here: the benchmark's tracer wraps kzmono.sugawara.rat_mul and
# kzmono.sugawara.gram_select
from .numerics import gram_select, rat_mul  # noqa: F401
from .reps import build_irrep, casimir_value, integer_rep_matrix, quotient_step
# not called here: the benchmark's tracer wraps kzmono.sugawara.irrep
from .reps import irrep  # noqa: F401

ZERO = Fraction(0)

GENS = ("f", "h", "e")  # canonical generator order for spanning monomials
_TAU = {"e": "f", "f": "e", "h": "h"}
# sl2 brackets [x, y] = sum coeff * gen
_BRACKET = {
    ("e", "f"): (("h", Fraction(1)),),
    ("f", "e"): (("h", Fraction(-1)),),
    ("h", "e"): (("e", Fraction(2)),),
    ("e", "h"): (("e", Fraction(-2)),),
    ("h", "f"): (("f", Fraction(-2)),),
    ("f", "h"): (("f", Fraction(2)),),
}
_KAPPA = {("e", "f"): Fraction(1), ("f", "e"): Fraction(1), ("h", "h"): Fraction(2)}
# dual-basis pairs (x, y, coeff) with sum coeff * x (x) y = Casimir tensor
_DUAL_TERMS = (("e", "f", Fraction(1)), ("f", "e", Fraction(1)), ("h", "h", Fraction(1, 2)))


def central_charge(level, alg=None):
    """l dim(g) / (l + h_vee); defaults to sl2."""
    level = integer(level, "level")
    if alg is None:
        dim, hv = 3, 2
    else:
        dim, hv = alg.dim, alg.dual_coxeter
    return Fraction(level * dim, level + hv)


def conformal_weight(level, m):
    """Eigenvalue of the zero-index Virasoro operator on the top space."""
    level, m = integer(level, "level"), integer(m, "weight")
    return casimir_value(build_algebra("A", 1), (m,)) / (2 * (level + 2))


@dataclass(eq=False)
class TruncatedModule:
    algebra: LieAlgebra
    level: int
    highest_weight: int
    depth: int
    graded_dims: list
    graded_bases: list          # labels (1, gen, parent_index) per degree; degree 0: V indices
    vlambda: object
    _grams: list                # Gram matrix per degree, as a Held (N, D)
    _tables: dict = field(default_factory=dict)   # (gen, n, src) -> Held (N, D)
    _ln_cache: dict = field(default_factory=dict)

    def action_matrix(self, gen, n, src):
        """Matrix of gen(n) from degree src to degree src - n.

        Returns None when the target lies outside the truncation (absent
        block); a genuine zero map (annihilation below degree 0) is an
        all-zero matrix.
        """
        n, src = integer(n, "mode index"), integer(src, "source degree", 0, self.depth + 1)
        blk = _block(self, _mode(self, gen, n), src)
        return None if blk is None else fraction_rows(*blk)


def truncated_module(level, m, depth, depth_guard=6):
    """Build the depth-truncated integrable module at the given level.

    Degrees run 0..depth; degree 0 is the finite module of highest weight m.
    """
    level, m = integer(level, "level", 1), integer(m, "weight", 0)
    depth = integer(depth, "depth", 0)
    if m > level:
        raise DomainError(
            f"weight {m} is not integrable at level {level} (needs m <= level)"
        )
    if depth > depth_guard:
        raise DomainError(
            f"depth {depth} exceeds the guard {depth_guard}; raise depth_guard "
            "explicitly for larger truncations"
        )

    alg = build_algebra("A", 1)
    vl = build_irrep(alg, (m,))
    d0 = vl.dim

    mod = TruncatedModule(
        algebra=alg,
        level=level,
        highest_weight=m,
        depth=depth,
        graded_dims=[d0],
        graded_bases=[list(range(d0))],
        vlambda=vl,
        _grams=[Held(*block_matrix((d0, d0), [
            (idxs, idxs, vl.integer_grams[w]) for w, idxs in vl.basis_by_weight.items()
        ]))],
    )
    for label in (("e", 1, 2), ("f", 1, 2), ("h", 1)):
        mod._tables[(label[0], 0, 0)] = Held(*integer_rep_matrix(vl, label))

    for deg in range(1, depth + 1):
        _grow_one_degree(mod, deg)
    return mod


def graded_weights(mod):
    """Per degree, the h-weight of every basis vector: the diagonal of h(0),
    whose entries are integers as every basis vector is an h-weight vector."""
    tables = (mod._tables[("h", 0, deg)] for deg in range(mod.depth + 1))
    return [[w // den for w in num.diagonal().tolist()] for num, den in tables]


def graded_character(mod):
    """{(degree, h-weight): dimension} for the constructed truncation."""
    char = {}
    for deg, ws in enumerate(graded_weights(mod)):
        for w in ws:
            char[(deg, w)] = char.get((deg, w), 0) + 1
    return char


def _commute(mod, x, n, deg):
    """x(n), n in {0, 1}, on the spanning list y(-1) b of degree deg, as
    (N, D) with one column per vector, by the commutation rule

        x(n) y(-1) b = y(-1) x(n) b + [x, y](n-1) b + n kappa(x, y) l b.

    Every table it reads maps out of degree deg - 1 or below, except y(-1)
    and [x, y](-1) into deg itself when n = 0; those must be stored first.
    """
    src = deg - 1
    tables = mod._tables
    blocks = []
    for y in GENS:
        terms = [(coeff, (tables[(g, n - 1, src)],)) for g, coeff in _BRACKET.get((x, y), ())]
        if src >= n:
            terms.append((1, (tables[(y, -1, src - n)], tables[(x, n, src)])))
        if n and (x, y) in _KAPPA:
            terms.append((_KAPPA[(x, y)] * mod.level, ()))
        blocks.append(combine_held(terms, (mod.graded_dims[deg - n], mod.graded_dims[src])))
    return concat(blocks, axis=1)


def _grow_one_degree(mod, deg):
    spanning = [(1, y, b) for y in GENS for b in range(mod.graded_dims[deg - 1])]
    raising = {x: _commute(mod, x, 1, deg) for x in GENS}
    # <y(-1) b, v> = <b, tauy(1) v>; the expansions give y(-1) into deg
    selected, gram, tables = quotient_step(
        [(mod._grams[deg - 1], raising[_TAU[y]]) for y in GENS]
    )
    mod.graded_dims.append(len(selected))
    mod.graded_bases.append([spanning[j] for j in selected])
    mod._grams.append(Held(*gram))
    for y, table in zip(GENS, tables):
        mod._tables[(y, -1, deg - 1)] = Held(*table)
    # the tables out of the new degree are the kept columns
    for x in GENS:
        for n, (num, den) in ((0, _commute(mod, x, 0, deg)), (1, raising[x])):
            mod._tables[(x, n, deg)] = Held(num[:, selected], den)


# x(n) = c [a(s), b(n-s)] for |n| >= 2, s = sign n, as x -> (a, b, c)
_DERIVE = {"e": ("h", "e", Fraction(1, 2)), "f": ("h", "f", Fraction(-1, 2)), "h": ("e", "f", 1)}


def _table(mod, gen, n, src):
    """gen(n) from degree src to src - n as (N, D), both degrees inside the
    truncation; |n| >= 2 is derived and cached, via degrees between the two."""
    key = (gen, n, src)
    cached = mod._tables.get(key)
    if cached is not None:
        return cached
    a, b, c = _DERIVE[gen]
    s = 1 if n > 0 else -1
    table = combine_held([
        (c, (_table(mod, a, s, src - n + s), _table(mod, b, n - s, src))),
        (-c, (_table(mod, b, n - s, src - s), _table(mod, a, s, src))),
    ], (mod.graded_dims[src - n], mod.graded_dims[src]))
    mod._tables[key] = table
    return table


# ---------------------------------------------------------------------------
# quadratic (Virasoro) operators
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VirasoroOperator:
    module: TruncatedModule
    index: int
    blocks: dict   # source degree -> Held (N, D) of the block degree k -> k - index


def ln_operator(mod, n):
    """The index-n Virasoro operator on every available graded block.

    L_n = (1 / 2(l + h_vee)) sum_m sum_a :J^a(m) J^a(n-m):, organized with
    annihilation modes rightmost; on a fixed graded piece the sum is finite.
    Results are cached on the module (it is immutable once built).
    """
    n = integer(n, "mode index")
    if abs(n) > mod.depth:
        raise DomainError(f"|n| = {abs(n)} exceeds the truncation depth {mod.depth}")
    cache = mod._ln_cache
    if n in cache:
        return cache[n]
    # sum_ab Ginv_ab x_a(n-q) x_b(q) with q >= n - q acting first; the
    # pair q = n - q is counted once, every other pair twice
    once = [(x, y, Fraction(coeff, 2 * (mod.level + 2))) for x, y, coeff in _DUAL_TERMS]
    twice = [(x, y, 2 * w) for x, y, w in once]
    blocks = {}
    for src in range(mod.depth + 1):
        tgt = src - n
        if not (0 <= tgt <= mod.depth):
            continue
        blocks[src] = combine_held([
            (w, (_table(mod, x, n - q, src - q), _table(mod, y, q, src)))
            for q in range(-(-n // 2), src + 1)
            for x, y, w in (once if 2 * q == n else twice)
        ], (mod.graded_dims[tgt], mod.graded_dims[src]))
    op = VirasoroOperator(module=mod, index=n, blocks=blocks)
    cache[n] = op
    return op


def _mode(mod, gen, n):
    """gen(n) as an operator (index, block getter) for _block."""
    if gen not in _TAU:
        raise DomainError(f"unknown sl2 generator {gen!r}")
    return n, lambda src: _table(mod, gen, n, src)


def _block(mod, op, src):
    """Block (N, D) of op = (index n, block getter) from degree src to
    src - n.

    None = absent (beyond the truncation); a zero matrix with collapsed
    dimensions = annihilation below degree 0.
    """
    n, get = op
    tgt = src - n
    if src > mod.depth or tgt > mod.depth:
        return None
    if src < 0 or tgt < 0:
        shape = [mod.graded_dims[d] if d >= 0 else 0 for d in (tgt, src)]
        return Held(np.zeros(shape, dtype=np.int64), 1)
    return get(src)


def _bracket_residual(mod, a, b, rhs, central):
    """Max residual of [A, B] - sum coeff C - central 1 over every source
    degree where all the blocks exist.

    A, B and each C of rhs = ((coeff, C), ...) are (index, block getter)
    operators; the central term only enters when [A, B] preserves degree.
    Exact rational; 0 when the relation holds on all of those degrees.
    """
    p, q = a[0], b[0]
    negated = [-coeff for coeff, _ in rhs]
    identity = [(-central, ())] if central else []
    worst = ZERO
    for src in range(mod.depth + 1):
        tgt = src - p - q
        if not (0 <= tgt <= mod.depth):
            continue
        parts = [_block(mod, b, src), _block(mod, a, src - q),
                 _block(mod, a, src), _block(mod, b, src - p)]
        parts += [_block(mod, c, src) for _, c in rhs]
        if any(blk is None for blk in parts):
            continue
        terms = [(1, (parts[1], parts[0])), (-1, (parts[3], parts[2]))]
        terms += [(coeff, (blk,)) for coeff, blk in zip(negated, parts[4:])]
        if tgt == src:
            terms += identity
        worst = max(worst, combine_max(terms, (mod.graded_dims[tgt], mod.graded_dims[src])))
    return worst


def _indices(mod, *indices):
    """The mode indices as Python ints, each checked against the depth."""
    indices = [integer(idx, "mode index") for idx in indices]
    for idx in indices:
        if abs(idx) > mod.depth:
            raise DomainError(f"index {idx} exceeds the truncation depth")
    return indices


def virasoro_bracket_check(mod, p, q):
    """Max residual of [L_p, L_q] = (p-q) L_{p+q} + d_{p+q,0} (p^3-p)/12 c_v."""
    p, q = _indices(mod, p, q)
    _indices(mod, p + q)
    lp, lq, lpq = ((i, ln_operator(mod, i).blocks.get) for i in (p, q, p + q))
    central = Fraction(p**3 - p, 12) * central_charge(mod.level)
    return _bracket_residual(mod, lp, lq, [(p - q, lpq)], central)


def lx_commutator_check(mod, n, gen, k):
    """Max residual of [L_n, X(k)] = -k X(n+k) over fully defined blocks."""
    n, k = _indices(mod, n, k)
    ln = ln_operator(mod, n)
    return _bracket_residual(mod, (n, ln.blocks.get), _mode(mod, gen, k),
                             [(-k, _mode(mod, gen, n + k))], ZERO)


def affine_bracket_check(mod, x, p, y, q):
    """Max residual of [X(p), Y(q)] = [X,Y](p+q) + p d_{p+q,0} kappa(X,Y) l."""
    p, q = _indices(mod, p, q)
    rhs = [(coeff, _mode(mod, g, p + q)) for g, coeff in _BRACKET.get((x, y), ())]
    central = p * _KAPPA.get((x, y), ZERO) * mod.level
    return _bracket_residual(mod, _mode(mod, x, p), _mode(mod, y, q), rhs, central)
