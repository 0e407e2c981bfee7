"""Graded truncations of integrable level-l highest-weight sl2-hat modules,
and the quadratic Virasoro operators built from current modes.

A truncation is grown degree by degree. At degree D the vectors X(-k).b
with b from lower degrees span everything, and one commutation rule,

    x(n) y(-k) b = y(-k) x(n) b + [x, y](n-k) b + n d_{n,k} kappa(x, y) l b,

gives the columns of every positive mode x(n) on that spanning list from
data of lower degrees. The Gram and the positive-mode tables come from the
same mode columns: the Gram rows of X(-k).b are <b, tauX(k) v>, the degree
D - k Gram times the columns of tauX(k). That quotient step is
:func:`kzmono.reps.quotient_step`, the one that grows the finite irreps
weight block by weight block: it keeps a maximal subset with nonsingular
Gram, and the negative modes into D express the spanning vectors over that
subset. The positive-mode tables out of degree D are the kept columns, and
zero modes on D follow from the same rule with n = 0. The
central element acts by the level throughout, and the quotient by the
form's radical is what makes the module integrable rather than a
generalized Verma module. Mode operators are stored per source degree;
blocks whose target exceeds the truncation are absent, never silently zero.

Every mode table, Gram block and quadratic-operator block is stored in the
dense exact format (N, D) of :mod:`kzmono.numerics`, and all the algebra
on them (the commutation rule on a block of spanning vectors, the Gram
rows, the quadratic sums and the bracket residuals) is one ``combine`` of
products. The Gram reaches ``gram_select`` as the integer matrix N: its
RREF, hence the selection and the expansions, does not change under
scaling. ``action_matrix``, ``shapovalov_gram`` and
``VirasoroOperator.block`` give rows of ``Fraction``.

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

from .errors import DomainError
from .liealg import LieAlgebra, build_algebra
from .numerics import block_matrix, combine, concat, fraction_rows, np
# not called here: the benchmark's tracer wraps kzmono.sugawara.rat_mul and
# kzmono.sugawara.gram_select
from .numerics import gram_select, rat_mul  # noqa: F401
from .reps import casimir_value, integer_rep_matrix, irrep, quotient_step

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
    if alg is None:
        dim, hv = 3, 2
    else:
        dim, hv = alg.dim, alg.dual_coxeter
    return Fraction(level * dim, level + hv)


def conformal_weight(level, m):
    """Eigenvalue of the zero-index Virasoro operator on the top space."""
    return casimir_value(build_algebra("A", 1), (m,)) / (2 * (level + 2))


@dataclass(eq=False)
class TruncatedModule:
    algebra: LieAlgebra
    level: int
    highest_weight: int
    depth: int
    graded_dims: list
    graded_bases: list          # labels (k, gen, parent_index) per degree; degree 0: V indices
    vlambda: object
    _grams: list                # Gram matrix per degree, as (N, D)
    _tables: dict = field(default_factory=dict)   # (gen, n, src) -> (N, D)
    _ln_cache: dict = field(default_factory=dict)

    @property
    def shapovalov_gram(self):
        """The exact Gram matrix per degree, as rows of ``Fraction``."""
        return [fraction_rows(*g) for g in self._grams]

    def action_matrix(self, gen, n, src):
        """Matrix of gen(n) from degree src to degree src - n.

        Returns None when the target lies outside the truncation (absent
        block); a genuine zero map (annihilation below degree 0) is an
        all-zero matrix.
        """
        if not (0 <= src <= self.depth):
            raise DomainError(f"source degree {src} outside truncation")
        blk = _block(self, _mode(self, gen, n), src)
        return None if blk is None else fraction_rows(*blk)


def truncated_module(level, m, depth, depth_guard=6):
    """Build the depth-truncated integrable module at the given level.

    Degrees run 0..depth; degree 0 is the finite module of highest weight m.
    """
    if not isinstance(level, int) or level < 1:
        raise DomainError(f"level must be a positive integer, got {level!r}")
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"weight must be a nonnegative integer, got {m!r}")
    if m > level:
        raise DomainError(
            f"weight {m} is not integrable at level {level} (needs m <= level)"
        )
    if not isinstance(depth, int) or depth < 0:
        raise DomainError(f"depth must be a nonnegative integer, got {depth!r}")
    if depth > depth_guard:
        raise DomainError(
            f"depth {depth} exceeds the guard {depth_guard}; raise depth_guard "
            "explicitly for larger truncations"
        )

    alg = build_algebra("A", 1)
    vl = irrep(alg, (m,))
    d0 = vl.dim
    ell = Fraction(level)

    mod = TruncatedModule(
        algebra=alg,
        level=level,
        highest_weight=m,
        depth=depth,
        graded_dims=[d0],
        graded_bases=[list(range(d0))],
        vlambda=vl,
        _grams=[block_matrix((d0, d0), [
            (idxs, idxs, vl.integer_grams[w]) for w, idxs in vl.basis_by_weight.items()
        ])],
    )
    mod._tables[("e", 0, 0)] = integer_rep_matrix(vl, ("e", 1, 2))
    mod._tables[("f", 0, 0)] = integer_rep_matrix(vl, ("f", 1, 2))
    mod._tables[("h", 0, 0)] = integer_rep_matrix(vl, ("h", 1))

    for deg in range(1, depth + 1):
        _grow_one_degree(mod, deg, ell)
    return mod


_GEN_WEIGHT = {"e": 2, "f": -2, "h": 0}


def graded_weights(mod):
    """Per degree, the h-weight of every basis vector (labels carry pure
    weights, so this is a recursion over the construction provenance)."""
    out = [[mod.vlambda.cartan_diagonal[0][b] for b in mod.graded_bases[0]]]
    for deg in range(1, mod.depth + 1):
        level_w = []
        for k, gen, b in mod.graded_bases[deg]:
            level_w.append(out[deg - k][b] + _GEN_WEIGHT[gen])
        out.append(level_w)
    return out


def graded_character(mod):
    """{(degree, h-weight): dimension} for the constructed truncation."""
    char = {}
    for deg, ws in enumerate(graded_weights(mod)):
        for w in ws:
            char[(deg, w)] = char.get((deg, w), 0) + 1
    return char


def _commute(mod, x, n, k, y, deg, ell, cols):
    """x(n) on the spanning vectors y(-k) b of degree deg, for the b of
    degree deg - k listed in ``cols``, as (N, D) with one column per b, by
    the commutation rule

        x(n) y(-k) b = y(-k) x(n) b + [x, y](n-k) b + n d_{n,k} kappa(x, y) l b.

    Every table it reads maps out of a degree below deg, except y(-k) and
    [x, y](-k) into deg itself when n = 0; those must be stored first.
    """
    src = deg - k
    tables = mod._tables

    def on_cols(key):
        num, den = tables[key]
        return num[:, cols], den

    terms = [(coeff, (on_cols((g, n - k, src)),)) for g, coeff in _BRACKET.get((x, y), ())]
    if src >= n:
        terms.append((1, (tables[(y, -k, src - n)], on_cols((x, n, src)))))
    if n == k and (x, y) in _KAPPA:
        unit = np.eye(mod.graded_dims[src], dtype=object)[:, cols], 1
        terms.append((n * _KAPPA[(x, y)] * ell, (unit,)))
    return combine(terms, (mod.graded_dims[deg - n], len(cols)))


def _grow_one_degree(mod, deg, ell):
    dims = mod.graded_dims
    blocks = [(k, gen) for k in range(deg, 0, -1) for gen in GENS]
    spanning = [(k, gen, b) for k, gen in blocks for b in range(dims[deg - k])]

    def on_labels(x, n, labels):
        # x(n) on the spanning labels given, in their order, one column each
        return concat([
            _commute(mod, x, n, k, y, deg, ell,
                     [b for kb, yb, b in labels if (kb, yb) == (k, y)])
            for k, y in blocks
        ], axis=1)

    modes = {(x, n): on_labels(x, n, spanning) for n in range(1, deg + 1) for x in GENS}
    # <X(-k) b, v> = <b, tauX(k) v>; the expansions give the negative modes
    selected, gram, tables = quotient_step(
        [(mod._grams[deg - k], modes[(_TAU[gen], k)]) for k, gen in blocks]
    )
    dims.append(len(selected))
    mod.graded_bases.append([spanning[j] for j in selected])
    mod._grams.append(gram)
    for (k, gen), table in zip(blocks, tables):
        mod._tables[(gen, -k, deg - k)] = table
    # zero modes on the new degree, which need the negative modes above
    for x in GENS:
        mod._tables[(x, 0, deg)] = on_labels(x, 0, mod.graded_bases[deg])
    # positive modes out of the new degree: the selected mode columns
    for (x, n), (num, den) in modes.items():
        mod._tables[(x, n, deg)] = num[:, selected], den


# ---------------------------------------------------------------------------
# quadratic (Virasoro) operators
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VirasoroOperator:
    module: TruncatedModule
    index: int
    blocks: dict   # source degree -> (N, D) of the block degree k -> k - index

    def block(self, src):
        """The block out of degree src as rows of ``Fraction``, or None."""
        blk = self.blocks.get(src)
        return None if blk is None else fraction_rows(*blk)


def ln_operator(mod, n):
    """The index-n Virasoro operator on every available graded block.

    L_n = (1 / 2(l + h_vee)) sum_m sum_a :J^a(m) J^a(n-m):, organized with
    annihilation modes rightmost; on a fixed graded piece the sum is finite.
    Results are cached on the module (it is immutable once built).
    """
    if abs(n) > mod.depth:
        raise DomainError(f"|n| = {abs(n)} exceeds the truncation depth {mod.depth}")
    cache = mod._ln_cache
    if n in cache:
        return cache[n]
    norm = Fraction(1, 2 * (mod.level + 2))
    tables = mod._tables
    blocks = {}
    for src in range(mod.depth + 1):
        tgt = src - n
        if not (0 <= tgt <= mod.depth):
            continue
        # sum_ab Ginv_ab x_a(n-q) x_b(q) with q >= n - q acting first; the
        # pair q = n - q is counted once, every other pair twice
        blocks[src] = combine([
            ((norm if 2 * q == n else 2 * norm) * coeff,
             (tables[(x, n - q, src - q)], tables[(y, q, src)]))
            for q in range(-(-n // 2), src + 1)
            for x, y, coeff in _DUAL_TERMS
        ], (mod.graded_dims[tgt], mod.graded_dims[src]))
    op = VirasoroOperator(module=mod, index=n, blocks=blocks)
    cache[n] = op
    return op


def _dim(mod, deg):
    return mod.graded_dims[deg] if 0 <= deg <= mod.depth else 0


def _mode(mod, gen, n):
    """gen(n) as an operator (index, block getter) for _block."""
    if gen not in _TAU:
        raise DomainError(f"unknown sl2 generator {gen!r}")
    return n, lambda src: mod._tables[(gen, n, src)]


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
        return np.zeros((_dim(mod, tgt), _dim(mod, src)), dtype=object), 1
    return get(src)


def _bracket_residual(mod, a, b, rhs, central):
    """Max residual of [A, B] - sum coeff C - central 1 over every source
    degree where all the blocks exist.

    A, B and each C of rhs = ((coeff, C), ...) are (index, block getter)
    operators; the central term only enters when [A, B] preserves degree.
    Exact rational; 0 when the relation holds on all of those degrees.
    """
    p, q = a[0], b[0]
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
        terms += [(-coeff, (blk,)) for (coeff, _), blk in zip(rhs, parts[4:])]
        if tgt == src and central:
            terms.append((-central, ()))
        num, den = combine(terms, (mod.graded_dims[tgt], mod.graded_dims[src]))
        worst = max(worst, Fraction(max(map(abs, num.flat), default=0), den))
    return worst


def virasoro_bracket_check(mod, p, q):
    """Max residual of [L_p, L_q] = (p-q) L_{p+q} + d_{p+q,0} (p^3-p)/12 c_v."""
    for idx in (p, q, p + q):
        if abs(idx) > mod.depth:
            raise DomainError(f"index {idx} exceeds the truncation depth")
    lp, lq, lpq = ((i, ln_operator(mod, i).blocks.get) for i in (p, q, p + q))
    central = Fraction(p**3 - p, 12) * central_charge(mod.level)
    return _bracket_residual(mod, lp, lq, [(p - q, lpq)], central)


def lx_commutator_check(mod, n, gen, k):
    """Max residual of [L_n, X(k)] = -k X(n+k) over fully defined blocks."""
    ln = ln_operator(mod, n)
    return _bracket_residual(mod, (n, ln.blocks.get), _mode(mod, gen, k),
                             [(-k, _mode(mod, gen, n + k))], ZERO)


def affine_bracket_check(mod, x, p, y, q):
    """Max residual of [X(p), Y(q)] = [X,Y](p+q) + p d_{p+q,0} kappa(X,Y) l."""
    rhs = [(coeff, _mode(mod, g, p + q)) for g, coeff in _BRACKET.get((x, y), ())]
    central = p * _KAPPA.get((x, y), ZERO) * mod.level
    return _bracket_residual(mod, _mode(mod, x, p), _mode(mod, y, q), rhs, central)
