"""Graded truncations of integrable level-l highest-weight sl2-hat modules,
and the quadratic Virasoro operators built from current modes.

A truncation is grown degree by degree: at degree D the vectors X(-k).b with
b from lower degrees span everything, their contravariant pairings reduce
recursively to data one degree down, and a maximal subset with nonsingular
Gram is kept. The central element acts by the level throughout, and the
quotient by the form's radical is what makes the module integrable rather
than a generalized Verma module. Mode operators are stored as exact matrices
per source degree; blocks whose target exceeds the truncation are absent,
never silently zero.

The quadratic operators use the dual-basis contraction sum_ab Ginv_ab
x_a(p) x_b(q), which equals the orthonormal-basis sum and keeps every entry
rational. Only the p + q = 0 diagonal needs an ordering convention: the
zero-index operator is assembled as (1/2) sum_a J^a J^a plus the
annihilation-right tail sum_{k>=1} J^a(-k) J^a(k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .liealg import LieAlgebra, build_algebra
from .numerics import gram_select, rat_max_abs, rat_mul, rat_zeros
from .reps import casimir_value, irrep

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
    shapovalov_gram: list       # exact Gram matrix per degree
    vlambda: object
    _tables: dict = field(default_factory=dict)
    _ln_cache: dict = field(default_factory=dict)

    def action_matrix(self, gen, n, src):
        """Matrix of gen(n) from degree src to degree src - n.

        Returns None when the target lies outside the truncation (absent
        block); a genuine zero map (annihilation below degree 0) is an
        all-zero matrix.
        """
        if gen not in _TAU:
            raise DomainError(f"unknown sl2 generator {gen!r}")
        if not (0 <= src <= self.depth):
            raise DomainError(f"source degree {src} outside truncation")
        tgt = src - n
        if tgt > self.depth:
            return None
        if tgt < 0:
            return rat_zeros(0, self.graded_dims[src])
        return self._tables[(gen, n, src)]


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

    gram0 = rat_zeros(d0, d0)
    for w, idxs in vl.basis_by_weight.items():
        blk = vl.gram_blocks[w]
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                gram0[ia][ib] = blk[a][b]

    mod = TruncatedModule(
        algebra=alg,
        level=level,
        highest_weight=m,
        depth=depth,
        graded_dims=[d0],
        graded_bases=[list(range(d0))],
        shapovalov_gram=[gram0],
        vlambda=vl,
    )
    rep_mat = {
        "e": vl.raising[0],
        "f": vl.lowering[0],
        "h": [
            [Fraction(vl.cartan_diagonal[0][b]) if a == b else ZERO for b in range(d0)]
            for a in range(d0)
        ],
    }
    for g in GENS:
        mod._tables[(g, 0, 0)] = rep_mat[g]

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


def _apply(mod, gen, n, src, vec):
    """Apply gen(n) to a coordinate vector at degree src; None when the
    target block is absent, zero-length vector when annihilated below 0."""
    tgt = src - n
    if tgt < 0:
        return []
    t = mod._tables[(gen, n, src)]
    out = [ZERO] * len(t)
    for c, x in enumerate(vec):
        if x:
            for r in range(len(t)):
                if t[r][c]:
                    out[r] += t[r][c] * x
    return out


def _grow_one_degree(mod, deg, ell):
    dims = mod.graded_dims
    spanning = [
        (k, gen, b)
        for k in range(deg, 0, -1)
        for gen in GENS
        for b in range(dims[deg - k])
    ]
    s = len(spanning)

    def pair(p, q):
        # <X(-k) b, Y(-kp) bp> = <b, tauX(k) Y(-kp) bp>
        k, x, b = spanning[p]
        kp, y, bp = spanning[q]
        tx = _TAU[x]
        src = deg - kp
        total = [ZERO] * dims[deg - k]
        # route 1: Y(-kp) (tauX(k) bp)
        mid = deg - kp - k
        if mid >= 0:
            unit = [ZERO] * dims[src]
            unit[bp] = Fraction(1)
            v1 = _apply(mod, tx, k, src, unit)
            if v1:
                v2 = _apply(mod, y, -kp, mid, v1)
                for r, val in enumerate(v2):
                    total[r] += val
        # route 2: [tauX, Y](k - kp) bp
        for g, coeff in _BRACKET.get((tx, y), ()):
            unit = [ZERO] * dims[src]
            unit[bp] = coeff
            v = _apply(mod, g, k - kp, src, unit)
            for r, val in enumerate(v):
                total[r] += val
        # route 3: central term k delta_{k,kp} kappa(tauX, Y) level
        if k == kp:
            kap = _KAPPA.get((tx, y), ZERO)
            if kap:
                total[bp] += k * kap * ell
        g0 = mod.shapovalov_gram[deg - k]
        return sum(
            g0[b][r] * val for r, val in enumerate(total) if val
        )

    gram = rat_zeros(s, s)
    for p in range(s):
        for q in range(p, s):
            v = pair(p, q)
            gram[p][q] = gram[q][p] = v
    selected, expand = gram_select(gram)
    dim_new = len(selected)
    mod.graded_dims.append(dim_new)
    mod.graded_bases.append([spanning[j] for j in selected])
    mod.shapovalov_gram.append(
        [[gram[a][b] for b in selected] for a in selected]
    )

    # negative-mode tables into the new degree, from the spanning expansions
    for k in range(1, deg + 1):
        for gen in GENS:
            src = deg - k
            cols = []
            for b in range(mod.graded_dims[src] if src >= 0 else 0):
                j = spanning.index((k, gen, b))
                cols.append(expand[j])
            t = rat_zeros(dim_new, len(cols))
            for c, col in enumerate(cols):
                for r, v in enumerate(col):
                    t[r][c] = v
            mod._tables[(gen, -k, src)] = t

    # zero-mode tables on the new degree:
    #   X(0) (Y(-k) b) = Y(-k) X(0) b + [X, Y](-k) b
    for x in GENS:
        t = rat_zeros(dim_new, dim_new)
        for c, (k, y, b) in enumerate(mod.graded_bases[deg]):
            src = deg - k
            unit = [ZERO] * mod.graded_dims[src]
            unit[b] = Fraction(1)
            acc = [ZERO] * dim_new
            v0 = _apply(mod, x, 0, src, unit)
            for r, val in enumerate(_apply(mod, y, -k, src, v0)):
                acc[r] += val
            for g, coeff in _BRACKET.get((x, y), ()):
                unit2 = [ZERO] * mod.graded_dims[src]
                unit2[b] = coeff
                for r, val in enumerate(_apply(mod, g, -k, src, unit2)):
                    acc[r] += val
            for r, val in enumerate(acc):
                t[r][c] = val
        mod._tables[(x, 0, deg)] = t

    # positive-mode tables from the new degree:
    #   X(n) Y(-k) b = Y(-k) X(n) b + [X, Y](n-k) b + n d_{n,k} kappa(X,Y) l b
    for n in range(1, deg + 1):
        for x in GENS:
            tgt = deg - n
            t = rat_zeros(mod.graded_dims[tgt], dim_new)
            for c, (k, y, b) in enumerate(mod.graded_bases[deg]):
                src = deg - k
                unit = [ZERO] * mod.graded_dims[src]
                unit[b] = Fraction(1)
                acc = [ZERO] * mod.graded_dims[tgt]
                mid = src - n
                if mid >= 0:
                    v0 = _apply(mod, x, n, src, unit)
                    for r, val in enumerate(_apply(mod, y, -k, mid, v0)):
                        acc[r] += val
                for g, coeff in _BRACKET.get((x, y), ()):
                    unit2 = [ZERO] * mod.graded_dims[src]
                    unit2[b] = coeff
                    v = _apply(mod, g, n - k, src, unit2)
                    if v and len(v) == len(acc):
                        for r, val in enumerate(v):
                            acc[r] += val
                if n == k:
                    kap = _KAPPA.get((x, y), ZERO)
                    if kap:
                        scaled = n * kap * ell
                        # b sits at degree src == tgt here
                        for r, val in enumerate(unit):
                            if val:
                                acc[r] += scaled * val
                for r, val in enumerate(acc):
                    t[r][c] = val
            mod._tables[(x, n, deg)] = t


# ---------------------------------------------------------------------------
# quadratic (Virasoro) operators
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VirasoroOperator:
    module: TruncatedModule
    index: int
    blocks: dict   # source degree -> exact matrix (degree k -> k - index)

    def block(self, src):
        return self.blocks.get(src)


def _pair_mode_product(mod, p, q, src):
    """sum_ab Ginv_ab x_a(p) x_b(q) from degree src (q acts first)."""
    mid = src - q
    tgt = src - q - p
    out = rat_zeros(mod.graded_dims[tgt], mod.graded_dims[src])
    if mid < 0 or q > src:
        return out
    for x, y, coeff in _DUAL_TERMS:
        right = mod._tables[(y, q, src)] if q <= src else None
        if right is None:
            continue
        left = mod._tables[(x, p, mid)]
        prod = rat_mul(left, right)
        for r in range(len(out)):
            for c in range(len(out[0]) if out else 0):
                if prod[r][c]:
                    out[r][c] += coeff * prod[r][c]
    return out


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
    blocks = {}
    for src in range(mod.depth + 1):
        tgt = src - n
        if not (0 <= tgt <= mod.depth):
            continue
        acc = rat_zeros(mod.graded_dims[tgt], mod.graded_dims[src])
        qmin = n // 2 + 1
        for q in range(qmin, src + 1):
            term = _pair_mode_product(mod, n - q, q, src)
            for r in range(len(acc)):
                for c in range(len(acc[0]) if acc else 0):
                    if term[r][c]:
                        acc[r][c] += 2 * term[r][c]
        if n % 2 == 0:
            q = n // 2
            if q <= src:
                term = _pair_mode_product(mod, q, q, src)
                for r in range(len(acc)):
                    for c in range(len(acc[0]) if acc else 0):
                        if term[r][c]:
                            acc[r][c] += term[r][c]
        blocks[src] = [[norm * x for x in row] for row in acc]
    op = VirasoroOperator(module=mod, index=n, blocks=blocks)
    cache[n] = op
    return op


def _dim(mod, deg):
    return mod.graded_dims[deg] if 0 <= deg <= mod.depth else 0


def _mode_block(mod, gen, n, src):
    """gen(n): degree src -> src - n. None = absent (beyond the truncation);
    a zero matrix with collapsed dimensions = annihilation below degree 0."""
    tgt = src - n
    if src > mod.depth or tgt > mod.depth:
        return None
    if src < 0 or tgt < 0:
        return rat_zeros(_dim(mod, tgt), _dim(mod, src))
    return mod._tables[(gen, n, src)]


def _vir_block(op, src):
    mod = op.module
    tgt = src - op.index
    if src > mod.depth or tgt > mod.depth:
        return None
    if src < 0 or tgt < 0:
        return rat_zeros(_dim(mod, tgt), _dim(mod, src))
    return op.blocks[src]


def _safe_mul(a, b, rows, cols):
    """Product a.b tolerating zero-dimensional annihilation blocks."""
    if not a or not b or not a[0] or not b[0]:
        return rat_zeros(rows, cols)
    return rat_mul(a, b)


def virasoro_bracket_check(mod, p, q):
    """Max residual of [L_p, L_q] = (p-q) L_{p+q} + d_{p+q,0} (p^3-p)/12 c_v.

    Exact rational; quantifies over source degrees where every block in the
    identity exists. Returns 0 when the relation holds on all of them.
    """
    for idx in (p, q, p + q):
        if abs(idx) > mod.depth:
            raise DomainError(f"index {idx} exceeds the truncation depth")
    lp = ln_operator(mod, p)
    lq = ln_operator(mod, q)
    lpq = ln_operator(mod, p + q)
    cv = central_charge(mod.level)
    worst = ZERO
    for src in range(mod.depth + 1):
        tgt = src - p - q
        if not (0 <= tgt <= mod.depth):
            continue
        parts = (
            _vir_block(lq, src),
            _vir_block(lp, src - q),
            _vir_block(lp, src),
            _vir_block(lq, src - p),
            _vir_block(lpq, src),
        )
        if any(b is None for b in parts):
            continue
        dim_t, dim_s = mod.graded_dims[tgt], mod.graded_dims[src]
        lhs1 = _safe_mul(parts[1], parts[0], dim_t, dim_s)
        lhs2 = _safe_mul(parts[3], parts[2], dim_t, dim_s)
        resid = rat_zeros(dim_t, dim_s)
        for r in range(dim_t):
            for c in range(dim_s):
                val = lhs1[r][c] - lhs2[r][c] - (p - q) * parts[4][r][c]
                if p + q == 0 and r == c:
                    val -= Fraction(p**3 - p, 12) * cv
                resid[r][c] = val
        worst = max(worst, rat_max_abs(resid))
    return worst


def lx_commutator_check(mod, n, gen, k):
    """Max residual of [L_n, X(k)] = -k X(n+k) over fully defined blocks."""
    if gen not in _TAU:
        raise DomainError(f"unknown sl2 generator {gen!r}")
    ln = ln_operator(mod, n)
    worst = ZERO
    for src in range(mod.depth + 1):
        tgt = src - n - k
        if not (0 <= tgt <= mod.depth):
            continue
        parts = (
            _mode_block(mod, gen, k, src),
            _vir_block(ln, src - k),
            _vir_block(ln, src),
            _mode_block(mod, gen, k, src - n),
            _mode_block(mod, gen, n + k, src),
        )
        if any(b is None for b in parts):
            continue
        dim_t, dim_s = mod.graded_dims[tgt], mod.graded_dims[src]
        lhs1 = _safe_mul(parts[1], parts[0], dim_t, dim_s)
        lhs2 = _safe_mul(parts[3], parts[2], dim_t, dim_s)
        resid = rat_zeros(dim_t, dim_s)
        for r in range(dim_t):
            for c in range(dim_s):
                resid[r][c] = lhs1[r][c] - lhs2[r][c] + k * parts[4][r][c]
        worst = max(worst, rat_max_abs(resid))
    return worst


def affine_bracket_check(mod, x, p, y, q):
    """Max residual of [X(p), Y(q)] = [X,Y](p+q) + p d_{p+q,0} kappa(X,Y) l."""
    worst = ZERO
    for src in range(mod.depth + 1):
        tgt = src - p - q
        if not (0 <= tgt <= mod.depth):
            continue
        parts = (
            _mode_block(mod, y, q, src),
            _mode_block(mod, x, p, src - q),
            _mode_block(mod, x, p, src),
            _mode_block(mod, y, q, src - p),
        )
        if any(b is None for b in parts):
            continue
        dim_t, dim_s = mod.graded_dims[tgt], mod.graded_dims[src]
        lhs1 = _safe_mul(parts[1], parts[0], dim_t, dim_s)
        lhs2 = _safe_mul(parts[3], parts[2], dim_t, dim_s)
        rhs = rat_zeros(dim_t, dim_s)
        for g, coeff in _BRACKET.get((x, y), ()):
            m = _mode_block(mod, g, p + q, src)
            if m is None:
                continue
            for r in range(dim_t):
                for c in range(dim_s):
                    rhs[r][c] += coeff * m[r][c]
        if p + q == 0:
            kap = _KAPPA.get((x, y), ZERO)
            if kap:
                for r in range(min(dim_t, dim_s)):
                    rhs[r][r] += p * kap * mod.level
        resid = rat_zeros(dim_t, dim_s)
        for r in range(dim_t):
            for c in range(dim_s):
                resid[r][c] = lhs1[r][c] - lhs2[r][c] - rhs[r][c]
        worst = max(worst, rat_max_abs(resid))
    return worst
