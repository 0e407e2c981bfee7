"""Independent oracles used by the tests.

Nothing here reuses the package's construction paths: weight multiplicities
come from the Freudenthal recursion, graded dimensions of the affine
truncations from the alternating character identity over the translation
orbit, invariant dimensions from hand-written ladder matrices densified with
numpy, ambient tensor-product operators from ``np.kron`` of their factor
matrices with identities, ambient indices from slot digits, zero-weight
indices from a walk over every tuple of basis weights, A_1 pairing values
from the trace form of 2x2 matrices, sl(r+1) structure constants and trace
form from dense products of its defining matrices, and reduced row echelon
forms and inverses from textbook dense Gauss-Jordan elimination over
Fraction, the vectors of a dual basis from the inverse Gram matrix applied
to its forms, and a batch of transport steps from the per-step stacked
Taylor recurrence.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from kzmono.errors import SingularityError
from kzmono.numerics import _MAX_TERMS, _NORM_SLACK, _UNIT_ROUNDOFF

CATALAN = [1, 1, 2, 5, 14, 42, 132]


# ---------------------------------------------------------------------------
# finite-dimensional side
# ---------------------------------------------------------------------------

def a1_ladder_matrices(m):
    """Spin-(m/2) matrices in the standard ladder normalization:
    f v_k = v_{k+1}, e v_k = k(m-k+1) v_{k-1}, h v_k = (m-2k) v_k."""
    d = m + 1
    e = np.zeros((d, d))
    f = np.zeros((d, d))
    h = np.zeros((d, d))
    for k in range(d):
        h[k, k] = m - 2 * k
        if k + 1 < d:
            f[k + 1, k] = 1.0
        if k >= 1:
            e[k - 1, k] = k * (m - k + 1)
    return e, f, h


def brute_invariant_dim_a1(ms):
    """Nullity of the stacked diagonal sl2 action on (x) V_m, dense numpy."""
    mats = [a1_ladder_matrices(m) for m in ms]
    dims = [m + 1 for m in ms]
    total = int(np.prod(dims))
    rows = []
    for gi in range(3):
        acc = np.zeros((total, total))
        for slot in range(len(ms)):
            ops = [np.eye(d) for d in dims]
            ops[slot] = mats[slot][gi]
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            acc += term
        rows.append(acc)
    stacked = np.vstack(rows)
    rank = np.linalg.matrix_rank(stacked, tol=1e-8)
    return total - rank


def kron_operator(dims, terms):
    """The dense ambient matrix, as rows of Fraction, of the sum over
    ``terms`` of the operator on the tensor product of spaces of dimensions
    ``dims`` that acts by ``mats[slot]`` in each slot of a term mats and by
    the identity elsewhere. A factor is a pair (N, D) of an integer array
    and a denominator; each term is the ``np.kron`` of its factors."""
    size = int(np.prod(dims))
    total = np.full((size, size), Fraction(0), dtype=object)
    for mats in terms:
        term, den = np.ones((1, 1), dtype=object), 1
        for slot, d in enumerate(dims):
            num, dd = mats.get(slot, (np.eye(d, dtype=object), 1))
            term = np.kron(term, np.asarray(num, dtype=object))
            den *= dd
        total = total + term * Fraction(1, den)
    return total.tolist()


def multi_index(sys, idx):
    """The slot digits of ambient index ``idx`` of a tensor system."""
    return tuple(idx // s % d for d, s in zip(sys.factor_dims, sys.strides))


def flat_index(sys, multi):
    """The ambient index of the slot digits ``multi``."""
    return sum(k * s for k, s in zip(multi, sys.strides))


def zero_weight_enumeration(sys):
    """Ambient indices of weight zero, one tuple of basis weights at a time."""
    zero = (0,) * sys.factors[0].algebra.rank
    weights = itertools.product(*(rep.weight_of_basis_vector for rep in sys.factors))
    return [
        idx for idx, combo in enumerate(weights)
        if tuple(map(sum, zip(*combo))) == zero
    ]


def freudenthal_multiplicities(cartan, lam):
    """Weight multiplicities of the irreducible with highest weight lam.

    ``cartan`` is the Cartan matrix (list of lists of ints); weights in
    fundamental-weight coordinates. Uses only the recursion
      (|lam+rho|^2 - |mu+rho|^2) m_mu = 2 sum_{a>0, k>=1} m_{mu+ka} (mu+ka, a).
    """
    r = len(cartan)
    cart = [[Fraction(x) for x in row] for row in cartan]
    # inverse Cartan = Gram of fundamental weights
    inv = rat_inverse(cart)

    def form(u, v):
        return sum(
            Fraction(u[i]) * inv[i][j] * Fraction(v[j])
            for i in range(r)
            for j in range(r)
        )

    alpha = [tuple(cartan[i][j] for i in range(r)) for j in range(r)]
    pos_roots = _positive_roots(cartan, alpha, form)
    lam = tuple(lam)
    lam_rho = tuple(l + 1 for l in lam)
    lam_norm = form(lam_rho, lam_rho)

    def beyond(mu):
        # True when lam - mu is not a nonnegative root-lattice combination
        diff = [Fraction(l - x) for l, x in zip(lam, mu)]
        coords = [sum(inv[i][j] * diff[j] for j in range(r)) for i in range(r)]
        return any(c < 0 or c.denominator != 1 for c in coords)

    # candidate weights lam - sum c_i alpha_i ordered by total depth
    depth_cap = _max_depth(cartan, lam)
    mults = {lam: 1}
    by_depth = {0: [lam]}
    for depth in range(1, depth_cap + 1):
        seen = set()
        for prev in by_depth.get(depth - 1, []):
            for a in alpha:
                mu = tuple(p - x for p, x in zip(prev, a))
                seen.add(mu)
        layer = []
        for mu in sorted(seen):
            mu_rho = tuple(x + 1 for x in mu)
            denom = lam_norm - form(mu_rho, mu_rho)
            total = Fraction(0)
            for root in pos_roots:
                k = 1
                while True:
                    up = tuple(x + k * rt for x, rt in zip(mu, root))
                    if beyond(up):
                        break
                    mk = mults.get(up, 0)
                    if mk:
                        total += 2 * mk * form(up, root)
                    k += 1
            if denom == 0:
                mult = 0
            else:
                q = total / denom
                assert q.denominator == 1
                mult = int(q)
            if mult:
                mults[mu] = mult
                layer.append(mu)
        by_depth[depth] = layer
        if not layer:
            break
    return mults


def rat_inverse(m):
    """Inverse of a nonsingular square matrix of Fraction, by Gauss-Jordan
    elimination of [m | I]."""
    n = len(m)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        d = aug[c][c]
        aug[c] = [x / d for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _positive_roots(cartan, alpha, form):
    """Closure of the simple roots under root addition (simply laced)."""
    r = len(cartan)
    roots = set(alpha)
    frontier = set(alpha)
    while frontier:
        new = set()
        for root in frontier:
            for a in alpha:
                cand = tuple(x + y for x, y in zip(root, a))
                if cand in roots:
                    continue
                # cand is a root iff <root, a~> < (number of times a can be
                # subtracted); for simply-laced closure test via norm 2
                if form(cand, cand) == 2:
                    new.add(cand)
        roots |= new
        frontier = new
    return sorted(roots)


def _max_depth(cartan, lam):
    # height of lam - w0(lam) <= 2 * height(lam expressed in simple roots)
    r = len(cartan)
    inv = rat_inverse([[Fraction(x) for x in row] for row in cartan])
    coords = [
        sum(inv[i][j] * Fraction(lam[j]) for j in range(r)) for i in range(r)
    ]
    total = 2 * sum(coords)
    return int(total) + 1


# ---------------------------------------------------------------------------
# affine side: alternating character identity for sl2-hat
# ---------------------------------------------------------------------------

def _series_mul(a, b, depth):
    out = {}
    for (t1, w1), c1 in a.items():
        for (t2, w2), c2 in b.items():
            t = t1 + t2
            if t > depth:
                continue
            key = (t, w1 + w2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def wk_denominator(depth):
    """(1 - z^-2) prod_n (1 - q^n z^-2)(1 - q^n z^2)(1 - q^n), truncated."""
    d = {(0, 0): 1, (0, -2): -1}
    for n in range(1, depth + 1):
        for w in (-2, 2, 0):
            d = _series_mul(d, {(0, 0): 1, (n, w): -1}, depth)
    return d


def wk_numerator(level, m, depth):
    """Alternating sum over the translation orbit of the shifted weight."""
    khat = level + 2
    a = m + 1
    out = {}
    jr = int((depth / khat) ** 0.5) + 2
    for j in range(-jr, jr + 1):
        for sign, fin, t in (
            (1, a + 2 * j * khat, j * a + j * j * khat),
            (-1, -a + 2 * j * khat, -j * a + j * j * khat),
        ):
            if 0 <= t <= depth:
                key = (t, fin - 1)
                out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def wk_character_holds(level, m, depth, char):
    """Check numerator == denominator * character, truncated at the depth.

    ``char`` maps (degree, h-weight) -> dimension. The identity pins the
    graded character uniquely, so it is a complete independent check.
    """
    lhs = wk_numerator(level, m, depth)
    rhs = _series_mul(wk_denominator(depth), dict(char), depth)
    return lhs == rhs


# ---------------------------------------------------------------------------
# basic A_1 pairing values from 2x2 matrices
# ---------------------------------------------------------------------------

def a1_trace_form(x, y):
    """tr(xy) for 2x2 matrices given as ((a,b),(c,d)) of Fractions."""
    total = Fraction(0)
    for i in range(2):
        for k in range(2):
            total += Fraction(x[i][k]) * Fraction(y[k][i])
    return total


A1_E = ((0, 1), (0, 0))
A1_F = ((0, 0), (1, 0))
A1_H = ((1, 0), (0, -1))


# ---------------------------------------------------------------------------
# sl(r+1) structure constants from dense products of its defining matrices
# ---------------------------------------------------------------------------

def dense_lie_data(rank):
    """(labels, structure, gram) of sl(rank+1) in the Chevalley basis: e
    labels by span, then f labels, then the coroots h_i. structure maps
    (a, b) to the coordinates {c: Fraction} of the dense commutator of the
    basis matrices, c ascending; gram is the trace form tr(xy)."""
    n = rank + 1
    pairs = [(i, i + span) for span in range(1, n) for i in range(1, n - span + 1)]
    labels = [("e", i, j) for i, j in pairs] + [("f", i, j) for i, j in pairs]
    labels += [("h", i) for i in range(1, n)]
    mats = []
    for lab in labels:
        m = [[Fraction(0)] * n for _ in range(n)]
        if lab[0] == "e":
            m[lab[1] - 1][lab[2] - 1] = Fraction(1)
        elif lab[0] == "f":
            m[lab[2] - 1][lab[1] - 1] = Fraction(1)
        else:
            m[lab[1] - 1][lab[1] - 1], m[lab[1]][lab[1]] = Fraction(1), Fraction(-1)
        mats.append(m)
    dim = len(labels)

    def decompose(m):
        coords = {}
        for a, lab in enumerate(labels):
            if lab[0] != "h":
                v = m[lab[1] - 1][lab[2] - 1] if lab[0] == "e" else m[lab[2] - 1][lab[1] - 1]
                if v:
                    coords[a] = v
        acc = Fraction(0)
        for i in range(1, n):
            acc += m[i - 1][i - 1]
            if acc:
                coords[labels.index(("h", i))] = acc
        return coords

    structure = {}
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            ma, mb = mats[a], mats[b]
            comm = [
                [sum(ma[i][k] * mb[k][j] - mb[i][k] * ma[k][j] for k in range(n))
                 for j in range(n)]
                for i in range(n)
            ]
            coords = decompose(comm)
            if coords:
                structure[(a, b)] = coords
    gram = [
        [sum(mats[a][i][k] * mats[b][k][i] for i in range(n) for k in range(n))
         for b in range(dim)]
        for a in range(dim)
    ]
    return labels, structure, gram


# ---------------------------------------------------------------------------
# dual bases: the coordinate vectors of x_a and x~_a from their forms
# ---------------------------------------------------------------------------

def _apply(mat, vec):
    """The matrix-vector product mat . vec, over the nonzero entries of mat."""
    return [sum(r * v for r, v in zip(row, vec) if r) for row in mat]


def basis_elements(basis):
    """The coordinate vectors of the x_a of a ``DualBasis``: G^-1 forms[a]."""
    return [_apply(basis.algebra.gram_inverse, f) for f in basis.forms]


def basis_duals(basis):
    """The coordinate vectors of the x~_a of a ``DualBasis``: G^-1 dual_forms[a]."""
    return [_apply(basis.algebra.gram_inverse, f) for f in basis.dual_forms]


# ---------------------------------------------------------------------------
# Temperley-Lieb: A_1 V1^n on the noncrossing-pairing basis
# ---------------------------------------------------------------------------

def noncrossing_pairings(points):
    """Noncrossing perfect matchings of the increasing tuple ``points``, each
    as a tuple of pairs: the first point pairs with one that leaves an even
    count inside, and the inside and the outside pair among themselves."""
    if not points:
        return [()]
    return [
        ((points[0], points[k]),) + inner + outer
        for k in range(1, len(points), 2)
        for inner in noncrossing_pairings(points[1:k])
        for outer in noncrossing_pairings(points[k + 1:])
    ]


def temperley_lieb_swaps(n, delta=-2):
    """The slot swaps P_ij, i < j, of n points on the span of the
    noncrossing pairings, as integer numpy object matrices (column = pairing
    acted on): P_{i,i+1} = 1 + e_i, with e_i the Temperley-Lieb generator
    of loop value ``delta``, which caps i, i+1 and cups them again, and
    P_ij = P_{j-1,j} P_{i,j-1} P_{j-1,j}. At delta = -2 (the Kauffman
    bracket at A = 1) this is the slot action on the A_1 invariants of
    V1^n, so there W_ij = P_ij - 1/2."""
    basis = [frozenset(m) for m in noncrossing_pairings(tuple(range(n)))]
    at = {m: c for c, m in enumerate(basis)}
    d = len(basis)
    swaps = {}
    for i in range(n - 1):
        p = np.identity(d, dtype=int).astype(object)
        for c, m in enumerate(basis):
            partner = {a: b for x, y in m for a, b in ((x, y), (y, x))}
            if partner[i] == i + 1:
                p[c, c] += delta  # a closed loop
                continue
            a, b = partner[i], partner[i + 1]
            joined = m - {tuple(sorted((i, a))), tuple(sorted((i + 1, b)))}
            p[at[joined | {(i, i + 1), tuple(sorted((a, b)))}], c] += 1
        swaps[(i, i + 1)] = p
    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            swaps[(i, j)] = swaps[(j - 1, j)] @ swaps[(i, j - 1)] @ swaps[(j - 1, j)]
    return swaps


# ---------------------------------------------------------------------------
# exact linear algebra: entrywise sums and dense Gauss-Jordan elimination
# over Fraction
# ---------------------------------------------------------------------------

def rat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def integer_matrix(rows, shape):
    """The matrix with the given rows of ``Fraction`` (or int) entries as
    (N, D), N an object array of Python ints, in lowest terms; ``shape``
    fixes the shape of an empty one."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return np.array(num, dtype=object).reshape(shape), den


def integer_rows(rows):
    """Each rational row, a dict {column: value} or a list, times the lcm of
    its denominators. Scaling a row by a nonzero number changes neither the
    RREF nor the kernel nor the rank, so the integer rows have the same."""
    out = []
    for row in rows:
        vals = [Fraction(v) for v in (row.values() if isinstance(row, dict) else row)]
        den = math.lcm(*(v.denominator for v in vals))
        scaled = [int(v * den) for v in vals]
        out.append(dict(zip(row, scaled)) if isinstance(row, dict) else scaled)
    return out


def dense_rref(rows, ncols):
    """RREF of sparse rows {column: value}, by dense Gauss-Jordan elimination
    with the pivot taken in the first remaining row that has one; an update
    skips the zero entries of the pivot row, which it would leave unchanged.
    Returns {pivot column: {column: Fraction}} with zero entries left out."""
    m = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    top = 0
    for c in range(ncols):
        r = next((r for r in range(top, len(m)) if m[r][c]), None)
        if r is None:
            continue
        m[top], m[r] = m[r], m[top]
        lead = m[top][c]
        m[top] = [x / lead if x else x for x in m[top]]
        for k in range(len(m)):
            if k != top and m[k][c]:
                f = m[k][c]
                m[k] = [x - f * y if y else x for x, y in zip(m[k], m[top])]
        top += 1
    out = {}
    for row in m[:top]:
        c = next(c for c, x in enumerate(row) if x)
        out[c] = {k: x for k, x in enumerate(row) if x}
    return out


def dense_kernel(rows, ncols):
    """Kernel basis from ``dense_rref``: one vector per free column, carrying
    1 there and minus the pivot rows' entries at the pivot columns."""
    rref = dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in rref]
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        for c, row in rref.items():
            if row.get(f):
                vec[c] = -row[f]
        basis.append(vec)
    return basis, free


def kernel_fractions(kernel):
    """The integer kernel (L, columns, free) of ``nullspace_exact_sparse`` as
    ([{index: Fraction}], free), comparable with ``dense_kernel``, after
    checking that each column holds Python ints, L at its own free column,
    and that L is the lcm of the denominators of the vectors."""
    den, cols, free = kernel
    assert all(type(v) is int for col in cols for v in col.values())
    assert [col[f] for col, f in zip(cols, free)] == [den] * len(free)
    basis = [{k: Fraction(v, den) for k, v in col.items()} for col in cols]
    assert den == math.lcm(*(v.denominator for vec in basis for v in vec.values()))
    return basis, free


# ---------------------------------------------------------------------------
# transport: a batch of steps by the per-step stacked Taylor recurrence
# ---------------------------------------------------------------------------

def stacked_transport_batch(f, wide, t, line, r, h, q, a, growth, tol):
    """``numerics._transport_batch`` as the per-step stacked recurrence: the
    running sums G_p of step k are slice k of one (steps, P, d, d) array,
    each order is one small product per step, and each increment is chained
    onto a new frame. The term count and the error bound are the library's:
    the same majorant over the same schedule."""
    fc = float(np.abs(f).sum(axis=1).max(initial=0.0))
    if not math.isfinite(fc):
        raise SingularityError(f"transport overflowed at t={t[0]:.6g}", line=int(line[0]))
    prior = growth[:-1]
    bound = fc * np.cumprod(np.append(1.0, prior * (1.0 + _NORM_SLACK * prior)))
    goal = np.minimum(tol * h / bound, 2.0 ** -52)
    width = 64
    while True:
        j = np.arange(width + 1)
        ratio = (a[:, None] + j) / (j + 1) * q[:, None]
        c = np.cumprod(ratio[:, :-1], axis=1)
        theta = np.maximum(q[:, None], ratio[:, 1:])
        done = (theta < 1.0) & (c <= goal[:, None] * (1.0 - theta))
        if done.any(axis=1).all():
            break
        if width >= _MAX_TERMS:
            raise SingularityError("the series majorant overflowed")
        width *= 2
    terms = int(done.argmax(axis=1).max())
    tail = c[:, terms] / (1.0 - theta[:, terms])
    if terms == 0:
        return f, fc * float(tail.sum())
    steps, d = r.shape[0], wide.shape[0]
    r = r[:, :, None, None]
    scaled = wide * (-1.0 / np.arange(1, terms + 1))[:, None, None]
    g = r * np.eye(d)
    inc = np.zeros((steps, d, d), dtype=complex)
    for m in range(terms):
        term = scaled[m] @ g.reshape(steps, -1, d)
        inc += term
        if m + 1 < terms:
            g += term[:, None]
            g *= r
    fs = [f]
    for k in range(steps):
        fs.append(fs[-1] + inc[k] @ fs[-1])
    norms = np.abs(np.array(fs)).sum(axis=2).max(axis=1)
    n = wide.shape[1] + terms + d
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return fs[-1], float(norms[:-1] @ (tail + gamma * growth))
