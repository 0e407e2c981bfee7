"""Shared arithmetic substrate: exact rational linear algebra, sparse
operators, and the transport of Fuchsian linear systems by local Taylor
series.

A :class:`SparseOperator` holds the exact entries of an ambient operator,
compressed by column, for inspection; no kernel computes with it.

Every exact elimination (ranks, null spaces, basis selection from a Gram
matrix) runs on one routine, :func:`sparse_eliminate`, which returns the
reduced row echelon form as primitive integer pivot rows, fraction free.

The exact kernels run on integers that cannot overflow. A dense integer
product runs on the type :func:`product_dtype` picks from a bound proved
before it runs: float64 (BLAS dgemm) below 2^53, where every partial sum is
an integer float64 holds exactly, int64 below 2^62, and Python integers,
which have no fixed width, otherwise. :func:`gram_select` and
:func:`nullspace_exact_sparse` hand their results on as integers over one
denominator, read off those pivot rows. Dense exact matrices are held as
pairs (N, D): N is a numpy integer array, of Python ints (dtype object) or
int64, and D > 0 a common denominator, so the matrix is N / D; a
:class:`Held` pair keeps a matrix that is used again with N read-only, int64
when it fits, and its max|N|. :func:`combine` evaluates every sum of
products, sum coeff * (F_1 @ F_2 @ ...), in one pass over its terms and
then their products, in lowest terms, gcd(N, D) = 1 (:func:`lowest_terms`),
and returns N of Python ints (:func:`combine_held` a held pair,
:func:`combine_max` its max |entry|); :func:`concat` and
:func:`block_matrix` assemble blocks over the lcm of their denominators,
scaling a block on Python ints where it needs it, and :func:`fraction_rows`
gives the rows of ``Fraction`` of a pair. Representation matrices, the
invariant basis, the restricted two-site operators and the irrep, affine,
Casimir and Omega-sum algebra run on (N, D), and ``rat_commutator`` takes
the integer stacks exact flatness builds. Rows of ``Fraction`` remain the
public views of exact matrices and of the Lie algebra's structure data,
whose inverse forms have closed forms and need no solver; ``rat_mul`` has no
caller in the package and serves the tests and the benchmark. Complex
numerics use numpy. Nothing here mutates its inputs (a :class:`Held` pair
takes its N over); scratch space is per call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError, SingularityError


ZERO = Fraction(0)
_UNIT_ROUNDOFF = 2.0 ** -53


# ---------------------------------------------------------------------------
# dense rational matrices (lists of lists of Fraction)
# ---------------------------------------------------------------------------

def rat_zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def rat_mul(a, b):
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    cols = len(b[0])
    out = rat_zeros(len(a), cols)
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        acc[j] += x * brow[j]
    return out


def rat_commutator(a, b):
    """[a, b] = ab - ba of (stacks of) integer matrices, held as numpy
    object arrays of Python ints, which cannot overflow, or on the machine
    type :func:`product_dtype` picks from a bound the caller proves on every
    entry of ab and ba, their partial sums and their difference (exact
    flatness proves 4 m^2 dim, m = max|entry|)."""
    comm = a @ b
    comm -= b @ a
    return comm


# ---------------------------------------------------------------------------
# dense exact matrices as (N, D): object array of Python ints over the lcm D
# of the denominators
# ---------------------------------------------------------------------------

def fraction_rows(num, den):
    """The matrix N / D as rows of ``Fraction``; each distinct numerator is
    divided once."""
    fracs = {}
    return [
        [fracs[x] if x in fracs else fracs.setdefault(x, Fraction(x, den)) for x in row]
        for row in num.tolist()
    ]


def lowest_terms(num, den):
    """(N, D), N of Python ints or int64, divided by gcd(N, D); N comes
    back as it is when that gcd is 1."""
    if den == 1:
        return num, den
    if num.dtype == object:
        g = math.gcd(den, *num.flat)
    else:
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
    return (num, den) if g == 1 else (num // g, den // g)


def block_matrix(shape, blocks):
    """(N, D) of the given shape with each block of ``blocks`` =
    [(rows, cols, (N, D))] placed at rows x cols and zeros elsewhere, over
    the lcm of their D; N holds Python ints, and every block is scaled on
    them."""
    den = math.lcm(*(d for _, _, (_, d) in blocks))
    num = np.zeros(shape, dtype=object)
    for rows, cols, (n, d) in blocks:
        num[np.ix_(rows, cols)] = n.astype(object, copy=False) * (den // d)
    return num, den


def concat(mats, axis):
    """(N, D) blocks joined along ``axis`` over the lcm of their D; a block
    over another D is scaled on Python ints, so int64 blocks stay int64
    only when none needs scaling."""
    den = math.lcm(*(d for _, d in mats))
    return np.concatenate([
        n if d == den else n.astype(object, copy=False) * (den // d) for n, d in mats
    ], axis=axis), den


# Work, in multiply-adds (rows * inner * cols summed over the products of a
# call), from which combine bounds factors of Python ints and runs them on a
# machine type; factors held as int64 skip this gate. Measured on
# a 2-vCPU x86-64 VM, CPython 3.11, numpy 2.4, for [A, B] of two n x n
# factors of Python ints: converted and run on float64 it is 0.56x as fast
# as on Python ints at n = 2 (work 16), 1.0x at 6 (432), 1.6x at 8 (1024),
# 3.7x at 12 and 11x at 20, as one call costs about 14 us however small.
# Building the A1 irreps to V5 and the A2 irreps to (2, 2) and (3, 0), with
# their dual matrices and Casimirs, took 9.1 ms at 512 and at 4096 and 11.1
# ms without the gate: their many small blocks stay on Python ints.
_INT64_MIN_WORK = 4096
# An exact integer product whose bound stays below FLOAT64_LIMIT runs on
# float64, below INT64_LIMIT on int64, and otherwise on Python ints; see
# product_dtype.
FLOAT64_LIMIT = 2 ** 53
INT64_LIMIT = 2 ** 62


def product_dtype(bound):
    """The type an exact integer product runs on, given a bound, proved
    before it runs, on every |entry| of its factors and on every partial
    product and partial sum it forms.

    Below 2^53 every such integer is a float64, and so is the exact result
    of each multiply, add or fused multiply-add of two of them: float64
    (BLAS dgemm) is exact whatever the summation order, and ``astype(np.int64)``
    takes the result back. Below ``INT64_LIMIT`` int64 is exact; otherwise
    Python ints, which have no fixed width. A bound at or above
    ``INT64_LIMIT`` rules out both machine types. The bounds hold for the
    classical product, whose intermediates are partial sums of products of
    entries; a Strassen-type BLAS forms sums of entries first and would need
    slack."""
    if bound >= INT64_LIMIT:
        return object
    return np.float64 if bound < FLOAT64_LIMIT else np.int64


def max_abs(a):
    """max |a_ij| of an integer array (or a float64 one of integers) as a
    Python int, 0 for an empty one; unlike ``np.abs``, exact at the most
    negative int64."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def as_int64(num):
    """An integer array as int64 when every entry fits, else as it is."""
    if num.dtype == object:
        try:
            return num.astype(np.int64)
        except OverflowError:
            pass
    return num


class Held(tuple):
    """An exact matrix (N, D) held for reuse, with N int64 when every entry
    fits and Python ints otherwise, made read-only, and ``max_abs`` = max|N|
    formed once: :func:`combine` bounds a held factor without reading it
    again, and the read-only N keeps that bound true. A held matrix is an
    (N, D) pair wherever one is taken."""

    def __new__(cls, num, den):
        num = as_int64(num)
        num.flags.writeable = False
        held = super().__new__(cls, (num, den))
        held.max_abs = max_abs(num)
        return held

    def __getnewargs__(self):
        # copy and pickle rebuild a held pair through __new__
        return tuple(self)


def _sum(terms, shape, ints=True):
    """The sum of :func:`combine` as (N, D), not in lowest terms, with N on
    the type that formed it, float64 as int64 when ``ints``.

    One pass over the terms checks the chains, takes the denominators and
    bounds each product: each |entry| of a product of factors with
    max |F_i| <= M_i and inner dimensions k_j is at most prod M_i * prod k_j,
    and so is every partial sum the product forms; with every M_i, k_j and
    |scale| raised to at least 1 the same bound covers each partial product
    of a chain, and the sum over terms bounds every partial sum of the
    total. A zero factor or a zero product cannot hide a large intermediate,
    nor a large scale. A :class:`Held` factor brings its M and any other is
    read for it, a factor of Python ints only once the products reach
    ``_INT64_MIN_WORK``: below that it keeps the sum on Python ints, as does
    a factor that does not fit int64, whose M is at least 2^63. Each factor
    is converted to the chosen type as it is multiplied, so no int64 product
    runs without the bound, and the terms accumulate into the first."""
    rows, cols = shape
    nums, dens, sizes, chains, loose, work = [], [], [], [], [], 0
    for coeff, factors in terms:
        den, width, size = coeff.denominator, rows, 1
        for k, f in enumerate(factors):
            n = f[0]
            r, c = n.shape
            if r != width:
                raise ShapeError(f"factor {k} of a product has {r} rows, not {width}")
            if k:
                work += rows * r * c
                size *= r or 1
            width = c
            den *= f[1]
            if type(f) is Held:
                size *= f.max_abs or 1
            elif n.dtype == object:
                loose.append((len(sizes), n))
            else:
                size *= max_abs(n) or 1
        if width != cols:
            raise ShapeError(f"a product with {width} columns cannot fill shape {shape}")
        nums.append(coeff.numerator)
        dens.append(den)
        sizes.append(size)
        chains.append(factors)
    den = math.lcm(*dens)
    scales = [c * (den // d) for c, d in zip(nums, dens)]
    if loose and work < _INT64_MIN_WORK:
        bound = INT64_LIMIT
    else:
        for t, n in loose:
            sizes[t] *= max_abs(n) or 1
        bound = sum((abs(s) or 1) * m for s, m in zip(scales, sizes))
    dtype = product_dtype(bound)
    total = np.zeros(shape, dtype=dtype) if not chains else None
    for scale, chain in zip(scales, chains):
        # a fresh first product, as it is scaled and summed into in place
        first = chain[0][0] if chain else np.eye(rows, dtype=dtype)
        prod = first.astype(dtype, copy=len(chain) == 1)
        for f in chain[1:]:
            prod = prod @ f[0].astype(dtype, copy=False)
        if scale != 1:
            prod *= scale
        total = prod if total is None else np.add(total, prod, out=total)
    return (total.astype(np.int64) if ints and dtype is np.float64 else total), den


def combine(terms, shape):
    """sum coeff * (F_1 @ F_2 @ ...) over ``terms`` = [(coeff, (F_1, ...))],
    each F an (N, D) pair, N of Python ints or int64, and coeff rational, as
    (N, D) of the given shape in lowest terms; N holds Python ints. An empty
    product stands for the identity. Raises ShapeError unless every chain
    runs from shape[0] rows to shape[1] columns through agreeing inner
    dimensions (so an identity term needs a square shape).

    A call walks its terms once, for the shapes, the common denominator D
    and an a-priori bound, sum_t max(|scale_t|, 1) * prod_i max(max|F_i|, 1)
    * prod max(inner dim, 1) with every term scaled to D, on every partial
    product and partial sum; the sum then runs on the type
    :func:`product_dtype` picks from it: float64 below 2^53, int64 below
    2^62, Python ints otherwise. Factors of Python ints are read for the
    bound only when the products do at least ``_INT64_MIN_WORK``
    multiply-adds, and stay on Python ints below that. Every type gives the
    same exact result. Beyond its products, a call on small held factors
    costs about 11 us and 3 to 4 us more per term (2-vCPU x86-64 VM,
    CPython 3.11, numpy 2.4)."""
    num, den = lowest_terms(*_sum(terms, shape))
    return num.astype(object, copy=False), den


def combine_held(terms, shape):
    """:func:`combine` as a :class:`Held` matrix."""
    return Held(*lowest_terms(*_sum(terms, shape)))


def combine_max(terms, shape):
    """max |entry| of the sum of :func:`combine`, as a ``Fraction``; read
    off the sum on the type that formed it, before it is brought to lowest
    terms, which ``Fraction`` does on the one number."""
    num, den = _sum(terms, shape, ints=False)
    return Fraction(max_abs(num), den)


# ---------------------------------------------------------------------------
# exact elimination: one sparse RREF routine for ranks, null spaces and
# Gram-matrix basis selection
# ---------------------------------------------------------------------------

def _primitive(row, lead):
    """Divide an integer row by its content, signed so that ``lead`` > 0."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
    return row


def _cancel(row, cols, pivots):
    """Integer row with the columns ``cols`` eliminated against their pivot
    rows, whose leading entries sit there and which carry no entries at each
    other's pivot columns, by cross-multiplication: the row is scaled once by
    the least multiplier that makes every elimination integral."""
    m = 1
    for c in cols:
        a = pivots[c][c]
        m = math.lcm(m, a // math.gcd(a, row[c]))
    if m != 1:
        row = {k: m * v for k, v in row.items()}
    for c in cols:
        prow = pivots[c]
        f = row[c] // prow[c]
        for k, v in prow.items():
            nv = row.get(k, 0) - f * v
            if nv:
                row[k] = nv
            else:
                del row[k]
    return row


def sparse_eliminate(rows, ncols):
    """Sparse integer Gaussian elimination, fraction free.

    ``rows`` is a list of {column: integer} dicts; entries pass through
    ``operator.index``, so numpy integers become Python ints and a
    ``Fraction`` raises TypeError. Returns {pivot column: pivot row}, pivots
    in increasing column order: each row is primitive, positive at its pivot
    and zero at the other pivots, so dividing it by its leading entry gives
    the reduced row echelon form. Both are unique, so the result does not
    depend on the order of ``rows``.

    Rows are reduced by cross-multiplication, so the loop runs on Python
    integers only. The rows are taken in order of decreasing leading column:
    a new pivot then usually lies left of every entry of the earlier pivot
    rows, and they need no back-reduction against it. Only a row whose
    leading column was already a pivot can land right of the leftmost pivot,
    and only then are the earlier pivot rows reduced again.
    """
    # copies, as the reduction runs in place; a zero entry is no entry
    rows = [r for row in rows if (r := {k: operator.index(v) for k, v in row.items() if v})]
    rows.sort(key=min, reverse=True)
    pivots = {}
    leftmost = ncols
    for row in rows:
        row = _cancel(row, [k for k in row if k in pivots], pivots)
        if not row:
            continue
        c = min(row)
        pivots[c] = _primitive(row, c)
        if c < leftmost:
            leftmost = c
            continue
        # keep earlier pivot rows reduced against the new one
        for pc, prow in pivots.items():
            if c in prow and pc != c:
                pivots[pc] = _primitive(_cancel(prow, [c], pivots), pc)
    return dict(sorted(pivots.items()))


def exact_rank(rows, ncols):
    return len(sparse_eliminate(rows, ncols))


def nullspace_exact_sparse(rows, ncols):
    """Kernel basis of a sparse integer matrix, rows as for
    :func:`sparse_eliminate`, as (L, basis, free): ``free`` lists the free
    columns in increasing order, L is the lcm of the pivot rows' leading
    entries, and ``basis`` holds, for each free column f, L times the kernel
    vector that is 1 at f and 0 at the other free columns, as {index: int}:
    L at f, then -prow[f] * (L // prow[pc]) at each pivot pc where prow has
    an entry. As in :func:`gram_select`, L is the lcm of its denominators.
    """
    pivots = sparse_eliminate(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    den = math.lcm(*(prow[pc] for pc, prow in pivots.items()))
    basis = []
    for f in free:
        vec = {f: den}
        for pc, prow in pivots.items():
            v = prow.get(f)
            if v:
                vec[pc] = -v * (den // prow[pc])
        basis.append(vec)
    return den, basis, free


def gram_select(gram):
    """Basis selection from the Gram matrix of a spanning list, or any
    square matrix with its row space, given as integer rows as for
    :func:`sparse_eliminate`.

    Returns (selected, (N, D)): ``selected`` is the leftmost maximal set of
    vectors that stay independent modulo the radical of the form (so their
    Gram submatrix is nonsingular), and row j of N / D expresses spanning
    vector j over them. Both come from the RREF of the Gram matrix. G.x = 0
    exactly when sum x_i b_i lies in the radical, so the columns of G obey
    the same linear relations as the vectors: the pivot columns are the
    selection and the pivot rows hold the coefficients. Valid for any
    symmetric form, definite or not.

    Column t of N is pivot row t times D over its leading entry, D the lcm
    of those entries; a prime power exactly dividing D exactly divides some
    leading entry, and that row is primitive, so gcd(N, D) = 1.
    """
    s = len(gram)
    pivots = sparse_eliminate(gram, s)
    selected = list(pivots)
    den = math.lcm(*(prow[c] for c, prow in pivots.items()))
    num = [[0] * len(selected) for _ in range(s)]
    for t, (c, prow) in enumerate(pivots.items()):
        scale = den // prow[c]
        for j, v in prow.items():
            num[j][t] = v * scale
    return selected, (np.array(num, dtype=object).reshape(s, len(selected)), den)


# ---------------------------------------------------------------------------
# sparse operators (compressed by column)
# ---------------------------------------------------------------------------

class SparseOperator:
    """Sparse linear operator with exact rational entries.

    Assembled in one pass from coordinate triples, whose repeated positions
    add up, and stored compressed by column as ``cols[j][i]``; entries that
    cancel to zero are dropped.
    """

    def __init__(self, shape, entries):
        self.shape = shape
        cols = {}
        for i, j, v in entries:
            col = cols.setdefault(j, {})
            col[i] = col.get(i, ZERO) + v
        for j, col in list(cols.items()):
            for i in [i for i, v in col.items() if not v]:
                del col[i]
            if not col:
                del cols[j]
        self.cols = cols

    @property
    def nnz(self):
        return sum(len(c) for c in self.cols.values())


# ---------------------------------------------------------------------------
# transport of Fuchsian systems by local Taylor series
# ---------------------------------------------------------------------------

# Each step is a quarter of the distance to its nearest pole. Time spent in
# ode_transport per pass of the `monodromy` benchmark (seed 501) for steps
# of rho/2, rho/3, rho/4, rho/5 and rho/6: 31.5, 23.2, 21.4, 19.9 and
# 19.0 ms; for one line of a d = 30 system with 9 poles: 174, 143, 61, 67 and
# 68 ms (2-vCPU VM, numpy 2.4.6). Shorter steps need fewer terms each but
# cost their share of every batched product, and longer ones let the
# a-priori norm bound grow fast.
_STEP_DIVISOR = 4.0
# The a-priori norm bound of a batch restarts from the real norm once it
# would grow by more than this factor: it grows as prod (1 - q)^-A, far
# faster than F itself, and every factor of 4 costs about one term per step.
_GROWTH_CAP = 2.0 ** 16
# A batch holds at most this many complex entries of running sums
# (steps * P * d^2, 16 MiB), and as many of their factors r_p.
_BATCH_ENTRIES = 2 ** 20
# The rounding and truncation one chained step adds to ||F||, relative to
# it, is at most 3 gamma_n g + 2^-52 with g = (1 - q)^-A, which stays below
# this times g for every n < 2^20; so B grows by g (1 + _NORM_SLACK g).
_NORM_SLACK = 2.0 ** -30
# No step sums more terms; a majorant that needs more has overflowed.
_MAX_TERMS = 2 ** 16


def ode_transport(residues, poles, f0, tol):
    """Transport dF/dt = sum_p R_p/(t - t_p) F from t = 0 to t = 1 along each
    of a sequence of lines, each from the frame the last one ended with.

    ``poles`` has shape (lines, P), or (P,) for one line, ``residues`` stacks
    the R_p with shape (P, d, d), ``tol`` is one tolerance or one per line and
    ``f0`` has d rows. An infinite t_p is a pair with no pole on that line:
    its r_p and its share of A_k below are 0. Returns (F1, error_bound,
    steps). Raises ShapeError on mismatched shapes, DomainError on a NaN pole
    or residue or a tol that is not positive, and SingularityError, with
    ``line`` the line's index, when a pole comes within 1e-12 of the path or
    the transport overflows.

    Schedule. The steps depend only on the poles, so they are fixed first,
    line by line: from t_0 = 0, t_(k+1) = t_k + h_k with
    h_k = min(rho_k/4, 1 - t_k), where rho_k = min_p rho_kp and
    rho_kp = |t_p - t_k|. h_k is the exact float difference of the two ends,
    so the expansion point never drifts from the t the series is summed at.

    Series. About t_k, with r_p = h_k/(t_p - t_k) and s = (t - t_k)/h_k, the
    propagator Phi_k(s) = sum_m Phi_m s^m, Phi_0 = I, has the running sums
    G_p <- r_p (Phi_m + G_p) and (m+1) Phi_(m+1) = -sum_p R_p G_p. The
    increments Phi_k(1) - I of a batch of consecutive steps, of one line or
    several, are summed together to one number M of terms: the G_p of every
    step form one matrix of P d rows (p, i) by steps d columns (k, j), so
    each order is one product of [R_1 ... R_P] with it.

    Majorant. With q_p = h_k/rho_kp <= q = h_k/rho_k and row-sum norms
    y_m = ||Phi_m||, let b_j = sum_p ||R_p|| q_p^(j+1); then
    (m+1) y_(m+1) <= sum_(j<=m) b_(m-j) y_j. Since b_j <= q b_(j-1) and
    b_0 = q A_k, A_k = sum_p ||R_p|| rho_k/rho_kp, y_m is at most the
    coefficient of s^m in (1 - q s)^(-A_k), so poles far from a step add
    little to its exponent. After m terms the tail is at most c/(1 - theta),
    c = binom(A_k+m, m+1) q^(m+1), once theta = max(q, (A_k+m+1)/(m+2) q) < 1.

    Stopping. Each step's tail times ||F_k|| must be at most
    min(tol h_k, 2^-52 ||F_k||), tol that of its line. F_k is known only after
    the sums, so the term count uses the a-priori bound
    B_k = ||F_c|| prod_(j<k) (1 - q_j)^(-A_j) >= ||F_k||, from the batch's
    first F_c and with slack for rounding: step k needs
    c/(1 - theta) <= min(tol h_k/B_k, 2^-52), and M is the largest of these
    counts. A batch ends where B has grown by 2^16, so that the bound
    restarts from the real norm, or at 2^20 entries of running sums.

    Chaining. F_(k+1) = F_k + (Phi_k(1) - I) F_k; chaining the increments,
    not the whole propagators, keeps their small entries from being rounded
    against I.

    Error. The bound sums, over the steps, ||F_k|| times the tail at M terms,
    with the real F_k after chaining, and, when terms were summed, the
    rounding term gamma_n ||F_k|| (1 - q_k)^(-A_k): the majorant bounds the
    summed norms of the terms, whose entries come from inner products of
    length P d, M accumulated terms and the chaining product of length d, so
    n = P d + M + d and gamma_n = n u / (1 - n u), u = 2^-53.
    """
    res = np.asarray(residues, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    f = np.array(f0, dtype=complex)
    tol = np.asarray(tol, dtype=float)
    if poles.ndim == 1:
        poles = poles[None]
    if poles.ndim != 2 or f.ndim != 2:
        raise ShapeError(f"need poles of shape (lines, P) and a matrix f0, got shapes "
                         f"{poles.shape} and {f.shape}")
    d, (nlines, npoles) = f.shape[0], poles.shape
    if res.shape != (npoles, d, d) or tol.shape not in ((), (nlines,)):
        raise ShapeError(f"residues of shape {res.shape} and tol of shape {tol.shape} do "
                         f"not fit {nlines} lines of {npoles} poles and an f0 of {d} rows")
    steps = []
    for line, row in enumerate(poles.tolist()):
        t = 0.0
        while t < 1.0:
            rho = min((abs(p - t) for p in row), default=math.inf)
            if rho <= 1e-12:
                raise SingularityError(f"a pole lies within {rho:.3g} of t={t:.6g}", line=line)
            end = t + rho / _STEP_DIVISOR if rho / _STEP_DIVISOR < 1.0 - t else 1.0
            steps.append((line, t, rho, end - t))
            t = end
    owner, t, rho, h = (np.array(x) for x in zip(*steps))
    tol = np.broadcast_to(tol, nlines)[owner]
    delta = poles[owner] - t[:, None]
    # a pole at infinity has r_p = 0 and rho_k/rho_kp = 0, also where rho_k
    # is infinite too
    far = np.isinf(delta)
    q = h / rho
    norm = np.abs(res).sum(axis=2).max(axis=1, initial=0.0)
    wide = res.transpose(1, 0, 2).reshape(d, npoles * d)
    most = max(1, _BATCH_ENTRIES // max(1, npoles * d * d))
    err, lo = 0.0, 0
    # an overflow surfaces as a SingularityError from the batch whose frame
    # or majorant it leaves infinite, not as a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = (norm * np.where(far, 0.0, rho[:, None] / np.abs(delta))).sum(axis=1)
        # NaN compares false, so it passes every test above; a NaN pole or
        # residue leaves a NaN in a
        if not tol.min() > 0 or math.isnan(a.sum()):
            raise DomainError("tol must be positive, and no pole or residue may be NaN")
        r = np.where(far, 0.0, h[:, None] / delta)
        growth = (1.0 - q) ** -a
        while lo < len(t):
            hi, grown = lo + 1, growth[lo]
            while hi < len(t) and hi - lo < most and grown * growth[hi] <= _GROWTH_CAP:
                grown *= growth[hi]
                hi += 1
            f, e = _transport_batch(f, wide, t[lo:hi], owner[lo:hi], r[lo:hi], h[lo:hi],
                                    q[lo:hi], a[lo:hi], growth[lo:hi], tol[lo:hi])
            err += e
            lo = hi
    return f, err, len(t)


def _transport_batch(f, wide, t, line, r, h, q, a, growth, tol):
    """Chain the steps of one batch, step k at t[k] on line[k], onto F_c = f;
    returns the new F and the batch's error bound (see :func:`ode_transport`)."""
    fc = float(np.abs(f).sum(axis=1).max(initial=0.0))
    if not math.isfinite(fc):
        raise SingularityError(f"transport overflowed at t={t[0]:.6g}", line=int(line[0]))
    prior = growth[:-1]
    width = 64
    # an overflow leaves the bound or c infinite, which no goal accepts
    bound = fc * np.cumprod(np.append(1.0, prior * (1.0 + _NORM_SLACK * prior)))
    goal = np.minimum(tol * h / bound, 2.0 ** -52)
    while True:
        # ratio[k, m] = (A_k+m)/(m+1) q_k; c[k, m] bounds term m+1 of
        # step k over ||F_k||, and theta[k, m] the ratios after it
        j = np.arange(width + 1)
        ratio = (a[:, None] + j) / (j + 1) * q[:, None]
        c = np.cumprod(ratio[:, :-1], axis=1)
        theta = np.maximum(q[:, None], ratio[:, 1:])
        done = (theta < 1.0) & (c <= goal[:, None] * (1.0 - theta))
        if done.any(axis=1).all():
            break
        if width >= _MAX_TERMS:
            k = int(done.any(axis=1).argmin())
            raise SingularityError(f"the series majorant overflowed at t={t[k]:.6g}",
                                   line=int(line[k]))
        width *= 2
    terms = int(done.argmax(axis=1).max())
    # the tails of the majorant shrink with m once theta < 1
    tail = c[:, terms] / (1.0 - theta[:, terms])
    if terms == 0:
        return f, fc * float(tail.sum())
    (steps, npoles), (d, pd) = r.shape, wide.shape
    rg = np.broadcast_to(r.T[:, None, :, None], (npoles, d, steps, d)).copy()
    g = rg * np.eye(d)[:, None, :]
    term = np.empty((d, steps * d), dtype=complex)
    inc = np.zeros_like(term)
    for m in range(terms):
        np.matmul(wide * (-1.0 / (m + 1)), g.reshape(pd, steps * d), out=term)
        inc += term
        if m + 1 < terms:
            g += term.reshape(d, steps, d)
            g *= rg
    fs = np.empty((steps + 1,) + f.shape, dtype=complex)
    fs[0] = f
    for k in range(steps):
        np.matmul(inc[:, k * d:(k + 1) * d], fs[k], out=fs[k + 1])
        np.add(fs[k + 1], fs[k], out=fs[k + 1])
    norms = np.abs(fs).sum(axis=2).max(axis=1)
    n = pd + terms + d
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    rate = tail + gamma * growth
    err = float(norms[:-1] @ rate)
    if not math.isfinite(norms[-1] + err):
        # chaining carries an inf or nan in a frame on to every later one;
        # report the first step whose frame or bound is not finite
        bad = [not math.isfinite(x) for x in (norms[1:] + norms[:-1] * rate).tolist()]
        k = bad.index(True) if True in bad else len(bad) - 1
        raise SingularityError(f"transport overflowed at t={t[k]:.6g}", line=int(line[k]))
    return fs[-1], err
