"""Shared arithmetic substrate: exact rational linear algebra, a quadratic
extension field for exact orthonormal bases, sparse operators, and the
transport of Fuchsian linear systems by local Taylor series.

Sparse operators are stored compressed by column, so applying one to a
sparse vector reads only the columns that vector touches.

Every exact elimination (ranks, null spaces, basis selection from a Gram
matrix) runs on one routine, :func:`sparse_eliminate`, which returns the
reduced row echelon form as pivot rows.

The exact kernels run on integers that cannot overflow: Python integers,
which have no fixed width, or int64 where an a-priori bound proves that no
intermediate reaches 2^62, falling back to Python integers otherwise.
``sparse_eliminate`` scales each row by the lcm of its denominators and
eliminates fraction free, by cross-multiplication, keeping its pivot rows
primitive; ``Fraction`` appears only in the RREF it returns. It takes the
rows in order of decreasing leading column, which spares almost every
back-reduction, and returns the pivots in increasing column order, so its
result does not depend on the order of its input rows. Dense exact
matrices are held as pairs (N, D): N is a numpy object array of Python ints
and D > 0 a common denominator, so the matrix is N / D. :func:`combine`
evaluates every sum of products, sum coeff * (F_1 @ F_2 @ ...), in lowest
terms, gcd(N, D) = 1, on int64 when its work and that bound allow and on
Python ints otherwise; :func:`concat` and :func:`block_matrix`
assemble blocks over the lcm of their denominators, and
:func:`integer_matrix` and :func:`fraction_rows` convert to and from rows of
``Fraction``. Representation matrices and the irrep, affine, Casimir and
Omega-sum algebra run on (N, D), and ``rat_commutator`` takes the integer
stacks exact flatness builds. Rows of ``Fraction`` remain the public views
of exact matrices and of the Lie algebra's structure data, whose inverse
forms have closed forms and need no solver; ``rat_mul`` has no caller in
the package and serves the tests and the benchmark. Complex numerics use numpy. Nothing here
mutates its inputs; scratch space is per call.

numpy is bound lazily: ``np`` here (and in the modules that import it from
here) loads numpy on its first attribute access, so the commands that never
touch it start without it. The lazy loader is not thread-safe under CPython
3.11, which is fine because kzmono is single-threaded.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import operator
import sys
from fractions import Fraction

from .errors import DomainError, ShapeError, SingularityError


def _lazy_import(name):
    """The module ``name``, executed on its first attribute access.

    The recipe "Implementing lazy imports" of the importlib docs; a module
    already in ``sys.modules`` is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")

ZERO = Fraction(0)
ONE = Fraction(1)
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
    """[a, b] = ab - ba of (stacks of) integer matrices, held either as
    numpy object arrays of Python ints, which cannot overflow, or as int64
    arrays; for int64 the caller proves that no entry of ab or ba, nor any
    partial sum of either or their difference, leaves the int64 range
    (exact flatness converts only when 4 m^2 dim < 2^62, m = max|entry|)."""
    comm = a @ b
    comm -= b @ a
    return comm


# ---------------------------------------------------------------------------
# dense exact matrices as (N, D): object array of Python ints over the lcm D
# of the denominators
# ---------------------------------------------------------------------------

def integer_matrix(rows, shape):
    """The matrix with the given rows of ``Fraction`` (or int) entries as
    (N, D), in lowest terms; ``shape`` fixes the shape of an empty one."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return np.array(num, dtype=object).reshape(shape), den


def fraction_rows(num, den):
    """The matrix N / D as rows of ``Fraction``; each distinct numerator is
    divided once."""
    fracs = {}
    return [
        [fracs[x] if x in fracs else fracs.setdefault(x, Fraction(x, den)) for x in row]
        for row in num.tolist()
    ]


def block_matrix(shape, blocks):
    """(N, D) of the given shape with each block of ``blocks`` =
    [(rows, cols, (N, D))] placed at rows x cols and zeros elsewhere, over
    the lcm of their D."""
    den = math.lcm(*(d for _, _, (_, d) in blocks))
    num = np.zeros(shape, dtype=object)
    for rows, cols, (n, d) in blocks:
        num[np.ix_(rows, cols)] = n * (den // d)
    return num, den


def concat(mats, axis):
    """(N, D) blocks joined along ``axis`` over the lcm of their D."""
    den = math.lcm(*(d for _, d in mats))
    return np.concatenate([n * (den // d) for n, d in mats], axis=axis), den


# Work, in multiply-adds (rows * inner * cols summed over the products of a
# call), from which combine converts to int64. Measured on a 2-vCPU x86-64
# VM, CPython 3.11, numpy 2.4: per call the int64 path is 0.6-0.8x as fast
# as Python ints on one 6x6x6 product (216), 1.4x on 8x8x8 (512), 4-5x on
# 16x16x16 (4096) and about 20x on two 69x69x69 products. But the first
# int64 product in a process adds about 0.17 MB of peak RSS, and the
# benchmark's affine workload ran as fast at 4096 as at 512, so the small
# irrep blocks (such as the 8x8 commutators of sl3 adjoint matrices) stay on
# Python ints.
_INT64_MIN_WORK = 4096
# every int64 intermediate of an exact kernel stays below this, proved
# before the kernel runs
INT64_LIMIT = 2 ** 62


def max_abs(a):
    """max |a_ij| of an integer array as a Python int, 0 for an empty one;
    unlike ``np.abs``, exact at the most negative int64."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _int64_chains(scales, chains):
    """The factors of every chain as int64 arrays, or None when a factor
    does not fit int64 or the bound below reaches ``INT64_LIMIT``.

    Each |entry| of a product of factors with max |F_i| <= M_i and inner
    dimensions k_j is at most prod M_i * prod k_j, and so is every partial
    sum the product forms; with every M_i, k_j and |scale| raised to at
    least 1 the same bound covers each partial product of a chain, and the
    sum over terms bounds every partial sum of the total. A zero factor or
    a zero product cannot hide a large intermediate, nor a large scale."""
    ints = {}
    bound = 0
    for scale, chain in zip(scales, chains):
        term = max(abs(scale), 1)
        for i, n in enumerate(chain):
            if id(n) not in ints:
                try:
                    ints[id(n)] = n.astype(np.int64)
                except OverflowError:
                    return None
            term *= max(max_abs(ints[id(n)]), 1)
            if i:
                term *= max(n.shape[0], 1)
        bound += term
    if bound >= INT64_LIMIT:
        return None
    return [[ints[id(n)] for n in chain] for chain in chains]


def _sum_products(total, scales, chains):
    """Add scale * (F_1 @ F_2 @ ...) into ``total`` for each chain; an empty
    chain is the identity."""
    for scale, chain in zip(scales, chains):
        if chain:
            total += scale * functools.reduce(operator.matmul, chain)
        else:
            total[np.diag_indices(len(total))] += scale
    return total


def combine(terms, shape):
    """sum coeff * (F_1 @ F_2 @ ...) over ``terms`` = [(coeff, (F_1, ...))],
    each F an (N, D) pair and coeff rational, as (N, D) of the given shape in
    lowest terms; N holds Python ints. An empty product stands for the
    identity. Raises ShapeError unless every chain runs from shape[0] rows
    to shape[1] columns through agreeing inner dimensions (so an identity
    term needs a square shape).

    With every term scaled to the common denominator D, the sum is formed
    on int64 when its products do at least ``_INT64_MIN_WORK``
    multiply-adds and an a-priori bound, sum_t max(|scale_t|, 1) *
    prod_i max(max|F_i|, 1) * prod max(inner dim, 1), shows that no
    partial product or partial sum reaches 2^62; otherwise, or when a
    factor does not fit int64, on Python ints. Both give the same exact
    result."""
    rows, cols = shape
    nums, dens, chains, work = [], [], [], 0
    for coeff, factors in terms:
        den, width, chain = coeff.denominator, rows, []
        for n, d in factors:
            r, c = n.shape
            if r != width:
                raise ShapeError(f"factor {len(chain)} of a product has {r} rows, not {width}")
            if chain:
                work += rows * r * c
            chain.append(n)
            width = c
            den *= d
        if width != cols:
            raise ShapeError(f"a product with {width} columns cannot fill shape {shape}")
        nums.append(coeff.numerator)
        dens.append(den)
        chains.append(chain)
    den = math.lcm(*dens)
    scales = [c * (den // d) for c, d in zip(nums, dens)]
    if work >= _INT64_MIN_WORK:
        ints = _int64_chains(scales, chains)
        if ints is not None:
            total = _sum_products(np.zeros(shape, dtype=np.int64), scales, ints)
            g = math.gcd(den, int(np.gcd.reduce(total.ravel())))
            return (total // g).astype(object), den // g
    total = _sum_products(np.zeros(shape, dtype=object), scales, chains)
    g = math.gcd(den, *total.flat)
    return total // g, den // g


# ---------------------------------------------------------------------------
# exact elimination: one sparse RREF routine for ranks, null spaces and
# Gram-matrix basis selection
# ---------------------------------------------------------------------------

def _integer_row(row):
    """A rational row {column: value} scaled to integers by the lcm of its
    denominators, with its zero entries dropped."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


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
    """Sparse rational Gaussian elimination, fraction free.

    ``rows`` is a list of {column: rational} dicts. Returns the reduced row
    echelon form as a dict mapping pivot column -> pivot row of ``Fraction``
    entries (leading coefficient 1), pivots in increasing column order; the
    result does not depend on the order of ``rows``.

    Each row is scaled to integers and reduced by cross-multiplication, and
    every pivot row is kept primitive with a positive leading entry, so the
    loop runs on Python integers only; the RREF is unique, so dividing each
    pivot row by its leading entry at the end gives it exactly. The rows are
    taken in order of decreasing leading column: a new pivot then usually
    lies left of every entry of the earlier pivot rows, and they need no
    back-reduction against it. Only a row whose leading column was already a
    pivot can land right of the leftmost pivot, and only then are the
    earlier pivot rows reduced again.
    """
    rows = [row for row in map(_integer_row, rows) if row]
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
    return {
        c: {k: Fraction(v, prow[c]) for k, v in prow.items()}
        for c, prow in sorted(pivots.items())
    }


def exact_rank(rows, ncols):
    return len(sparse_eliminate(rows, ncols))


def nullspace_exact_sparse(rows, ncols):
    """Kernel basis of a sparse rational matrix.

    Returns a list of {index: Fraction} column vectors, one per free column,
    each carrying coefficient 1 at its own free index. Deterministic: free
    columns are taken in increasing order.
    """
    pivots = sparse_eliminate(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: ONE}
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis, free


def _sparse_rows(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def gram_select(gram):
    """Basis selection from the exact Gram matrix of a spanning list.

    Returns (selected, expand): ``selected`` is the leftmost maximal set of
    vectors that stay independent modulo the radical of the form (so their
    Gram submatrix is nonsingular), and ``expand[j]`` expresses spanning
    vector j over them. Both come from the RREF of the Gram matrix. G.x = 0
    exactly when sum x_i b_i lies in the radical, so the columns of G obey
    the same linear relations as the vectors: the pivot columns are the
    selection and the pivot rows hold the coefficients. Valid for any
    symmetric form, definite or not.
    """
    s = len(gram)
    pivots = sparse_eliminate(_sparse_rows(gram), s)
    selected = sorted(pivots)
    expand = [[pivots[c].get(j, ZERO) for c in selected] for j in range(s)]
    return selected, expand


# ---------------------------------------------------------------------------
# exact square roots and the quadratic extension Q(sqrt(-2))
# ---------------------------------------------------------------------------

def frac_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


class QuadExt:
    """Element a + b*w of the quadratic field with w^2 = -2.

    This is the smallest extension of the rationals over which the trace
    form of sl2 admits an exact orthonormal basis (its Gram determinant is
    -2, a square only once w is adjoined).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def of(x):
        return x if isinstance(x, QuadExt) else QuadExt(x)

    def __add__(self, other):
        o = QuadExt.of(other)
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadExt.of(other)
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return QuadExt.of(other) - self

    def __mul__(self, other):
        o = QuadExt.of(other)
        return QuadExt(self.a * o.a - 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QuadExt.of(other)
        n = o.a * o.a + 2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero in QuadExt")
        return self * QuadExt(o.a / n, -o.b / n)

    def __rtruediv__(self, other):
        return QuadExt.of(other) / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __eq__(self, other):
        o = QuadExt.of(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b})"

    def is_rational(self):
        return self.b == 0

    def rational(self):
        if self.b:
            raise DomainError(f"{self!r} is not rational")
        return self.a

    def to_complex(self):
        return complex(self.a) + complex(self.b) * 1j * math.sqrt(2.0)

    def sqrt(self):
        """An exact square root inside the field, or None."""
        a, b = self.a, self.b
        if b == 0:
            r = frac_sqrt(a)
            if r is not None:
                return QuadExt(r)
            r = frac_sqrt(-a / 2)
            if r is not None:
                return QuadExt(0, r)
            return None
        disc = frac_sqrt(a * a + 2 * b * b)
        if disc is None:
            return None
        for u in ((a + disc) / 2, (a - disc) / 2):
            x = frac_sqrt(u)
            if x is not None and x != 0:
                return QuadExt(x, b / (2 * x))
        return None


# ---------------------------------------------------------------------------
# sparse operators (compressed by column)
# ---------------------------------------------------------------------------

class SparseOperator:
    """Sparse linear operator with exact rational entries.

    Assembled in one pass from coordinate triples, whose repeated positions
    add up, and stored compressed by column as ``cols[j][i]``; entries that
    cancel to zero are dropped. Supports exact application to
    {index: Fraction} vectors, which reads only the columns the vector
    touches, and densification to a rational or complex matrix.
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

    def apply_dict(self, vec):
        """Exact product with a sparse column vector {index: Fraction}."""
        out = {}
        for j, x in vec.items():
            col = self.cols.get(j)
            if col and x:
                for i, v in col.items():
                    out[i] = out.get(i, ZERO) + v * x
        return {i: s for i, s in out.items() if s}

    def to_dense_rat(self):
        m = rat_zeros(*self.shape)
        for j, col in self.cols.items():
            for i, v in col.items():
                m[i][j] = v
        return m

    def to_complex(self):
        m = np.zeros(self.shape, dtype=complex)
        for j, col in self.cols.items():
            for i, v in col.items():
                m[i, j] = complex(v)
        return m

    def equals(self, other):
        return self.shape == other.shape and self.cols == other.cols


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
# (steps * P * d^2, 16 MiB).
_BATCH_ENTRIES = 2 ** 20
# The rounding and truncation one chained step adds to ||F||, relative to
# it, is at most 3 gamma_n g + 2^-52 with g = (1 - q)^-A, which stays below
# this times g for every n < 2^20; so B grows by g (1 + _NORM_SLACK g).
_NORM_SLACK = 2.0 ** -30
# No step sums more terms; a majorant that needs more has overflowed.
_MAX_TERMS = 2 ** 16


def ode_transport(residues, poles, f0, tol):
    """Transport dF/dt = sum_p R_p/(t - t_p) F from t = 0 to t = 1.

    ``residues`` stacks the R_p with shape (len(poles), d, d), and ``f0`` has
    d rows. Returns (F1, error_bound, steps). Raises ShapeError on mismatched
    shapes and SingularityError when a pole comes within 1e-12 of the path.

    Schedule. The steps depend only on the poles, so they are fixed first:
    from t_0 = 0, t_(k+1) = t_k + h_k with h_k = min(rho_k/4, 1 - t_k), where
    rho_k = min_p rho_kp and rho_kp = |t_p - t_k|. h_k is the exact float
    difference of the two ends, so the expansion point never drifts from the
    t the series is summed at.

    Series. About t_k, with r_p = h_k/(t_p - t_k) and s = (t - t_k)/h_k, the
    propagator Phi_k(s) = sum_m Phi_m s^m, Phi_0 = I, has the running sums
    G_p <- r_p (Phi_m + G_p) and (m+1) Phi_(m+1) = -sum_p R_p G_p: one product
    of [R_1 ... R_P] with the stacked G per order. The increments
    Phi_k(1) - I of a batch of consecutive steps are summed together, on
    arrays of shape (steps, P, d, d), to one number M of terms.

    Majorant. With q_p = h_k/rho_kp <= q = h_k/rho_k and row-sum norms
    y_m = ||Phi_m||, let b_j = sum_p ||R_p|| q_p^(j+1); then
    (m+1) y_(m+1) <= sum_(j<=m) b_(m-j) y_j. Since b_j <= q b_(j-1) and
    b_0 = q A_k, A_k = sum_p ||R_p|| rho_k/rho_kp, y_m is at most the
    coefficient of s^m in (1 - q s)^(-A_k), so poles far from a step add
    little to its exponent. After m terms the tail is at most c/(1 - theta),
    c = binom(A_k+m, m+1) q^(m+1), once theta = max(q, (A_k+m+1)/(m+2) q) < 1.

    Stopping. Each step's tail times ||F_k|| must be at most
    min(tol h_k, 2^-52 ||F_k||). F_k is known only after the sums, so the term
    count uses the a-priori bound B_k = ||F_c|| prod_(j<k) (1 - q_j)^(-A_j)
    >= ||F_k||, from the batch's first F_c and with slack for rounding: step k
    needs c/(1 - theta) <= min(tol h_k/B_k, 2^-52), and M is the largest of
    these counts. A batch ends where B has grown by 2^16, so that the bound
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
    if poles.ndim != 1 or f.ndim != 2:
        raise ShapeError(f"need a vector of poles and a matrix f0, got shapes "
                         f"{poles.shape} and {f.shape}")
    d, npoles = f.shape[0], len(poles)
    if res.shape != (npoles, d, d):
        raise ShapeError(f"residues of shape {res.shape} do not fit {npoles} poles "
                         f"and an f0 of {d} rows")
    pole_list = poles.tolist()
    starts, nearest, t = [], [], 0.0
    while t < 1.0:
        rho = min((abs(p - t) for p in pole_list), default=math.inf)
        if rho <= 1e-12:
            raise SingularityError(f"a pole lies within {rho:.3g} of t={t:.6g}")
        starts.append(t)
        nearest.append(rho)
        t = t + rho / _STEP_DIVISOR if rho / _STEP_DIVISOR < 1.0 - t else 1.0
    t, rho = np.array(starts), np.array(nearest)
    h = np.diff(np.append(t, 1.0))
    delta = poles - t[:, None]
    q = h / rho
    norm = np.abs(res).sum(axis=2).max(axis=1, initial=0.0)
    a = (norm * (rho[:, None] / np.abs(delta))).sum(axis=1)
    with np.errstate(over="ignore"):
        growth = (1.0 - q) ** -a
    r = (h[:, None] / delta)[:, :, None, None]
    wide = res.transpose(1, 0, 2).reshape(d, npoles * d)
    most = max(1, _BATCH_ENTRIES // max(1, npoles * d * d))
    err, lo = 0.0, 0
    while lo < len(t):
        hi, grown = lo + 1, growth[lo]
        while hi < len(t) and hi - lo < most and grown * growth[hi] <= _GROWTH_CAP:
            grown *= growth[hi]
            hi += 1
        f, e = _transport_batch(f, wide, t[lo], r[lo:hi], h[lo:hi], q[lo:hi],
                                a[lo:hi], growth[lo:hi], tol)
        err += e
        lo = hi
    return f, err, len(t)


def _transport_batch(f, wide, t0, r, h, q, a, growth, tol):
    """Chain the steps of one batch, the first at t0, onto F_c = f; returns
    the new F and the batch's error bound (see :func:`ode_transport`)."""
    fc = float(np.abs(f).sum(axis=1).max(initial=0.0))
    if not math.isfinite(fc):
        raise SingularityError(f"transport overflowed at t={t0:.6g}")
    prior = growth[:-1]
    width = 64
    # an overflow leaves the bound or c infinite, which no goal accepts
    with np.errstate(divide="ignore", over="ignore"):
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
                raise SingularityError(f"the series majorant overflowed at t={t0:.6g}")
            width *= 2
    terms = int(done.argmax(axis=1).max())
    # the tails of the majorant shrink with m once theta < 1
    tail = c[:, terms] / (1.0 - theta[:, terms])
    if terms == 0:
        return f, fc * float(tail.sum())
    steps, d = r.shape[0], wide.shape[0]
    scaled = wide * (-1.0 / np.arange(1, terms + 1))[:, None, None]
    g = r * np.eye(d)
    inc = np.zeros((steps, d, d), dtype=complex)
    for m in range(terms):
        term = scaled[m] @ g.reshape(steps, -1, d)
        inc += term
        if m + 1 < terms:
            g += term[:, None]
            g *= r
    fs = np.empty((steps + 1,) + f.shape, dtype=complex)
    fs[0] = f
    for k in range(steps):
        fs[k + 1] = fs[k] + inc[k] @ fs[k]
    norms = np.abs(fs[:-1]).sum(axis=2).max(axis=1)
    n = wide.shape[1] + terms + d
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return fs[-1], float(norms @ (tail + gamma * growth))
