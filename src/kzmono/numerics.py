"""Shared arithmetic substrate: exact rational linear algebra, a quadratic
extension field for exact orthonormal bases, sparse operators, and the
transport of Fuchsian linear systems by local Taylor series.

Sparse operators are stored compressed by column, so applying one to a
sparse vector reads only the columns that vector touches.

Every exact elimination (ranks, null spaces, solves, basis selection from a
Gram matrix) runs on one routine, :func:`sparse_eliminate`, which returns the
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
of exact matrices and the format of the Lie algebra builder, which uses
``rat_zeros`` and ``rat_identity``; ``rat_mul`` has no caller in the
package and serves the tests. Complex numerics use numpy. Nothing here
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


def rat_identity(n):
    m = rat_zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


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
# exact elimination: one sparse RREF routine for ranks, null spaces, solves
# and Gram-matrix basis selection
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


def solve_exact(a, b):
    """Solve the square system a.x = b exactly, as the RREF of [a | b].

    ``b`` may be a vector or a matrix of right-hand sides. Raises ShapeError
    when ``a`` is singular.
    """
    n = len(a)
    vec = b and not isinstance(b[0], list)
    rhs = [[x] for x in b] if vec else b
    w = len(rhs[0])
    pivots = sparse_eliminate(_sparse_rows(a[i] + rhs[i] for i in range(n)), n + w)
    if sorted(pivots) != list(range(n)):
        raise ShapeError("singular system in solve_exact")
    sol = [[pivots[i].get(n + k, ZERO) for k in range(w)] for i in range(n)]
    return [row[0] for row in sol] if vec else sol


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

def ode_transport(residues, poles, f0, tol):
    """Transport dF/dt = sum_p R_p/(t - t_p) F from t = 0 to t = 1.

    ``residues`` stacks the R_p with shape (len(poles), d, d). Each step
    expands F about the current t_c with r_p = 1/(t_p - t_c): the running
    sums G_p <- r_p (F_m + G_p) give (m+1) F_{m+1} = -sum_p R_p G_p. The
    series is summed in s/h, h = min(rho/2, 1 - t_c) with rho = min_p
    |t_p - t_c|, until the tail of the scalar majorant
    ||F_c|| (1 - s/rho)^(-A), A = sum_p ||R_p|| (row-sum norms), is at most
    min(tol h, 2^-52 ||F_c||). Returns (F1, error_bound, steps). The bound
    sums, over the steps, that tail and, when m > 0 terms were summed, a
    rounding term gamma_n ||F_c|| (1 - h/rho)^(-A): the majorant bounds the
    summed norms of the terms, each of which comes from an inner product of
    length P d, so n = P d + m and gamma_n = n u / (1 - n u), u = 2^-53. Raises
    SingularityError when a pole comes within 1e-12 of the path.
    """
    res = np.asarray(residues, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    f = np.array(f0, dtype=complex)
    a = float(np.abs(res).sum(axis=2).max(axis=1).sum())
    # [R_1 ... R_P], so that one product gives sum_p R_p G_p
    wide = res.transpose(1, 0, 2).reshape(f.shape[0], -1)
    t, err, steps = 0.0, 0.0, 0
    while t < 1.0:
        delta = poles - t
        rho = float(np.abs(delta).min(initial=math.inf))
        if rho <= 1e-12:
            raise SingularityError(f"a pole lies within {rho:.3g} of t={t:.6g}")
        fc = float(np.abs(f).sum(axis=1).max())
        if not math.isfinite(fc):
            raise SingularityError(f"transport overflowed at t={t:.6g}")
        # h is the exact difference of the two floats, so the expansion
        # point never drifts from the t the series is summed at
        t_next = t + rho / 2 if rho / 2 < 1.0 - t else 1.0
        h = t_next - t
        q = h / rho
        goal = min(tol * h, 2.0 ** -52 * fc)
        r = (h / delta)[:, None, None]
        g = np.zeros((len(poles),) + f.shape, dtype=complex)
        term, total = f, f.copy()
        c, m = 1.0, 0
        while True:
            # majorant: c = binom(A+m, m+1) q^(m+1) bounds the next term over
            # ||F_c||; the later ones shrink by at most theta per order
            c *= (a + m) / (m + 1) * q
            theta = max(q, (a + m + 1) / (m + 2) * q)
            if theta < 1.0 and fc * c / (1.0 - theta) <= goal:
                break
            g = r * (term + g)
            term = wide @ g.reshape(-1, f.shape[1]) * (-1.0 / (m + 1))
            total += term
            m += 1
        err += fc * c / (1.0 - theta)
        if m:
            # rounding; a step that sums no term copies F_c exactly
            n = wide.shape[1] + m
            gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
            err += gamma * fc * (1.0 - q) ** -a
        f, t = total, t_next
        steps += 1
    return f, err, steps
