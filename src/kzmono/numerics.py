"""Shared arithmetic substrate: exact rational linear algebra, a quadratic
extension field for exact orthonormal bases, sparse operators, and an
embedded Runge-Kutta 5(4) integrator.

Every exact elimination (ranks, null spaces, solves, basis selection from a
Gram matrix) runs on one routine, :func:`sparse_eliminate`, which returns the
reduced row echelon form as pivot rows.

Dense rational matrices are plain lists of lists of ``Fraction``; rationals
are arbitrary precision by construction, never fixed width. Complex numerics
use numpy. Nothing here mutates its inputs; scratch space is per call.
"""

from __future__ import annotations

import math
from fractions import Fraction
import numpy as np

from .errors import DomainError, ShapeError, SingularityError

ZERO = Fraction(0)
ONE = Fraction(1)


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


def rat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_max_abs(a):
    best = ZERO
    for row in a:
        for x in row:
            if x < 0:
                x = -x
            if x > best:
                best = x
    return best


def rat_to_complex(a):
    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


def rat_commutator(a, b):
    return rat_sub(rat_mul(a, b), rat_mul(b, a))


# ---------------------------------------------------------------------------
# exact elimination: one sparse RREF routine for ranks, null spaces, solves
# and Gram-matrix basis selection
# ---------------------------------------------------------------------------

def _reduce_row(row, pivots):
    """Fully reduce a row against the pivot rows (which carry no entries at
    each other's pivot columns), then normalize its leading coefficient."""
    row = {k: v for k, v in row.items() if v}
    for c in sorted(k for k in list(row) if k in pivots):
        f = row.get(c)
        if not f:
            continue
        for k, v in pivots[c].items():
            nv = row.get(k, ZERO) - f * v
            if nv:
                row[k] = nv
            elif k in row:
                del row[k]
    if not row:
        return None, None
    c = min(row)
    lead = row[c]
    return c, {k: v / lead for k, v in row.items()}


def sparse_eliminate(rows, ncols):
    """Sparse rational Gaussian elimination.

    ``rows`` is a list of {column: Fraction} dicts. Returns a dict mapping
    pivot column -> fully reduced pivot row (leading coefficient 1).
    """
    pivots = {}
    for row in rows:
        c, red = _reduce_row(row, pivots)
        if c is None:
            continue
        # keep earlier pivot rows reduced against the new one
        for pc, prow in pivots.items():
            if c in prow:
                f = prow[c]
                for k, v in red.items():
                    prow[k] = prow.get(k, ZERO) - f * v
                    if not prow[k]:
                        del prow[k]
        pivots[c] = red
    return pivots


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
# sparse operators (coordinate assembly, then compressed rows)
# ---------------------------------------------------------------------------

class SparseOperator:
    """Sparse linear operator with exact rational entries.

    Assembled from coordinate triples, stored compressed by row. Supports
    exact application to {index: Fraction} vectors and densification to a
    complex numpy array.
    """

    def __init__(self, shape, entries):
        self.shape = shape
        acc = {}
        for i, j, v in entries:
            if v:
                acc[(i, j)] = acc.get((i, j), ZERO) + v
        rows = {}
        for (i, j), v in acc.items():
            if v:
                rows.setdefault(i, {})[j] = v
        self.rows = rows

    @property
    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def apply_dict(self, vec):
        """Exact product with a sparse column vector {index: Fraction}."""
        cols = {}
        for j, x in vec.items():
            if x:
                cols.setdefault(j, x)
        out = {}
        for i, row in self.rows.items():
            s = ZERO
            for j, v in row.items():
                x = cols.get(j)
                if x is not None:
                    s += v * x
            if s:
                out[i] = s
        return out

    def to_dense_rat(self):
        m = rat_zeros(*self.shape)
        for i, row in self.rows.items():
            for j, v in row.items():
                m[i][j] = v
        return m

    def to_complex(self):
        m = np.zeros(self.shape, dtype=complex)
        for i, row in self.rows.items():
            for j, v in row.items():
                m[i, j] = complex(v)
        return m

    def equals(self, other):
        return self.shape == other.shape and self.rows == other.rows


# ---------------------------------------------------------------------------
# embedded Runge-Kutta 5(4) transport (Dormand-Prince pair, PI step control)
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: local truncation error weights
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

MAX_TRANSPORT_STEPS = 2_000_000


def ode_transport(field, t0, t1, f0, tol, max_step=None, fixed_step=None):
    """Transport dF/dt = field(t).F from t0 to t1.

    ``field`` maps t to a complex matrix. Returns (F1, error_estimate,
    steps); the error estimate is the accumulated local truncation estimate,
    never silently discarded. ``max_step`` is an optional scalar or callable
    t -> cap; ``fixed_step`` disables adaptivity (used for order checks).
    Raises SingularityError on step-size underflow.
    """
    span = t1 - t0
    f = np.array(f0, dtype=complex)
    if span == 0:
        return f, 0.0, 0
    direction = 1.0 if span > 0 else -1.0
    total = abs(span)

    def cap_at(t):
        if max_step is None:
            return math.inf
        c = max_step(t) if callable(max_step) else max_step
        return max(float(c), 0.0) or math.inf

    t = t0
    err_acc = 0.0
    steps = 0
    if fixed_step is not None:
        h = abs(fixed_step)
        nsteps = max(1, round(total / h))
        h = total / nsteps
        for _ in range(nsteps):
            f, err = _dp_step(field, t, direction * h, f)
            err_acc += err
            t += direction * h
            steps += 1
        return f, err_acc, steps

    h = min(total / 16.0, cap_at(t0))
    prev_ratio = 1.0
    while (t1 - t) * direction > 1e-15 * total:
        rem = abs(t1 - t)
        h = min(h, cap_at(t))
        if h >= rem * (1 - 1e-12):
            h = rem
        elif h < 1e-14 * total:
            raise SingularityError(
                f"step size underflow at t={t:.6g} (h={h:.3g}); "
                "the path runs too close to a singular configuration"
            )
        fnew, err = _dp_step(field, t, direction * h, f)
        budget = tol * h / total
        ratio = err / budget if budget > 0 else math.inf
        if ratio <= 1.0:
            f = fnew
            t += direction * h
            err_acc += err
            steps += 1
            r = max(ratio, 1e-10)
            fac = 0.9 * r ** -0.14 * prev_ratio ** 0.08
            prev_ratio = r
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * ratio ** -0.2)
        if steps > MAX_TRANSPORT_STEPS:
            raise SingularityError("transport exceeded the step budget")
    return f, err_acc, steps


def _dp_step(field, t, h, f):
    k = []
    for i in range(7):
        y = f
        if i:
            y = f + h * sum(_DP_A[i][j] * k[j] for j in range(i) if _DP_A[i][j])
        k.append(field(t + _DP_C[i] * h) @ y)
    f5 = f + h * sum(_DP_B5[i] * k[i] for i in range(7) if _DP_B5[i])
    errm = h * sum(_DP_E[i] * k[i] for i in range(7) if _DP_E[i])
    return f5, float(np.max(np.abs(errm)))
