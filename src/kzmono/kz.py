"""The flat connection on tensor invariants over configuration space, its
algebraic flatness certificate, and braid monodromy by parallel transport.

The connection matrices are A_i(z) = (1/kappa) sum_{j != i} W_ij/(z_i - z_j)
with W_ij the restricted two-site Casimir operators. Flatness is certified
algebraically: [W_ij, W_ik + W_jk] = 0 for distinct i, j, k and [W_ij, W_kl]
= 0 for disjoint pairs, evaluated in exact arithmetic. Along a line segment
z(t) = z0 + t dz every pair contributes one simple pole, so transport solves
the Fuchsian system dF/dt = (1/kappa) sum_p W_p/(t - t_p) F with
t_p = -w0_p/dw_p by local Taylor series; an arc is transported along chords
of at most pi/4 of sweep, each homotopic to its piece of the arc. Each line
is one call of :func:`numerics.ode_transport`, which fixes the line's steps
from its poles alone and sums the series of all of them together, so
``steps_taken`` counts those steps, a quarter of the distance to the nearest
pole each.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError, SingularityError
from .invariants import invariant_basis, omega_pair, restrict, tensor_system
from .liealg import weight_form
from .numerics import (
    INT64_LIMIT,
    exact_rank,
    max_abs,
    np,
    ode_transport,
    rat_commutator,
)
from .reps import casimir_value, irrep, tensor_decompose


@dataclass(eq=False)
class KZSystem:
    algebra: object
    weights: list
    kappa: complex
    invariant_space: object
    omegas: dict              # (i, j), i < j, combinations order -> exact matrix
    n: int

    @property
    def dim(self):
        return self.invariant_space.dim

    def omega(self, i, j):
        """The restricted W_ij, for distinct point indices i, j in 0..n-1."""
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise DomainError(f"({i}, {j}) is not a pair of distinct points of {self.n}")
        return self.omegas[(min(i, j), max(i, j))]

    @functools.cached_property
    def omega_stack(self):
        """Every W_ij as one complex array of shape (pairs, dim, dim), in
        the order of ``omegas``."""
        d = self.dim
        mats = list(self.omegas.values())
        return np.array(mats, dtype=complex).reshape(len(mats), d, d)


def kz_system(alg, weights, kappa, level=None):
    """Assemble the connection data for the given factors at parameter kappa.

    ``level``, when given, only triggers a warning for weights outside the
    level constraint; the connection itself is defined for any weights.
    """
    kappa = complex(kappa)
    if kappa == 0 or not cmath.isfinite(kappa):
        raise DomainError("kappa must be finite and nonzero")
    weights = [tuple(w) for w in weights]
    if level is not None:
        theta = alg.highest_root
        for w in weights:
            if weight_form(alg, w, theta) > level:
                warnings.warn(
                    f"weight {w} exceeds the level-{level} constraint",
                    stacklevel=2,
                )
    built = {w: irrep(alg, w) for w in dict.fromkeys(weights)}
    sys = tensor_system([built[w] for w in weights])
    inv = invariant_basis(sys)
    omegas = {}
    for i, j in itertools.combinations(range(len(weights)), 2):
        omegas[(i, j)] = restrict(omega_pair(sys, i, j), inv)
    return KZSystem(
        algebra=alg,
        weights=weights,
        kappa=kappa,
        invariant_space=inv,
        omegas=omegas,
        n=len(weights),
    )


# ---------------------------------------------------------------------------
# configuration paths
# ---------------------------------------------------------------------------

@dataclass
class LineSegment:
    start: tuple
    end: tuple

    def at(self, t):
        return tuple(a + t * (b - a) for a, b in zip(self.start, self.end))

    @property
    def endpoint(self):
        return self.end

    @property
    def startpoint(self):
        return self.start

    def pair_distance(self, a, b):
        """Closest approach of z_a and z_b: min over t in [0, 1] of
        |w0 + t dw|, in closed form."""
        w0 = self.start[a] - self.start[b]
        dw = self.end[a] - self.end[b] - w0
        t = 0.0
        if dw:
            t = min(max(-(w0 * dw.conjugate()).real / abs(dw) ** 2, 0.0), 1.0)
        return abs(w0 + t * dw)


@dataclass
class ArcSegment:
    """One coordinate sweeps a circular arc; the others stand still."""

    fixed: tuple              # full configuration with the moving slot ignored
    moving: int
    center: complex
    radius: float
    angle0: float
    sweep: float

    def at(self, t):
        z = list(self.fixed)
        z[self.moving] = self.center + self.radius * cmath.exp(
            1j * (self.angle0 + t * self.sweep)
        )
        return tuple(z)

    @property
    def startpoint(self):
        return self.at(0.0)

    @property
    def endpoint(self):
        return self.at(1.0)

    def pair_distance(self, a, b):
        """Closest approach of z_a and z_b over the sweep. A pair without
        the moving point keeps its distance; with it, the distance to the
        circle when the nearest circle point lies on the arc, else the
        nearer arc endpoint."""
        if self.moving not in (a, b):
            return abs(self.fixed[a] - self.fixed[b])
        p = self.fixed[b if a == self.moving else a]
        off = p - self.center
        lo = self.angle0 + min(self.sweep, 0.0)
        if (cmath.phase(off) - lo) % (2 * math.pi) <= abs(self.sweep):
            return abs(abs(off) - self.radius)
        return min(abs(self.at(t)[self.moving] - p) for t in (0.0, 1.0))


@dataclass
class ConfigPath:
    segments: list

    def __post_init__(self):
        if not self.segments:
            raise DomainError("a path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            gap = max(abs(x - y) for x, y in zip(a.endpoint, b.startpoint))
            if gap > 1e-9:
                raise DomainError(f"path segments do not chain (gap {gap:.3e})")
        if len(self.start) < 2:
            return  # one point has no diagonal to touch
        for seg in self.segments:
            d, (a, b) = min(
                (seg.pair_distance(a, b), (a, b))
                for a, b in itertools.combinations(range(len(seg.startpoint)), 2)
            )
            if d <= 1e-12:
                raise SingularityError(f"path touches the diagonal z_{a+1} = z_{b+1}")

    @property
    def start(self):
        return self.segments[0].startpoint

    @property
    def end(self):
        return self.segments[-1].endpoint

    def reversed(self):
        return ConfigPath([_reverse_segment(s) for s in reversed(self.segments)])


def _reverse_segment(seg):
    if isinstance(seg, LineSegment):
        return LineSegment(seg.end, seg.start)
    return ArcSegment(
        fixed=seg.fixed,
        moving=seg.moving,
        center=seg.center,
        radius=seg.radius,
        angle0=seg.angle0 + seg.sweep,
        sweep=-seg.sweep,
    )


def path_through(points):
    """Piecewise-linear path through a list of configurations."""
    return ConfigPath(
        [LineSegment(tuple(a), tuple(b)) for a, b in zip(points, points[1:])]
    )


# ---------------------------------------------------------------------------
# connection and transport
# ---------------------------------------------------------------------------

def connection_matrix(sys, i, z):
    """A_i(z) = (1/kappa) sum_{j != i} W_ij / (z_i - z_j), complex dense,
    as one product of the pair coefficients with the stacked W_ij."""
    z = tuple(complex(x) for x in z)
    if len(z) != sys.n:
        raise DomainError(f"expected {sys.n} coordinates, got {len(z)}")
    if not 0 <= i < sys.n:
        raise DomainError(f"point index {i} out of range for {sys.n} points")
    coef = []
    for a, b in sys.omegas:
        dz = z[a] - z[b]
        if abs(dz) <= 1e-12:
            raise SingularityError(f"z_{a+1} and z_{b+1} are within 1e-12")
        coef.append(((a == i) - (b == i)) / (sys.kappa * dz))
    d = sys.dim
    return (np.array(coef) @ sys.omega_stack.reshape(len(coef), d * d)).reshape(d, d)


def _integer_stack(sys):
    """Every W_ij, as read from ``omegas`` now, as one object array of
    Python ints of shape (pairs + 1, dim, dim) over the common denominator D
    of all entries; the last slice is zero. Returns (array, D)."""
    mats = list(sys.omegas.values())
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    d = sys.dim
    stack = np.zeros((len(mats) + 1, d, d), dtype=object)
    for k, m in enumerate(mats):
        stack[k] = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    return stack, den


def flatness_residual(sys, exact=True):
    """Max norm over the commutator relation set certifying flatness.

    Relations: [W_ij, W_ik + W_jk] for distinct i, j, k, and [W_ij, W_kl]
    for disjoint pairs. Vacuously zero for n = 2. Exact mode evaluates all
    relations at once as integer commutators of D W_ij, whose entries are
    D^2 times the exact ones, so the residual is max|C| / D^2. They run on
    int64 when the largest |entry| m of the D W_ij gives 4 m^2 dim < 2^62,
    and on Python ints otherwise.
    """
    worst = Fraction(0) if exact else 0.0
    if sys.dim == 0:
        return worst
    index = {p: k for k, p in enumerate(sys.omegas)}
    zero = len(index)

    def pair(a, b):
        return index[(min(a, b), max(a, b))]

    rel = [
        (pair(a, b), pair(a, c), pair(b, c))
        for i, j, k in itertools.combinations(range(sys.n), 3)
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i))
    ]
    rel += [
        (index[p], index[q], zero)
        for p, q in itertools.combinations(sys.omegas, 2)
        if not set(p) & set(q)
    ]
    if not rel:
        return worst
    left, right, extra = (list(x) for x in zip(*rel))
    if exact:
        stack, den = _integer_stack(sys)
        m = max_abs(stack)
        if 4 * m * m * sys.dim < INT64_LIMIT:
            # no commutator entry or partial sum below exceeds 4 m^2 dim
            stack = stack.astype(np.int64)
        x, y = stack[left], stack[right]
        y += stack[extra]
        comm = rat_commutator(x, y)
        return Fraction(max_abs(comm), den * den)
    stack = np.concatenate([sys.omega_stack, np.zeros((1, sys.dim, sys.dim))])
    x, y = stack[left], stack[right] + stack[extra]
    return float(np.max(np.abs(x @ y - y @ x)))


@dataclass
class HolonomyResult:
    matrix: np.ndarray
    estimated_error: float
    steps_taken: int


def _chords(seg):
    """A line as itself; an arc as chords of at most pi/4 of sweep. A chord
    is homotopic to its piece of the arc unless a fixed point lies in the
    sliver between them, which is refused."""
    if isinstance(seg, LineSegment):
        return [seg]
    k = max(1, math.ceil(abs(seg.sweep) / (math.pi / 4)))
    pts = [seg.at(m / k) for m in range(k + 1)]
    for a, b in zip(pts, pts[1:]):
        # the chord's midpoint, seen from the centre, points at the arc's
        # midpoint; the sliver is the disc beyond the chord's line
        mid = (a[seg.moving] + b[seg.moving]) / 2 - seg.center
        for l, p in enumerate(seg.fixed):
            off = p - seg.center
            if (l != seg.moving and abs(off) <= seg.radius
                    and (off * mid.conjugate()).real >= abs(mid) ** 2):
                raise SingularityError(
                    f"z_{l+1} lies between an arc and its chord, so the chord "
                    "is not homotopic to the arc"
                )
    return [LineSegment(a, b) for a, b in zip(pts, pts[1:])]


def _fuchsian_data(sys, line):
    """Residues W_p/kappa and collision times t_p = -w0_p/dw_p of the pairs
    whose difference w_p = w0_p + t dw_p moves along the line."""
    w0 = [line.start[i] - line.start[j] for i, j in sys.omegas]
    dw = [line.end[i] - line.end[j] - w for (i, j), w in zip(sys.omegas, w0)]
    keep = [k for k, x in enumerate(dw) if x]
    return sys.omega_stack[keep] / sys.kappa, [-w0[k] / dw[k] for k in keep]


def parallel_transport(sys, path, tol):
    """Transport the identity frame along the path.

    Returns the fundamental solution of dF/dt = (sum_i zdot_i A_i) F at the
    endpoint, the summed series tail bounds and the step count.
    """
    if not (0 < tol <= 1e-2):
        raise DomainError(f"tol must lie in (0, 1e-2], got {tol!r}")
    d = sys.dim
    f = np.eye(d, dtype=complex)
    if d == 0:
        return HolonomyResult(matrix=f, estimated_error=0.0, steps_taken=0)
    err = 0.0
    steps = 0
    for seg in path.segments:
        lines = _chords(seg)
        for line in lines:
            try:
                f, e, s = ode_transport(
                    *_fuchsian_data(sys, line), f, tol / len(path.segments) / len(lines)
                )
            except SingularityError as exc:
                raise SingularityError(f"{exc} (segment starting at {line.start})") from exc
            err += e
            steps += s
    return HolonomyResult(matrix=f, estimated_error=err, steps_taken=steps)


def compose(first, second):
    """Holonomy of 'first then second' as a single result."""
    return HolonomyResult(
        matrix=second.matrix @ first.matrix,
        estimated_error=first.estimated_error + second.estimated_error,
        steps_taken=first.steps_taken + second.steps_taken,
    )


# ---------------------------------------------------------------------------
# braid generators
# ---------------------------------------------------------------------------

def default_basepoint(n):
    return tuple(complex(k) for k in range(1, n + 1))


def _clearance(points, k):
    return 0.5 * min(abs(points[l] - points[k]) for l in range(len(points)) if l != k)


def _detour_segments(points, moving, start, end):
    """Move one coordinate from start to end, arcing below any obstruction.

    Obstructing fixed points get a semicircular detour through their lower
    side, which realizes the standard convention that the travelling strand
    passes in front of intermediate ones.
    """
    obstacles = []
    d = end - start
    length = abs(d)
    if length == 0:
        return []
    u = d / length
    for k, p in enumerate(points):
        if k == moving:
            continue
        s = ((p - start) / u).real
        if 0 < s < length:
            perp = abs(p - (start + s * u))
            r = _clearance(points, k)
            if perp < r:
                obstacles.append((s, k, r))
    obstacles.sort()
    segs = []
    cur = start
    cfg = list(points)

    def line_to(z):
        nonlocal cur
        if abs(z - cur) > 1e-15:
            a = list(cfg)
            b = list(cfg)
            a[moving] = cur
            b[moving] = z
            segs.append(LineSegment(tuple(a), tuple(b)))
            cur = z

    for s, k, r in obstacles:
        p = points[k]
        # chord entry/exit on the clearance circle around the obstacle
        mid = start + s * u
        half = math.sqrt(max(r * r - abs(p - mid) ** 2, 0.0))
        z_in = mid - half * u
        z_out = mid + half * u
        line_to(z_in)
        a_in = cmath.phase(z_in - p)
        a_out = cmath.phase(z_out - p)
        sweep = (a_out - a_in) % (2 * math.pi)
        sweep_ccw = sweep
        sweep_cw = sweep - 2 * math.pi
        # pick the sweep whose midpoint dips lower (below convention)
        mid_ccw = (p + r * cmath.exp(1j * (a_in + sweep_ccw / 2))).imag
        mid_cw = (p + r * cmath.exp(1j * (a_in + sweep_cw / 2))).imag
        sweep = sweep_cw if mid_cw < mid_ccw else sweep_ccw
        segs.append(
            ArcSegment(
                fixed=tuple(cfg),
                moving=moving,
                center=p,
                radius=r,
                angle0=a_in,
                sweep=sweep,
            )
        )
        cur = z_out
    line_to(end)
    return segs


def braid_generator_path(basepoint, i, j):
    """Loop realizing the pure-braid generator: z_j approaches z_i, circles
    it once counterclockwise at half the nearest-neighbor radius, returns."""
    points = tuple(complex(z) for z in basepoint)
    n = len(points)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise DomainError("generator needs two distinct valid indices")
    zi, zj = points[i], points[j]
    rho = _clearance(points, i)
    u = (zj - zi) / abs(zj - zi)
    entry = zi + rho * u
    approach = _detour_segments(points, j, zj, entry)
    cfg = list(points)
    cfg[j] = entry
    circle = ArcSegment(
        fixed=tuple(cfg),
        moving=j,
        center=zi,
        radius=rho,
        angle0=cmath.phase(u),
        sweep=2 * math.pi,
    )
    segs = approach + [circle] + [_reverse_segment(s) for s in reversed(approach)]
    return ConfigPath(segs)


def braid_monodromy(sys, i, j, tol, basepoint=None):
    """Holonomy of the standard pure-braid generator around (i, j).

    The approach legs gamma are transported once: M = T(gamma)^-1 T(circle)
    T(gamma). With e_l, e_c the bounds on the legs and the circle, the error
    of M is bounded to first order, in the infinity norm, by
    ||T(gamma)^-1|| (e_c ||T(gamma)|| + e_l (||T(circle)|| + ||M||)).
    """
    if basepoint is None:
        basepoint = default_basepoint(sys.n)
    segs = braid_generator_path(basepoint, i, j).segments
    k = len(segs) // 2
    legs = parallel_transport(sys, ConfigPath(segs[:k]), tol)
    loop = parallel_transport(sys, ConfigPath([segs[k]]), tol)
    m = np.linalg.solve(legs.matrix, loop.matrix @ legs.matrix)
    err = 0.0
    if sys.dim:
        def norm(x):
            return float(np.abs(x).sum(axis=1).max())

        err = norm(np.linalg.inv(legs.matrix)) * (
            loop.estimated_error * norm(legs.matrix)
            + legs.estimated_error * (norm(loop.matrix) + norm(m))
        )
    return HolonomyResult(
        matrix=m,
        estimated_error=err,
        steps_taken=legs.steps_taken + loop.steps_taken,
    )


@functools.lru_cache(maxsize=None)
def _spectrum_candidates(alg, li, lj):
    """The candidate eigenvalues (c_nu - c_i - c_j)/2 of W_ij over the
    components nu of V_li (x) V_lj, ascending; cached per algebra and pair
    of weights."""
    ci = casimir_value(alg, li)
    cj = casimir_value(alg, lj)
    return tuple(sorted({(casimir_value(alg, nu) - ci - cj) / 2
                         for nu in tensor_decompose(alg, li, lj)}))


def exact_local_spectrum(sys, i, j):
    """Eigenvalues (with multiplicity) of the restricted W_ij.

    Candidates mu = (c_nu - c_i - c_j)/2 run over the components nu of
    V_i (x) V_j; multiplicities come from exact rank computations, so the
    spectrum is certified, not floated.
    """
    mat = sys.omega(i, j)
    cands = _spectrum_candidates(sys.algebra, tuple(sys.weights[i]), tuple(sys.weights[j]))
    d = sys.dim
    if d == 0:
        return []
    out = []
    total = 0
    for mu in cands:
        rows = [
            {c: y for c, x in enumerate(row) if (y := x - mu if c == r else x)}
            for r, row in enumerate(mat)
        ]
        mult = d - exact_rank(rows, d)
        if mult:
            out.append((mu, mult))
            total += mult
    if total != d:
        raise ConsistencyError(
            "restricted two-site operator has eigenvalues outside the "
            "tensor-decomposition candidates"
        )
    return out


def eigenvalue_check(sys, i, j, tol, transport_tol=1e-8, basepoint=None):
    """Compare monodromy eigenvalue phases against exp(2 pi i mu / kappa).

    ``mu`` runs over the exact spectrum of the restricted W_ij. Returns a
    report dict with the max phase deviation and the matched pairs.
    """
    spec = exact_local_spectrum(sys, i, j)
    expected = []
    kap = complex(sys.kappa)
    for mu, mult in spec:
        expected.extend([cmath.exp(2j * math.pi * complex(mu) / kap)] * mult)
    if not expected:
        return {"max_deviation": 0.0, "pairs": [], "passed": True}
    hol = braid_monodromy(sys, i, j, transport_tol, basepoint=basepoint)
    got = sorted(np.linalg.eigvals(hol.matrix), key=lambda z: (z.real, z.imag))
    remaining = list(expected)
    pairs = []
    worst = 0.0
    for g in got:
        k = min(range(len(remaining)), key=lambda t: abs(remaining[t] - g))
        e = remaining.pop(k)
        dev = abs(e - g)
        pairs.append((e, complex(g), dev))
        worst = max(worst, dev)
    return {
        "max_deviation": worst,
        "pairs": pairs,
        "passed": worst < tol,
        "transport_error": hol.estimated_error,
    }
