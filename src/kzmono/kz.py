"""The flat connection on tensor invariants over configuration space, its
algebraic flatness certificate, and braid monodromy by parallel transport.

The connection matrices are A_i(z) = (1/kappa) sum_{j != i} W_ij/(z_i - z_j)
with W_ij the restricted two-site Casimir operators, held as (N, D) with
``Fraction`` rows as a view. Flatness is certified algebraically:
[W_ij, W_ik + W_jk] = 0 for distinct i, j, k and [W_ij, W_kl] = 0 for
disjoint pairs, evaluated in exact arithmetic. Along a line segment
z(t) = z0 + t dz every pair contributes one simple pole, so transport solves
the Fuchsian system dF/dt = (1/kappa) sum_p W_p/(t - t_p) F with
t_p = -w0_p/dw_p by local Taylor series; an arc is transported along chords
of at most pi/4 of sweep, each homotopic to its piece of the arc. All the
lines of a path are one call of :func:`numerics.ode_transport`, which fixes
each line's steps from that line's poles alone and sums the series of all
the steps together, in batches that may cross from one line to the next, so
``steps_taken`` counts those steps, a quarter of the distance to the nearest
pole each.

Swapping two points of one weight is an exact symmetry of the connection
(the S_n action on infinitesimal pure braids), so :func:`kz_system` runs
each exact step once per orbit of the group H of weight-preserving
permutations: it restricts the first pair of each pair orbit, conjugates
the rest by certified swaps, and gives the system an orbit record. On a
recorded system a local spectrum is certified once per pair orbit, and
flatness checks one relation per relation orbit first: conjugation keeps a
zero at zero, so zero representatives certify every relation. A system
without the record, built by hand or by ``dataclasses.replace``, takes the
full paths.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError, SingularityError, integer
from .invariants import (
    braid_relations, invariant_basis, omega_pair, restrict, restrict_orbits, tensor_system,
)
from .liealg import weight_form
from .numerics import (
    concat,
    exact_rank,
    fraction_rows,
    max_abs,
    ode_transport,
    product_dtype,
    rat_commutator,
)
from .reps import casimir_value, irrep, tensor_decompose


@dataclass(eq=False)
class KZSystem:
    algebra: object
    weights: list
    kappa: complex
    invariant_space: object
    # (i, j), i < j, combinations order -> held (N, D); read-only on a
    # system kz_system built (invariants.restrict_orbits), since its orbit
    # record trusts these W_ij
    integer_omegas: dict
    n: int
    # the orbit record, set by kz_system alone: the local spectra certified
    # so far, by the weights of a pair. A system built by hand or by
    # dataclasses.replace has None: its W_ij are not known to be
    # equivariant, so it takes the full paths
    _spectra: dict = field(default=None, init=False, repr=False)

    @property
    def dim(self):
        return self.invariant_space.dim

    def _point(self, k):
        return integer(k, "point index", 0, self.n)

    def _key(self, i, j):
        """The key (min, max) of distinct point indices i, j in 0..n-1."""
        i, j = self._point(i), self._point(j)
        if i == j:
            raise DomainError(f"({i}, {j}) is not a pair of distinct points of {self.n}")
        return (min(i, j), max(i, j))

    @functools.cached_property
    def omegas(self):
        """Every W_ij as rows of ``Fraction``, keyed as ``integer_omegas``."""
        return {p: fraction_rows(*m) for p, m in self.integer_omegas.items()}

    def omega(self, i, j):
        """The restricted W_ij as rows of ``Fraction``."""
        return self.omegas[self._key(i, j)]

    @functools.cached_property
    def omega_stack(self):
        """Every W_ij as one complex array of shape (pairs, dim, dim), in
        pair order; each entry is N / D, rounded once as ``float(Fraction)``."""
        d = self.dim
        mats = [[[x / den for x in row] for row in num.tolist()]
                for num, den in self.integer_omegas.values()]
        return np.array(mats, dtype=complex).reshape(len(mats), d, d)


def kz_system(alg, weights, kappa, level=None):
    """Assemble the connection data for the given factors at parameter kappa.

    ``level``, when given, is a positive integer and only triggers a warning
    for weights outside the level constraint; the connection itself is
    defined for any weights.

    The permutations of the points that keep every weight in place form a
    group H, and a swap s of two points of one weight is an exact symmetry:
    P_s.Omega_p.P_s = Omega_{s(p)}, and P_s maps the invariants to
    themselves, so W_{s(p)} = T W_p T with T = P_s on invariant coordinates
    and T^2 = 1 (:func:`invariants.swap_matrix`). In combinations order, the
    first pair of each H-orbit, keyed by the weights of its two points, is
    restricted; every later pair is the image of an earlier one under one
    such swap and is conjugated from it, with T certified once per swap
    (:func:`invariants.restrict_orbits`). So every held W_ij is the
    restriction that :func:`invariants.restrict` would give, bit for bit.
    The system gets the orbit record, with which
    :func:`exact_local_spectrum` and :func:`flatness_residual` do their
    exact work once per orbit.
    """
    kappa = complex(kappa)
    if kappa == 0 or not cmath.isfinite(kappa):
        raise DomainError("kappa must be finite and nonzero")
    weights = [tuple(w) for w in weights]
    distinct = dict.fromkeys(weights)
    if level is not None:
        level = integer(level, "level", 1)
        for w in distinct:
            if weight_form(alg, w, alg.highest_root) > level:
                warnings.warn(f"weight {w} exceeds the level-{level} constraint", stacklevel=2)
    built = {w: irrep(alg, w) for w in distinct}
    sys = tensor_system([built[w] for w in weights])
    inv = invariant_basis(sys)
    omegas = restrict_orbits(inv, lambda i, j: restrict(omega_pair(sys, i, j), inv))
    out = KZSystem(
        algebra=alg,
        weights=weights,
        kappa=kappa,
        invariant_space=inv,
        integer_omegas=omegas,
        n=len(weights),
    )
    out._spectra = {}
    return out


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
        ends = [z for s in self.segments for z in (s.startpoint, s.endpoint)]
        # NaN compares false, so it would pass every check below
        if not all(cmath.isfinite(x) for z in ends for x in z):
            raise DomainError("path coordinates must be finite")
        for a, b in zip(ends[1::2], ends[2::2]):
            gap = max(abs(x - y) for x, y in zip(a, b))
            if gap > 1e-9:
                raise DomainError(f"path segments do not chain (gap {gap:.3e})")
        if len(ends[0]) < 2:
            return  # one point has no diagonal to touch
        # a point that no arc moves and that is bit-identical at every
        # segment end stands still: a pair of two such points keeps the
        # distance it has on the first segment, and is checked there alone
        arcs = {s.moving for s in self.segments if isinstance(s, ArcSegment)}
        still = {k for k, col in enumerate(zip(*ends)) if k not in arcs and len(set(col)) == 1}
        for m, seg in enumerate(self.segments):
            d, (a, b) = min(((seg.pair_distance(a, b), (a, b))
                             for a, b in itertools.combinations(range(len(ends[2 * m])), 2)
                             if not m or a not in still or b not in still),
                            default=(math.inf, (0, 0)))
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

    def piece(self, lo, hi):
        """Segments lo..hi-1 as a path, not checked again: this path was."""
        part = object.__new__(ConfigPath)
        part.segments = self.segments[lo:hi]
        return part


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
    if not all(map(cmath.isfinite, z)):
        raise DomainError("coordinates must be finite")
    i = sys._point(i)
    coef = []
    for a, b in sys.integer_omegas:
        dz = z[a] - z[b]
        if abs(dz) <= 1e-12:
            raise SingularityError(f"z_{a+1} and z_{b+1} are within 1e-12")
        coef.append(((a == i) - (b == i)) / (sys.kappa * dz))
    d = sys.dim
    return (np.array(coef) @ sys.omega_stack.reshape(len(coef), d * d)).reshape(d, d)


# Exact flatness forms its commutators on at most this many matrix entries
# of relations at a time (32 MiB per stack on a machine type): V1^12 has
# 2145 relations of 132 x 132, and at once its stacks would take 1.2 GB.
_RELATION_ENTRIES = 2 ** 22


def flatness_residual(sys, exact=True):
    """Max norm over the commutator relation set certifying flatness.

    Relations: [W_ij, W_ik + W_jk] for distinct i, j, k, and [W_ij, W_kl]
    for disjoint pairs. Vacuously zero for n = 2. All relations are stacks
    of integer commutators of D W_ij, D the lcm of their denominators, so
    the residual is the ``Fraction`` max|C| / D^2. With m the
    largest |entry| of the D W_ij, no entry of a commutator, nor any partial
    sum or product it forms, exceeds 4 m^2 dim, and they run on the type
    :func:`numerics.product_dtype` picks from that bound: float64 below
    2^53, int64 below 2^62 and Python ints otherwise. ``exact=False``, a
    request for a float residual, raises DomainError.

    On a system :func:`kz_system` recorded, every W_ij is the restriction
    of Omega_ij, so the W's are equivariant under the group H of
    weight-preserving permutations of the points: W_{s(p)} = T W_p T^-1.
    H moves a relation only within its orbit, keyed for [W_ab, W_ac + W_bc]
    by the weights {w_a, w_b} and w_c, and for [W_p, W_q] by the weights of
    p and of q, and there conjugates it. A conjugate of zero is zero, so one
    relation of each orbit is checked first (all of them lie on the first
    four points of each weight), on a stack of the W's they use alone; if
    all are 0, so is the residual. Otherwise, and always on an
    unrecorded system, every relation is checked, so the value returned is
    max|entry| over the whole set either way.
    """
    if not exact:
        raise DomainError("flatness is certified in exact arithmetic only")
    if sys._spectra is not None:
        w = sys.weights
        first = [k for k in range(sys.n) if w[:k].count(w[k]) < 4]
        worst = _max_commutator(sys, braid_relations(first, w))
        if not worst:
            return worst
    return _max_commutator(sys, braid_relations(range(sys.n)))


def _max_commutator(sys, rel):
    """max |[W_p, W_q + W_r]| over the relations (p, q, r) of
    :func:`invariants.braid_relations`, as a ``Fraction``."""
    worst = Fraction(0)
    if not rel or not sys.dim:
        return worst
    # the W_ij the relations use, in pair order, and a zero slice last
    pairs = sorted({p for x in rel for p in x if p})
    index = {p: k for k, p in enumerate(pairs + [None])}
    left, right, extra = ([index[p] for p in col] for col in zip(*rel))
    pad = np.zeros((1, sys.dim, sys.dim), dtype=np.int64)
    stack, den = concat([(n[None], dk) for n, dk in map(sys.integer_omegas.get, pairs)]
                        + [(pad, 1)], axis=0)
    m = max_abs(stack)
    stack = stack.astype(product_dtype(4 * m * m * sys.dim), copy=False)
    step = max(1, _RELATION_ENTRIES // sys.dim ** 2)
    for lo in range(0, len(rel), step):
        x, y = stack[left[lo:lo + step]], stack[right[lo:lo + step]]
        y += stack[extra[lo:lo + step]]
        worst = max(worst, Fraction(max_abs(rat_commutator(x, y)), den * den))
    return worst


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


def parallel_transport(sys, path, tol):
    """Transport the identity frame along the path.

    Returns the fundamental solution of dF/dt = (sum_i zdot_i A_i) F at the
    endpoint, the summed series tail bounds and the step count. Every chord
    of every segment is a line of one :func:`numerics.ode_transport` call,
    with the residues W_p/kappa of the pairs that move on some line; a pair
    fixed on a line has its pole t_p = -w0_p/dw_p at infinity there. A line
    gets tol / (segments * chords of its segment). A point of the path
    without ``sys.n`` coordinates raises DomainError.
    """
    if not (0 < tol <= 1e-2):
        raise DomainError(f"tol must lie in (0, 1e-2], got {tol!r}")
    if {len(z) for seg in path.segments for z in (seg.startpoint, seg.endpoint)} != {sys.n}:
        raise DomainError(f"expected {sys.n} coordinates at every point of the path")
    d = sys.dim
    f = np.eye(d, dtype=complex)
    if d == 0:
        return HolonomyResult(matrix=f, estimated_error=0.0, steps_taken=0)
    lines, tols, poles = [], [], []
    for seg in path.segments:
        chords = _chords(seg)
        lines += chords
        tols += [tol / len(path.segments) / len(chords)] * len(chords)
    for line in lines:
        w0 = [line.start[i] - line.start[j] for i, j in sys.integer_omegas]
        dw = [line.end[i] - line.end[j] - w for (i, j), w in zip(sys.integer_omegas, w0)]
        poles.append([-w / v if v else math.inf for w, v in zip(w0, dw)])
    poles = np.array(poles, dtype=complex)
    keep = ~np.isinf(poles).all(axis=0)
    try:
        f, err, steps = ode_transport(sys.omega_stack[keep] / sys.kappa, poles[:, keep], f, tols)
    except SingularityError as exc:
        raise SingularityError(f"{exc} (segment starting at {lines[exc.line].start})") from exc
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
    return tuple(complex(k) for k in range(1, integer(n, "number of points") + 1))


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
    i, j = (integer(k, "point index", 0, n) for k in (i, j))
    if i == j:
        raise DomainError("generator needs two distinct valid indices")
    zi, zj = points[i], points[j]
    if abs(zj - zi) <= 1e-12:
        raise SingularityError(f"path touches the diagonal z_{min(i, j) + 1} = z_{max(i, j) + 1}")
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
    A singular leg frame, or an M or bound that overflows, raises
    SingularityError, not a numpy error or warning.
    """
    i, j = sys._point(i), sys._point(j)
    if basepoint is None:
        basepoint = default_basepoint(sys.n)
    path = braid_generator_path(basepoint, i, j)
    k = len(path.segments) // 2
    legs = parallel_transport(sys, path.piece(0, k), tol)
    loop = parallel_transport(sys, path.piece(k, k + 1), tol)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            m = np.linalg.solve(legs.matrix, loop.matrix @ legs.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"the frame transported along the legs is singular "
                                   f"({exc})") from exc
        err = 0.0
        if sys.dim:
            def norm(x):
                return float(np.abs(x).sum(axis=1).max())

            err = norm(np.linalg.inv(legs.matrix)) * (
                loop.estimated_error * norm(legs.matrix)
                + legs.estimated_error * (norm(loop.matrix) + norm(m))
            )
    if not math.isfinite(err):
        raise SingularityError("the holonomy or its error bound overflowed")
    return HolonomyResult(
        matrix=m,
        estimated_error=err,
        steps_taken=legs.steps_taken + loop.steps_taken,
    )


def _spectrum_candidates(alg, li, lj):
    """The candidate eigenvalues (c_nu - c_i - c_j)/2 of W_ij over the
    components nu of V_li (x) V_lj, ascending; kept in the algebra's
    ``_cache`` per pair of weights."""
    key = ("spectrum", li, lj)
    if key not in alg._cache:
        ci = casimir_value(alg, li)
        cj = casimir_value(alg, lj)
        alg._cache[key] = tuple(sorted({(casimir_value(alg, nu) - ci - cj) / 2
                                        for nu in tensor_decompose(alg, li, lj)}))
    return alg._cache[key]


def exact_local_spectrum(sys, i, j):
    """Eigenvalues (with multiplicity) of the restricted W_ij.

    Candidates mu = (c_nu - c_i - c_j)/2 run over the components nu of
    V_i (x) V_j; multiplicities come from exact rank computations, so the
    spectrum is certified, not floated.

    On a system :func:`kz_system` recorded, W_ij is conjugate to the W of
    every pair of the same weights, its orbit, so the rank certificate runs
    once per orbit and the spectrum is kept in the record. An unrecorded
    system certifies on every call.
    """
    key = sys._key(i, j)
    if sys._spectra is not None:
        orbit = frozenset((sys.weights[i], sys.weights[j]))
        if orbit in sys._spectra:
            return list(sys._spectra[orbit])
    num, den = sys.integer_omegas[key]
    cands = _spectrum_candidates(sys.algebra, tuple(sys.weights[i]), tuple(sys.weights[j]))
    d = sys.dim
    if d == 0:
        return []
    diag = num.diagonal().tolist()
    rows = [{k: x for k, x in enumerate(row) if x and k != r}
            for r, row in enumerate(num.tolist())]
    out = []
    total = 0
    for mu in cands:
        # c (D W - D mu I) with c = lcm(D, den mu) / D, an integer matrix
        # with the kernel of W - mu; exact_rank copies rows
        lcm = math.lcm(den, mu.denominator)
        c, shift = lcm // den, mu.numerator * (lcm // mu.denominator)
        mat = rows if c == 1 else [{k: c * x for k, x in row.items()} for row in rows]
        for r, row in enumerate(mat):
            row[r] = c * diag[r] - shift
        mult = d - exact_rank(mat, d)
        if mult:
            out.append((mu, mult))
            total += mult
    if total != d:
        raise ConsistencyError(
            "restricted two-site operator has eigenvalues outside the "
            "tensor-decomposition candidates"
        )
    if sys._spectra is not None:
        sys._spectra[orbit] = list(out)
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
