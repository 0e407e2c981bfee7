import cmath
import collections
import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from kzmono import kz
from kzmono.errors import ConsistencyError, DomainError, SingularityError
from kzmono.kz import (
    ArcSegment,
    ConfigPath,
    LineSegment,
    braid_generator_path,
    braid_monodromy,
    compose,
    connection_matrix,
    default_basepoint,
    eigenvalue_check,
    exact_local_spectrum,
    flatness_residual,
    kz_system,
    parallel_transport,
    path_through,
)
from kzmono.invariants import omega_pair, restrict
from kzmono.liealg import build_algebra
from kzmono.numerics import Held, fraction_rows, max_abs, rat_commutator, rat_mul
from kzmono.reps import casimir_value, irrep

from oracles import integer_matrix, rat_add, rat_sub, temperley_lieb_swaps


def with_omegas(sys, omegas):
    """A copy of ``sys`` whose W_ij are the given rows of ``Fraction``, held
    as (N, D) in lowest terms, as restrict hands them on."""
    d = sys.dim
    return dataclasses.replace(sys, integer_omegas={
        p: Held(*integer_matrix(m, (d, d))) for p, m in omegas.items()
    })


def copied_omegas(sys):
    return {p: [list(row) for row in m] for p, m in sys.omegas.items()}


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


# the exact systems of the benchmark's kz_exact workload
WARM_SYSTEMS = [
    (1, [(1,)] * 8),
    (1, [(2,)] * 6),
    (2, [(1, 0)] * 3 + [(0, 1)] * 3),
    (2, [(1, 1)] * 4),
]


@pytest.fixture(scope="module")
def sys11(a1):
    return kz_system(a1, [(1,), (1,)], 3)


class TestSystem:
    def test_rejects_zero_kappa(self, a1):
        for kappa in (0, math.nan, complex(1, math.nan), math.inf):
            with pytest.raises(DomainError):
                kz_system(a1, [(1,), (1,)], kappa)

    def test_warns_outside_level(self, a1):
        with pytest.warns(UserWarning):
            kz_system(a1, [(2,), (2,)], 3, level=1)

    def test_warns_once_per_distinct_weight(self, a1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kz_system(a1, [(2,), (3,), (2,), (1,), (3,), (2,)], 3, level=1)
        assert [str(w.message) for w in caught] == [
            "weight (2,) exceeds the level-1 constraint",
            "weight (3,) exceeds the level-1 constraint",
        ]

    def test_bad_pairs_rejected(self, a1):
        # (0, 0) raised KeyError, (0, 7) IndexError, and (-1, 2) read the
        # weight of the last point before a KeyError
        sys = kz_system(a1, [(1,)] * 4, 3)
        for i, j in [(0, 0), (0, 7), (-1, 2)]:
            with pytest.raises(DomainError):
                sys.omega(i, j)
            with pytest.raises(DomainError):
                exact_local_spectrum(sys, i, j)
            with pytest.raises(DomainError):
                eigenvalue_check(sys, i, j, 1e-6)

    def test_non_integer_pair_rejected(self, a1):
        # 1.0 raised a bare TypeError at sys.weights[1.0]
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(DomainError):
            exact_local_spectrum(sys, 1.0, 2)
        # integer types other than int are indices
        assert exact_local_spectrum(sys, np.int64(1), 2) == exact_local_spectrum(sys, 1, 2)

    def test_factors_built_once_per_weight(self, a1, monkeypatch):
        import kzmono.kz as kz

        built = []
        monkeypatch.setattr(kz, "irrep", lambda alg, w: built.append(w) or irrep(alg, w))
        sys = kz_system(a1, [(1,), (2,), (1,), (1,)], 3)
        assert sorted(built) == [(1,), (2,)]
        f = sys.invariant_space.ambient.factors
        assert f[0] is f[2] is f[3] and f[1] is not f[0]

    def test_omegas_complete(self, a1):
        sys = kz_system(a1, [(1,)] * 4, 3)
        assert set(sys.omegas) == set(itertools.combinations(range(4), 2))

    @pytest.mark.parametrize("rank,weights", WARM_SYSTEMS, ids=["v1x8", "v2x6", "a2_3x3", "adj4"])
    def test_warm_build_matches_cold(self, rank, weights):
        # the second system on one algebra reuses the irreps, their derived
        # and dual matrices and the spectrum candidates of the first; it
        # equals a build on a fresh algebra bit for bit
        alg = build_algebra("A", rank)
        first = kz_system(alg, weights, 3.5)
        flatness_residual(first)
        for i, j in first.integer_omegas:
            exact_local_spectrum(first, i, j)
        order = weights[1::2] + weights[::2]
        warm = kz_system(alg, order, 3.5)
        cold = kz_system(build_algebra("A", rank), order, 3.5)
        assert all(f is irrep(alg, w) for f, w in zip(warm.invariant_space.ambient.factors, order))
        a, b = warm.invariant_space, cold.invariant_space
        assert a.den == b.den and a.free == b.free and a.dim > 0
        assert a.support.dtype == b.support.dtype and np.array_equal(a.support, b.support)
        assert a.rows.dtype == b.rows.dtype and a.rows.tolist() == b.rows.tolist()
        assert list(warm.integer_omegas) == list(cold.integer_omegas)
        for p, (num, den) in warm.integer_omegas.items():
            ref_num, ref_den = cold.integer_omegas[p]
            assert den == ref_den and num.dtype == ref_num.dtype, p
            assert num.tolist() == ref_num.tolist(), p
        assert flatness_residual(warm) == flatness_residual(cold) == 0
        for i, j in warm.integer_omegas:
            assert exact_local_spectrum(warm, i, j) == exact_local_spectrum(cold, i, j)

    def test_algebra_is_freed_with_its_cache(self):
        # the irreps and spectrum candidates live on the algebra object, so
        # nothing module-level keeps it alive once its last user is gone
        alg = build_algebra("A", 1)
        sys = kz_system(alg, [(1,), (2,), (1,), (2,)], 3)
        assert exact_local_spectrum(sys, 0, 1)
        assert flatness_residual(sys) == 0
        ref = weakref.ref(alg)
        del alg, sys
        gc.collect()
        assert ref() is None


class TestConnectionMatrix:
    def test_two_point_value(self, sys11):
        # singlet eigenvalue -3/2 over kappa (z_1 - z_2) = 1/2 at (0, 1)
        a = connection_matrix(sys11, 0, (0.0, 1.0))
        assert np.allclose(a, [[0.5]])

    def test_translation_invariance(self, a1):
        sys = kz_system(a1, [(1,), (1,), (2,)], 3)
        z = (0.0, 1.3, 2.7 + 0.4j)
        shifted = tuple(x + (2.0 - 1.0j) for x in z)
        for i in range(3):
            assert np.allclose(
                connection_matrix(sys, i, z), connection_matrix(sys, i, shifted)
            )

    def test_trivial_weights_vanish(self, a1):
        sys = kz_system(a1, [(0,), (0,)], 3)
        assert np.allclose(connection_matrix(sys, 0, (0.0, 1.0)), 0)

    def test_coincident_raises(self, sys11):
        with pytest.raises(SingularityError):
            connection_matrix(sys11, 0, (1.0, 1.0))

    def test_index_out_of_range_rejected(self, sys11):
        for i in (-1, 2):
            with pytest.raises(DomainError):
                connection_matrix(sys11, i, (0.0, 1.0))

    def test_non_integer_index_rejected(self, sys11):
        # 0.5 matched no pair and gave a zero matrix
        with pytest.raises(DomainError):
            connection_matrix(sys11, 0.5, (0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
    def test_non_finite_coordinates_rejected(self, a1, bad):
        # a NaN or inf coordinate gave an all-NaN matrix
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(DomainError, match="finite"):
            connection_matrix(sys, 0, (1, 2, bad, 4))

    @pytest.mark.parametrize(
        "rank, weights",
        [(1, [(1,)] * 4), (2, [(1, 0), (0, 1), (1, 1)])],
    )
    def test_matches_pair_sum_reference(self, rank, weights):
        # (1/kappa) sum_{j != i} W_ij / (z_i - z_j) from the exact W_ij, for
        # every i, the last one included (it is only ever the j of a pair)
        kappa = 3.0 + 0.5j
        sys = kz_system(build_algebra("A", rank), weights, kappa)
        assert sys.dim > 0
        z = (0.3 + 0.1j, 1.7 - 0.4j, -0.8 + 1.2j, 2.5 + 0.9j)[: sys.n]
        for i in range(sys.n):
            ref = sum(
                np.array(
                    [[complex(x) for x in row] for row in sys.omega(i, j)]
                )
                / (z[i] - z[j])
                for j in range(sys.n)
                if j != i
            ) / kappa
            assert np.allclose(connection_matrix(sys, i, z), ref, rtol=0, atol=1e-13)

    def test_zero_dimensional_system(self, a1):
        sys = kz_system(a1, [(1,)] * 3, 3)
        assert sys.dim == 0
        for i in range(3):
            assert connection_matrix(sys, i, (0.0, 1.0, 2.0)).shape == (0, 0)


class TestFlatness:
    def test_two_points_vacuous(self, sys11):
        assert flatness_residual(sys11) == 0

    def test_exact_zero_families(self, a1):
        for ws in ([(1,), (1,), (2,)], [(1,)] * 4, [(2,), (1,), (1,), (2,)]):
            assert flatness_residual(kz_system(a1, ws, 3)) == 0

    def test_exact_zero_a2(self):
        a2 = build_algebra("A", 2)
        sys = kz_system(a2, [(1, 0), (0, 1), (1, 1)], 4)
        assert flatness_residual(sys) == 0

    def test_inexact_mode_raises(self, a1):
        # the residual is always an exact Fraction; a caller asking for a
        # float is told so rather than handed one
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(DomainError, match="exact"):
            flatness_residual(sys, exact=False)

    def test_relations_in_chunks_give_the_same_residual(self, a1, monkeypatch):
        # one relation per stack gives the residual all relations at once do
        sys = kz_system(a1, [(1,)] * 6, 3)
        omegas = copied_omegas(sys)
        omegas[(1, 3)][0][1] += Fraction(1, 3)
        sys = with_omegas(sys, omegas)
        whole = flatness_residual(sys)
        calls = []

        def spy(a, b):
            calls.append(len(a))
            return rat_commutator(a, b)

        monkeypatch.setattr(kz, "rat_commutator", spy)
        monkeypatch.setattr(kz, "_RELATION_ENTRIES", 1)
        assert flatness_residual(sys) == whole > 0
        # 3 C(6, 3) = 60 triples and 15 * 6 / 2 = 45 disjoint pairs
        assert calls == [1] * (60 + 45)

    @pytest.mark.parametrize("scale", [1, 2**24, 2**25, 2**28, 2**29, 2**40])
    def test_perturbed_omega_matches_list_reference(self, a1, scale, monkeypatch):
        # a W_ij moved by 1/2 breaks flatness by an exact amount; scaled by
        # 2^40 the products pass 2^63, and the value must stay exact. Scaled
        # by s >= 2, m = 3 s / 2 and dim = 2, so the bound 4 m^2 dim is 18 s^2:
        # below 2^53 up to 2^24 (float64), below 2^62 up to 2^28 (int64),
        # and from 2^29 on the commutators run on Python ints
        dtypes = []

        def spy(a, b):
            dtypes.append(a.dtype)
            return rat_commutator(a, b)

        monkeypatch.setattr(kz, "rat_commutator", spy)
        sys = kz_system(a1, [(1,)] * 4, 3)
        omegas = {p: [[scale * x for x in row] for row in m] for p, m in sys.omegas.items()}
        omegas[(0, 1)][0][1] += Fraction(scale, 2)
        sys = with_omegas(sys, omegas)

        def om(a, b):
            return sys.omegas[(min(a, b), max(a, b))]

        rels = [
            (om(a, b), rat_add(om(a, c), om(b, c)))
            for i, j, k in itertools.combinations(range(4), 3)
            for a, b, c in ((i, j, k), (i, k, j), (j, k, i))
        ]
        rels += [
            (sys.omegas[p], sys.omegas[q])
            for p, q in itertools.combinations(sys.omegas, 2)
            if not set(p) & set(q)
        ]
        expected = max(
            abs(v)
            for x, y in rels
            for row in rat_sub(rat_mul(x, y), rat_mul(y, x))
            for v in row
        )
        assert expected > 0
        got = flatness_residual(sys, exact=True)
        assert isinstance(got, Fraction) and got == expected
        tier = np.float64 if scale <= 2**24 else np.int64 if scale <= 2**28 else object
        assert dtypes == [np.dtype(tier)]


class TestHeldOmegas:
    @pytest.mark.parametrize("rank,weights,den", [
        (1, [(1,)] * 4, 2),
        (2, [(1, 0), (0, 1), (1, 0), (0, 1)], 3),
        (2, [(1, 0)] * 3, 3),
    ])
    def test_views_match_the_held_pairs(self, rank, weights, den):
        # an A2 W_ij over D = 3 is no dyadic float: the complex stack must
        # round each N / D once, as float(Fraction) does
        sys = kz_system(build_algebra("A", rank), weights, 3)
        assert {d for _, d in sys.integer_omegas.values()} == {den}
        assert all(math.gcd(d, *n.ravel().tolist()) == 1 for n, d in sys.integer_omegas.values())
        expect = np.array(list(sys.omegas.values()), dtype=complex)
        assert sys.omega_stack.tobytes() == expect.tobytes()
        inv = sys.invariant_space
        for (i, j), m in sys.omegas.items():
            assert fraction_rows(*restrict(omega_pair(inv.ambient, i, j), inv)) == m
            assert sys.omega(j, i) is m

    def test_built_pairs_are_read_only(self, a1):
        # the orbit record trusts the held W_ij, so a built system refuses
        # a new one; copies keep the pairs and the refusal, and a replaced
        # system takes any mapping and has no record
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(TypeError):
            sys.integer_omegas[(0, 1)] = sys.integer_omegas[(2, 3)]
        with pytest.raises(TypeError):
            del sys.integer_omegas[(0, 1)]
        for twin in (copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
            assert list(twin.integer_omegas) == list(sys.integer_omegas)
            for p, (num, den) in sys.integer_omegas.items():
                assert twin.integer_omegas[p][1] == den
                assert twin.integer_omegas[p][0].tolist() == num.tolist()
            with pytest.raises(TypeError):
                twin.integer_omegas[(0, 1)] = sys.integer_omegas[(2, 3)]
            assert twin._spectra == {} and flatness_residual(twin) == 0
        swapped = dict(sys.integer_omegas)
        swapped[(0, 1)] = sys.integer_omegas[(0, 2)]
        bad = dataclasses.replace(sys, integer_omegas=swapped)
        assert bad._spectra is None and bad.integer_omegas is swapped
        assert flatness_residual(bad) == list_reference_residual(bad)


def reference_diagonal_check(segments):
    """The diagonal check on every pair of every segment: the message of
    the first failure, or None."""
    for seg in segments:
        d, (a, b) = min((seg.pair_distance(a, b), (a, b))
                        for a, b in itertools.combinations(range(len(seg.startpoint)), 2))
        if d <= 1e-12:
            return f"path touches the diagonal z_{a+1} = z_{b+1}"
    return None


def random_grid_path(rng, n):
    """Chained lines and quarter or half arcs of radius 1 on a small grid
    of Gaussian integers, so that points often meet exactly."""
    z = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
    segments = []
    for _ in range(rng.randint(1, 6)):
        k = rng.randrange(n)
        if rng.random() < 0.5:
            new = list(z)
            for m in {k, rng.randrange(n)} if rng.random() < 0.3 else {k}:
                new[m] = complex(rng.randint(-2, 2), rng.randint(-2, 2))
            segments.append(LineSegment(tuple(z), tuple(new)))
        else:
            center = z[k] - rng.choice([1, 1j, -1, -1j])
            arc = ArcSegment(fixed=tuple(z), moving=k, center=center, radius=1.0,
                             angle0=cmath.phase(z[k] - center),
                             sweep=rng.choice([-2, -1, 1, 2]) * math.pi / 2)
            segments.append(arc)
            new = list(arc.endpoint)
        z = new
    return segments


class TestPaths:
    def test_verdicts_match_every_pair_check(self):
        # a pair of points that no arc moves and that are bit-identical at
        # every segment end is checked on the first segment alone; the
        # verdict and the pair named stay those of checking every pair
        rng = random.Random(5)
        seen = collections.Counter()
        for _ in range(400):
            segments = random_grid_path(rng, rng.randint(2, 5))
            want = reference_diagonal_check(segments)
            try:
                ConfigPath(segments)
                got = None
            except SingularityError as exc:
                got = str(exc)
            assert got == want, segments
            late = want and reference_diagonal_check(segments[:1]) is None
            seen["late" if late else "first" if want else "accepted"] += 1
        assert min(seen.values()) >= 40, seen

    def test_full_turn_moves_its_point(self):
        # z_1 ends the full turn bit-identical to where it began, yet passes
        # through z_2 on the way: an arc's moving point is never still
        arc = ArcSegment(fixed=(4 + 1j, 5 + 0j, -3 + 2j), moving=0, center=4 + 0j,
                         radius=1.0, angle0=math.pi / 2, sweep=2 * math.pi)
        assert arc.startpoint == arc.endpoint
        line = LineSegment((4 + 1j, 5 + 0j, -3 + 0j), arc.startpoint)
        with pytest.raises(SingularityError, match=re.escape("z_1 = z_2")):
            ConfigPath([line, arc])

    def test_still_pairs_are_checked_once(self, monkeypatch):
        # on A16 among six points only z_6 moves: its 5 pairs are checked on
        # every segment and the other 10 on the first alone
        path = braid_generator_path(default_basepoint(6), 0, 5)
        calls = []
        for cls in (LineSegment, ArcSegment):
            real = cls.pair_distance
            monkeypatch.setattr(cls, "pair_distance",
                                lambda seg, a, b, real=real: calls.append((a, b)) or real(seg, a, b))
        ConfigPath(path.segments)
        k = len(path.segments)
        assert k > 2 and len(calls) == 15 + 5 * (k - 1)
        assert all(5 in p for p in calls[15:])

    def test_segments_must_chain(self):
        with pytest.raises(DomainError):
            ConfigPath(
                [
                    LineSegment((0j, 1 + 0j), (0j, 2 + 0j)),
                    LineSegment((0j, 3 + 0j), (0j, 4 + 0j)),
                ]
            )

    def test_diagonal_touch_rejected(self):
        segments = [
            LineSegment((0j, 1 + 0j), (0j, -1 + 0j)),
            # z_1 meets z_2 at t = 1/3, between evenly spaced samples
            LineSegment((0j, 1 + 0j), (3 + 0j, 1 + 0j)),
            # a full turn of radius 1 through the fixed point exp(2 pi i / 3)
            ArcSegment(
                fixed=(1 + 0j, cmath.exp(2j * math.pi / 3)),
                moving=0,
                center=0j,
                radius=1.0,
                angle0=0.0,
                sweep=2 * math.pi,
            ),
        ]
        for seg in segments:
            with pytest.raises(SingularityError):
                ConfigPath([seg])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
    def test_non_finite_coordinate_rejected(self, bad):
        # NaN distances compare false, so a NaN would pass the diagonal check
        with pytest.raises(DomainError, match="finite"):
            path_through([(0j, 1 + 0j), (0j, bad)])
        with pytest.raises(DomainError, match="finite"):
            ConfigPath([ArcSegment(fixed=(0j, 2 + 0j), moving=1, center=bad, radius=2.0,
                                   angle0=0.0, sweep=math.pi)])

    def test_reverse_roundtrip(self):
        seg = ArcSegment(
            fixed=(0j, 2 + 0j), moving=1, center=0j, radius=2.0, angle0=0.0, sweep=math.pi
        )
        path = ConfigPath([seg])
        rev = path.reversed()
        assert np.allclose(rev.start, path.end)
        assert np.allclose(rev.end, path.start)


class TestTransport:
    def test_constant_path_identity(self, sys11):
        path = ConfigPath([LineSegment((0j, 1 + 0j), (0j, 1 + 0j))])
        hol = parallel_transport(sys11, path, 1e-8)
        assert np.array_equal(hol.matrix, np.eye(1, dtype=complex))

    def test_one_point_identity(self, a1):
        # a single point has no pairs, so no diagonal and no connection
        sys = kz_system(a1, [(0,)], 3)
        path = path_through([(0j,), (1 + 1j,), (2 + 0j,)])
        hol = parallel_transport(sys, path, 1e-8)
        assert np.array_equal(hol.matrix, np.eye(1, dtype=complex))

    def test_full_loop_closed_form(self, sys11):
        # one counterclockwise turn: exp(2 pi i (-3/2) / 3) = -1
        hol = braid_monodromy(sys11, 0, 1, 1e-8)
        assert abs(hol.matrix[0, 0] + 1.0) < 1e-6
        assert hol.estimated_error < 1e-7

    def test_reverse_gives_inverse(self, a1):
        sys = kz_system(a1, [(1,), (1,), (2,)], 3.5)
        path = braid_generator_path(default_basepoint(3), 0, 1)
        tol = 1e-8
        fwd = parallel_transport(sys, path, tol)
        bwd = parallel_transport(sys, path.reversed(), tol)
        assert np.max(np.abs(bwd.matrix @ fwd.matrix - np.eye(sys.dim))) < 2e-6

    def test_contractible_loop_is_identity(self, a1):
        sys = kz_system(a1, [(1,)] * 4, 3)
        base = list(default_basepoint(4))
        corners = [0.0, 0.4, 0.4 + 0.3j, 0.3j, 0.0]
        pts = []
        for dz in corners:
            q = list(base)
            q[3] = base[3] + dz
            pts.append(tuple(q))
        hol = parallel_transport(sys, path_through(pts), 1e-8)
        assert np.max(np.abs(hol.matrix - np.eye(sys.dim))) < 1e-7

    def test_reparameterization_invariance(self, sys11):
        base = default_basepoint(2)
        one = ConfigPath(
            [
                ArcSegment(
                    fixed=base, moving=1, center=base[0],
                    radius=1.0, angle0=0.0, sweep=2 * math.pi,
                )
            ]
        )
        two = ConfigPath(
            [
                ArcSegment(
                    fixed=base, moving=1, center=base[0],
                    radius=1.0, angle0=0.0, sweep=math.pi,
                ),
                ArcSegment(
                    fixed=base, moving=1, center=base[0],
                    radius=1.0, angle0=math.pi, sweep=math.pi,
                ),
            ]
        )
        h1 = parallel_transport(sys11, one, 1e-9)
        h2 = parallel_transport(sys11, two, 1e-9)
        assert np.max(np.abs(h1.matrix - h2.matrix)) < 1e-7

    def test_scaling_invariance(self, a1):
        sys = kz_system(a1, [(1,), (1,), (2,)], 3)
        base = default_basepoint(3)
        c, b = 1.7 - 0.2j, 0.5 + 0.1j

        def scaled(path):
            segs = []
            for seg in path.segments:
                segs.append(
                    ArcSegment(
                        fixed=tuple(c * z + b for z in seg.fixed),
                        moving=seg.moving,
                        center=c * seg.center + b,
                        radius=abs(c) * seg.radius,
                        angle0=seg.angle0 + cmath.phase(c),
                        sweep=seg.sweep,
                    )
                    if isinstance(seg, ArcSegment)
                    else LineSegment(
                        tuple(c * z + b for z in seg.start),
                        tuple(c * z + b for z in seg.end),
                    )
                )
            return ConfigPath(segs)

        loop = braid_generator_path(base, 0, 1)
        h1 = parallel_transport(sys, loop, 1e-9)
        h2 = parallel_transport(sys, scaled(loop), 1e-9)
        assert np.max(np.abs(h1.matrix - h2.matrix)) < 1e-6

    def test_monodromy_det_modulus_one(self, a1):
        # real kappa and real symmetric restricted operators force |det| = 1;
        # also pin det inside the trace-derived sanity interval
        sys = kz_system(a1, [(1,), (1,), (2,)], 3.5)
        hol = braid_monodromy(sys, 0, 2, 1e-8)
        det = np.linalg.det(hol.matrix)
        assert abs(abs(det) - 1.0) < 1e-6
        bound = sum(
            abs(sum(Fraction(m[r][r]) for r in range(sys.dim)))
            for m in sys.omegas.values()
        ) / abs(sys.kappa)
        assert math.exp(-2 * math.pi * bound) <= abs(det) <= math.exp(
            2 * math.pi * bound
        )

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize(
        "eps", [1e-8, 1e-6, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 2e-2, 5e-2]
    )
    def test_near_diagonal_line_matches_closed_form(self, sys11, eps, tol):
        # z_1 passes eps above z_2 = 0. With d = 1 and W = -3/2 the holonomy
        # is exp(W/kappa (log w1 - log w0)); the principal log is continuous
        # on the upper half plane the line stays in. A step must not jump
        # the near-collision, and a regular path must not be refused.
        w0, w1 = -1 + 1j * eps, 1 + 1j * eps
        path = path_through([(w0, 0j), (w1, 0j)])
        exact = cmath.exp(-1.5 / 3 * (cmath.log(w1) - cmath.log(w0)))
        hol = parallel_transport(sys11, path, tol)
        assert abs(hol.matrix[0, 0] - exact) < tol

    @pytest.mark.parametrize("depth, inside", [(0.97, True), (0.9, False)])
    def test_arc_chords_keep_the_homotopy_class(self, sys11, depth, inside):
        # z_1 sweeps a quarter of the unit circle about 0 past z_0 = p, which
        # lies inside the circle at angle pi/8. At depth 0.97 p sits in the
        # sliver between the arc and its single chord, so the chord winds
        # the other way round p and the transport must refuse; at depth 0.9
        # the chord keeps the class and gives the arc's holonomy
        p = depth * cmath.exp(1j * math.pi / 8)
        arc = ArcSegment(
            fixed=(p, 0j), moving=1, center=0j, radius=1.0, angle0=0.0, sweep=math.pi / 4
        )
        path = ConfigPath([arc])
        if inside:
            with pytest.raises(SingularityError):
                parallel_transport(sys11, path, 1e-10)
            return
        ws = [arc.at(k / 1000)[1] - p for k in range(1001)]
        log_change = cmath.log(abs(ws[-1] / ws[0])) + 1j * sum(
            cmath.phase(b / a) for a, b in zip(ws, ws[1:])
        )
        hol = parallel_transport(sys11, path, 1e-10)
        assert abs(hol.matrix[0, 0] - cmath.exp(-1.5 / 3 * log_change)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_generator_arcs_keep_their_chords(self, n):
        from kzmono.kz import _chords

        bases = [default_basepoint(n), tuple(complex(k, 0.03 * k * k) for k in range(n))]
        for base in bases:
            for i, j in itertools.permutations(range(n), 2):
                for seg in braid_generator_path(base, i, j).segments:
                    _chords(seg)

    def test_failure_names_its_segment(self, a1):
        # at kappa = 1e-3 the residues overflow the majorant on the first
        # step, and the error names the line of the path it failed on
        sys = kz_system(a1, [(1,)] * 4, 1e-3)
        start = default_basepoint(4)
        with pytest.raises(SingularityError, match=r"the series majorant overflowed at "
                           r"t=0 \(segment starting at " + re.escape(str(start)) + r"\)"):
            braid_monodromy(sys, 0, 3, 1e-8)

    def test_bad_tolerance(self, sys11):
        path = ConfigPath([LineSegment((0j, 1 + 0j), (0j, 1 + 0j))])
        with pytest.raises(DomainError):
            parallel_transport(sys11, path, 0.5)

    @pytest.mark.parametrize("points", [[(1, 2, 3), (1, 2, 3.5)],
                                        [(1, 2, 3, 4, 5), (1, 2, 3, 4.5, 5)]],
                             ids=["short", "long"])
    def test_points_need_n_coordinates(self, a1, points):
        # a short point read past its end (IndexError), a long one was
        # transported on its first n coordinates
        sys = kz_system(a1, [(1,)] * 4, 3)
        path = ConfigPath([LineSegment(*points)])
        with pytest.raises(DomainError, match="expected 4 coordinates"):
            parallel_transport(sys, path, 1e-8)


class TestBraidMonodromy:
    def test_large_kappa_contracts_to_identity(self, a1):
        norms = []
        for kappa in (100.0, 1000.0):
            sys = kz_system(a1, [(1,)] * 4, kappa)
            hol = braid_monodromy(sys, 0, 1, 1e-9)
            norms.append(np.max(np.abs(hol.matrix - np.eye(sys.dim))))
        assert norms[0] < 50.0 / 100.0
        assert norms[1] < 50.0 / 1000.0
        assert norms[1] < norms[0] / 5

    def test_singular_leg_frame_raises(self, a1, monkeypatch):
        # the legs are transported first; a frame with no inverse is a
        # SingularityError, not numpy's LinAlgError
        real, calls = kz.parallel_transport, []

        def zero_legs(sys, path, tol):
            res = real(sys, path, tol)
            calls.append(path)
            return dataclasses.replace(res, matrix=0 * res.matrix) if len(calls) == 1 else res

        monkeypatch.setattr(kz, "parallel_transport", zero_legs)
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(SingularityError, match="legs is singular"):
            braid_monodromy(sys, 0, 1, 1e-8)
        assert len(calls) == 2

    def test_path_is_checked_once(self, a1, monkeypatch):
        # the legs and the circle are pieces of the checked generator path
        real, checks = ConfigPath.__post_init__, []

        def counted(path):
            checks.append(len(path.segments))
            real(path)

        monkeypatch.setattr(ConfigPath, "__post_init__", counted)
        segments = len(braid_generator_path(default_basepoint(4), 0, 3).segments)
        sys = kz_system(a1, [(1,)] * 4, 3)
        checks.clear()
        hol = braid_monodromy(sys, 0, 3, 1e-8)
        assert checks == [segments] and segments > 1
        assert np.isfinite(hol.matrix).all()

    def test_non_integer_generator_index_is_a_domain_error(self, a1):
        # 0.5 passed 0 <= i < n and died as a bare TypeError at points[0.5]
        sys = kz_system(a1, [(1,)] * 4, 3)
        for i, j in [(0.5, 1), (0, 1.0), ("0", 1)]:
            with pytest.raises(DomainError, match="must be an integer"):
                braid_monodromy(sys, i, j, 1e-8)
            with pytest.raises(DomainError, match="must be an integer"):
                braid_generator_path(default_basepoint(4), i, j)
        # integer types other than int are indices
        got = braid_monodromy(sys, np.int64(0), np.int64(1), 1e-8).matrix
        assert np.array_equal(got, braid_monodromy(sys, 0, 1, 1e-8).matrix)

    def test_basepoint_on_own_diagonal_raises(self, a1):
        # z_i = z_j for the generator's own pair is the diagonal, as for
        # any other pair, not a division by zero
        sys = kz_system(a1, [(1,)] * 4, 3)
        for basepoint, pair in [((1, 1, 3, 4), (0, 1)), ((1, 2, 3, 3), (3, 2)),
                                ((1, 2, 2, 4), (0, 1))]:
            with pytest.raises(SingularityError, match="path touches the diagonal"):
                braid_monodromy(sys, *pair, 1e-8, basepoint=basepoint)

    def test_nan_basepoint_is_a_domain_error(self, a1):
        # rejected before transport, with no numpy warning on the way
        sys = kz_system(a1, [(1,)] * 4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in [(0, 1), (2, 3)]:
                with pytest.raises(DomainError, match="finite"):
                    braid_monodromy(sys, *pair, 1e-8, basepoint=(1, 2, 3, math.nan))

    @pytest.mark.parametrize("basepoint", [(1, 2, 3), (1, 2, 3, 4, 5)], ids=["short", "long"])
    def test_basepoint_needs_n_points(self, a1, basepoint):
        sys = kz_system(a1, [(1,)] * 4, 3)
        with pytest.raises(DomainError, match="expected 4 coordinates"):
            braid_monodromy(sys, 0, 1, 1e-8, basepoint=basepoint)
        with pytest.raises(DomainError, match="expected 4 coordinates"):
            eigenvalue_check(sys, 0, 1, 1e-6, basepoint=basepoint)

    def test_disjoint_generators_commute(self, a1):
        sys = kz_system(a1, [(1,)] * 4, 3)
        h12 = braid_monodromy(sys, 0, 1, 1e-9)
        h34 = braid_monodromy(sys, 2, 3, 1e-9)
        comm = h12.matrix @ h34.matrix - h34.matrix @ h12.matrix
        assert np.max(np.abs(comm)) < 1e-6

    def test_full_twist_is_central(self, a1):
        sys = kz_system(a1, [(1,), (1,), (2,)], 4)
        base = (-1.0 + 0j, 0j, 1.0 + 0j)
        tol = 1e-9
        gens = {
            (i, j): braid_monodromy(sys, i, j, tol, basepoint=base)
            for i, j in itertools.combinations(range(3), 2)
        }
        twist = compose(compose(gens[(0, 1)], gens[(0, 2)]), gens[(1, 2)])
        for g in gens.values():
            comm = twist.matrix @ g.matrix - g.matrix @ twist.matrix
            assert np.max(np.abs(comm)) < 1e-5


GLOBAL_SYSTEMS = [([(1,)] * 4, 3.5), ([(1,), (2,), (1,), (2,)], 4.25)]


@pytest.fixture(scope="module", params=GLOBAL_SYSTEMS, ids=["v1x4", "v1v2v1v2"])
def generators(request, a1):
    weights, kappa = request.param
    sys = kz_system(a1, weights, kappa)
    mats = {
        (i + 1, j + 1): braid_monodromy(sys, i, j, 1e-10).matrix
        for i, j in itertools.combinations(range(4), 2)
    }
    return sys, mats


class TestGlobalOracles:
    """Identities of the whole pure-braid representation, with the rightmost
    factor applied first."""

    @pytest.mark.parametrize("lam", [2, 0.5 + 0.5j, 3 - 1j])
    def test_dilation_line(self, a1, generators, lam):
        # z -> lam z moves every pair along w0 (1 + t (lam - 1)), so the
        # connection is (sum W_ij)/kappa/(t - t_p) = -sum c_i/(2 kappa) I/(t - t_p)
        sys, _ = generators
        z = default_basepoint(4)
        hol = parallel_transport(sys, path_through([z, tuple(lam * x for x in z)]), 1e-10)
        total = float(sum(casimir_value(a1, w) for w in sys.weights))
        expected = lam ** (-total / (2 * sys.kappa)) * np.eye(sys.dim)
        assert np.max(np.abs(hol.matrix - expected)) < 1e-9

    def test_pure_braid_relations(self, generators):
        _, a = generators

        def off(x, y):
            return np.max(np.abs(x - y))

        assert off(a[1, 2] @ a[3, 4], a[3, 4] @ a[1, 2]) < 1e-9
        assert off(a[1, 4] @ a[2, 3], a[2, 3] @ a[1, 4]) < 1e-9
        assert off(a[1, 2] @ a[1, 3] @ a[2, 3], a[2, 3] @ a[1, 2] @ a[1, 3]) < 1e-9
        # negative controls: the reversed cyclic order, and an interleaved
        # pair, are not relations of the pure braid group
        assert off(a[2, 3] @ a[1, 3] @ a[1, 2], a[1, 2] @ a[2, 3] @ a[1, 3]) > 0.1
        assert off(a[1, 3] @ a[2, 4], a[2, 4] @ a[1, 3]) > 0.1

    @pytest.mark.parametrize("weights,kappa", GLOBAL_SYSTEMS, ids=["v1x4", "v1v2v1v2"])
    def test_error_estimate_covers_eigenvalue_deviation(self, a1, weights, kappa):
        # the generator's error bound, with rounding and the amplification by
        # T(gamma)^-1, must not under-report the exact-spectrum deviation
        sys = kz_system(a1, weights, kappa)
        for i, j in itertools.combinations(range(4), 2):
            rep = eigenvalue_check(sys, i, j, 1e-6, transport_tol=1e-10)
            assert rep["transport_error"] >= rep["max_deviation"], (i, j)


class TestFarGenerators:
    def test_generator_rejects_equal_indices(self):
        with pytest.raises(DomainError):
            braid_generator_path((0j, 1 + 0j), 1, 1)

    def test_multi_detour_path_stays_regular(self, a1):
        # A_{15} on five collinear points must dodge three interior points
        sys = kz_system(a1, [(1,), (1,), (1,), (1,), (2,)], 4)
        assert sys.dim == 3
        path = braid_generator_path(default_basepoint(5), 0, 4)
        fwd = parallel_transport(sys, path, 1e-8)
        bwd = parallel_transport(sys, path.reversed(), 1e-8)
        assert np.max(np.abs(bwd.matrix @ fwd.matrix - np.eye(3))) < 1e-5

    def test_far_pair_local_spectrum(self, a1):
        sys = kz_system(a1, [(1,), (1,), (1,), (1,), (2,)], 4)
        rep = eigenvalue_check(sys, 0, 4, 1e-5, transport_tol=1e-8)
        assert rep["passed"]

    def test_zero_dimensional_transport(self, a1):
        for n in (3, 5):
            sys = kz_system(a1, [(1,)] * n, 3)
            assert sys.dim == 0
            hol = braid_monodromy(sys, 0, 1, 1e-8)
            assert hol.matrix.shape == (0, 0)
            assert hol.estimated_error == 0.0 and hol.steps_taken == 0


class TestEigenvalueCheck:
    def test_two_point_phases(self, a1):
        sys = kz_system(a1, [(1,), (1,)], 4)
        rep = eigenvalue_check(sys, 0, 1, 1e-6)
        assert rep["passed"]
        # the single invariant eigenvalue is -3/2
        expect = cmath.exp(2j * math.pi * (-1.5) / 4)
        assert abs(rep["pairs"][0][0] - expect) < 1e-12

    def test_trivial_weights_unit_phases(self, a1):
        sys = kz_system(a1, [(0,), (0,)], 4)
        rep = eigenvalue_check(sys, 0, 1, 1e-6)
        assert rep["max_deviation"] == 0.0 or rep["passed"]

    def test_three_point_all_pairs(self, a1):
        sys = kz_system(a1, [(1,), (1,), (2,)], 4)
        for i, j in itertools.combinations(range(3), 2):
            rep = eigenvalue_check(sys, i, j, 1e-6, transport_tol=1e-8)
            assert rep["passed"], (i, j, rep["max_deviation"])

    def test_exact_spectrum_matches_casimir_split(self, a1):
        from kzmono.kz import exact_local_spectrum

        sys = kz_system(a1, [(1,), (1,), (1,), (1,)], 3)
        spec = dict(exact_local_spectrum(sys, 0, 1))
        c1 = casimir_value(a1, (1,))
        mu0 = (casimir_value(a1, (0,)) - 2 * c1) / 2
        mu2 = (casimir_value(a1, (2,)) - 2 * c1) / 2
        assert spec == {mu0: 1, mu2: 1}

    def test_spectrum_outside_candidates_raises(self, a1):
        # the candidates are cached per weight pair, but the rank
        # certificate runs on every call: W_12 + diag(1/7, 0) keeps only the
        # eigenvalue 1/2 among them
        from kzmono.errors import ConsistencyError
        from kzmono.kz import exact_local_spectrum

        sys = kz_system(a1, [(1,), (1,), (1,), (1,)], 3)
        exact_local_spectrum(sys, 0, 1)
        omegas = copied_omegas(sys)
        omegas[(0, 1)][0][0] += Fraction(1, 7)
        sys = with_omegas(sys, omegas)
        for _ in range(2):
            with pytest.raises(ConsistencyError):
                exact_local_spectrum(sys, 0, 1)


def list_reference_residual(sys):
    """max |entry| over every flatness relation, from the ``Fraction`` rows."""
    def om(a, b):
        return sys.omegas[(min(a, b), max(a, b))]

    rels = [
        (om(a, b), rat_add(om(a, c), om(b, c)))
        for i, j, k in itertools.combinations(range(sys.n), 3)
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i))
    ]
    rels += [
        (sys.omegas[p], sys.omegas[q])
        for p, q in itertools.combinations(sys.omegas, 2)
        if not set(p) & set(q)
    ]
    return max((abs(v) for x, y in rels for row in rat_sub(rat_mul(x, y), rat_mul(y, x))
                for v in row), default=Fraction(0))


def relation_orbits(weights):
    """The orbits of flatness relations under the weight-preserving
    permutations, counted by brute force over all relations."""
    n = len(weights)

    def pair(a, b):
        return tuple(sorted((weights[a], weights[b])))

    keys = {
        ("triple", pair(a, b), weights[c])
        for a, b, c in itertools.permutations(range(n), 3)
    }
    keys |= {
        ("disjoint", tuple(sorted((pair(*p), pair(*q)))))
        for p, q in itertools.combinations(itertools.combinations(range(n), 2), 2)
        if not set(p) & set(q)
    }
    return len(keys)


ORBIT_SYSTEMS = [
    (1, [(1,)] * 8),
    (1, [(1,)] * 10),
    (1, [(2,)] * 6),
    (1, [(2,)] * 7),
    (2, random.Random(3).sample([(1, 0)] * 3 + [(0, 1)] * 3, 6)),
    (2, [(1, 1)] * 4),
    (2, [(1, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 1)]),
]


class TestOrbitRecord:
    """kz_system restricts the first pair of each orbit of the
    weight-preserving permutations and conjugates the rest by certified
    swaps; spectra and flatness use the recorded labels."""

    @pytest.mark.parametrize("rank,weights", ORBIT_SYSTEMS,
                             ids=["v1x8", "v1x10", "v2x6", "v2x7", "a2_3x3", "adj4", "a2_mixed"])
    def test_held_pairs_match_restrict_on_every_pair(self, rank, weights, monkeypatch):
        restricted = []
        real = kz.restrict
        monkeypatch.setattr(kz, "restrict",
                            lambda op, inv: restricted.append((op.i, op.j)) or real(op, inv))
        sys = kz_system(build_algebra("A", rank), weights, 3)
        assert sys.dim > 0
        firsts = {}
        for i, j in itertools.combinations(range(len(weights)), 2):
            firsts.setdefault(tuple(sorted((weights[i], weights[j]))), (i, j))
        assert restricted == list(firsts.values())
        inv = sys.invariant_space
        for (i, j), (num, den) in sys.integer_omegas.items():
            ref_num, ref_den = restrict(omega_pair(inv.ambient, i, j), inv)
            assert den == ref_den and num.dtype == ref_num.dtype, (i, j)
            assert np.array_equal(num, ref_num), (i, j)

    def test_perturbed_copy_takes_the_full_path(self, a1):
        # W_35 is conjugated from an earlier pair, not restricted; a copy
        # with it moved has no record, so flatness checks every relation and
        # the spectrum of that pair is certified anew, though the recorded
        # system already holds the spectrum of its orbit
        sys = kz_system(a1, [(1,)] * 6, 3)
        assert exact_local_spectrum(sys, 0, 1) == exact_local_spectrum(sys, 2, 4)
        omegas = copied_omegas(sys)
        omegas[(2, 4)][0][0] += Fraction(1, 7)
        bad = with_omegas(sys, omegas)
        assert flatness_residual(bad) == list_reference_residual(bad) > 0
        with pytest.raises(ConsistencyError):
            exact_local_spectrum(bad, 2, 4)
        assert flatness_residual(sys) == 0

    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,), (2,), (1,), (2,)]),
        (1, [(1,)] * 8),
        (2, [(1, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 1)]),
    ])
    def test_spectrum_ranks_once_per_orbit_candidate(self, rank, weights, monkeypatch):
        sys = kz_system(build_algebra("A", rank), weights, 3)
        orbits = {tuple(sorted((weights[i], weights[j]))) for i, j in sys.integer_omegas}
        expected = sum(len(kz._spectrum_candidates(sys.algebra, *o)) for o in orbits)
        calls = []
        real = kz.exact_rank
        monkeypatch.setattr(kz, "exact_rank", lambda rows, n: calls.append(n) or real(rows, n))
        got = [exact_local_spectrum(sys, i, j) for _ in range(2) for i, j in sys.integer_omegas]
        assert len(calls) == expected
        # an unrecorded copy certifies every pair, with the same spectra
        copy = dataclasses.replace(sys)
        full = [exact_local_spectrum(copy, i, j) for i, j in sys.integer_omegas]
        assert got == full * 2
        assert len(calls) > 2 * expected

    @pytest.mark.parametrize("rank,weights", [
        (1, [(1,)] * 8),
        (1, [(1,), (2,), (1,), (2,), (1,), (1,)]),
        (2, [(1, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 1)]),
    ])
    def test_flat_system_commutes_representatives_only(self, rank, weights, monkeypatch):
        sys = kz_system(build_algebra("A", rank), weights, 3)
        assert sys.dim > 0
        calls = []

        def spy(a, b):
            calls.append(len(a))
            return rat_commutator(a, b)

        monkeypatch.setattr(kz, "rat_commutator", spy)
        assert flatness_residual(sys) == 0
        assert calls == [relation_orbits(weights)]
        n = len(weights)
        full = 3 * math.comb(n, 3) + math.comb(n, 2) * math.comb(n - 2, 2) // 2
        assert flatness_residual(dataclasses.replace(sys)) == 0
        assert calls[1:] == [full]



def word_traces(mats, words, d):
    """Exact traces of the products of held (N, D) pairs along each word,
    on int64 under a bound checked first."""
    out = []
    for word in words:
        assert d ** len(word) * math.prod(max_abs(mats[p][0]) for p in word) < 2 ** 62
        num, den = np.identity(d, dtype=np.int64), 1
        for p in word:
            num = num @ mats[p][0].astype(np.int64)
            den *= mats[p][1]
        out.append(Fraction(int(num.trace()), den))
    return out


class TestTemperleyLiebOracle:
    """The held W_ij of A1 V1^n against P_ij - 1/2 on the noncrossing
    pairings: traces of words in the W_ij do not depend on the basis, so
    they must agree exactly, with no change of basis and no float."""

    @staticmethod
    def words(n):
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        return [rng.choices(pairs, k=rng.randint(1, 4)) for _ in range(12)]

    @staticmethod
    def pairing_omegas(n, delta=-2, shift=Fraction(-1, 2)):
        # 2 P + 2 shift over 2: W = P + shift, integers over 2
        swaps = temperley_lieb_swaps(n, delta)
        eye = np.identity(len(swaps[0, 1]), dtype=int)
        return {p: (2 * m + int(2 * shift) * eye, 2) for p, m in swaps.items()}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_word_traces_match(self, a1, n):
        sys = kz_system(a1, [(1,)] * n, 3)
        words = self.words(n)
        tl = self.pairing_omegas(n)
        assert len(tl[0, 1][0]) == sys.dim
        assert word_traces(sys.integer_omegas, words, sys.dim) == word_traces(tl, words, sys.dim)

    @pytest.mark.parametrize("delta,shift", [(2, Fraction(-1, 2)), (-2, Fraction(1, 2))])
    def test_negative_controls_differ(self, a1, delta, shift):
        n = 6
        sys = kz_system(a1, [(1,)] * n, 3)
        words = self.words(n)
        wrong = self.pairing_omegas(n, delta, shift)
        held = word_traces(sys.integer_omegas, words, sys.dim)
        assert held != word_traces(wrong, words, sys.dim)
