import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kzmono.errors import DomainError, SingularityError
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
from kzmono.liealg import build_algebra
from kzmono.numerics import rat_add, rat_mul, rat_sub
from kzmono.reps import casimir_value, irrep


@pytest.fixture(scope="module")
def a1():
    return build_algebra("A", 1)


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

    def test_float_mode_small(self, a1):
        sys = kz_system(a1, [(1,)] * 4, 3)
        assert flatness_residual(sys, exact=False) < 1e-12

    @pytest.mark.parametrize("scale", [1, 2**40])
    def test_perturbed_omega_matches_list_reference(self, a1, scale):
        # a W_ij moved by 1/2 breaks flatness by an exact amount; scaled by
        # 2^40 the products pass 2^63, and the value must stay exact
        sys = kz_system(a1, [(1,)] * 4, 3)
        for m in sys.omegas.values():
            for row in m:
                row[:] = [scale * x for x in row]
        sys.omegas[(0, 1)][0][1] += Fraction(scale, 2)

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


class TestPaths:
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

    def test_bad_tolerance(self, sys11):
        path = ConfigPath([LineSegment((0j, 1 + 0j), (0j, 1 + 0j))])
        with pytest.raises(DomainError):
            parallel_transport(sys11, path, 0.5)


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

    def test_full_twist_certificate(self, a1):
        # sum_{i<j} W_ij = -1/2 sum c_i on invariants, so one turn of every
        # point about a centre has holonomy exp(-pi i sum c_i / kappa) I; it
        # is M12.M13.M23.M14.M24.M34 with the rightmost factor applied first
        kappa = 3.5
        sys = kz_system(a1, [(1,)] * 4, kappa)
        assert sys.dim == 2
        order = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        gens = [braid_monodromy(sys, i, j, 1e-9).matrix for i, j in order]
        total_c = 4 * casimir_value(a1, (1,))
        expected = cmath.exp(-1j * math.pi * total_c / kappa) * np.eye(2)
        assert np.max(np.abs(np.linalg.multi_dot(gens) - expected)) < 1e-6
        assert np.max(np.abs(np.linalg.multi_dot(gens[::-1]) - expected)) > 0.1


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
