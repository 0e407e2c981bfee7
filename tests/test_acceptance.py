"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kzmono
from kzmono.invariants import invariant_basis, tensor_system
from kzmono.kz import (
    braid_monodromy,
    default_basepoint,
    eigenvalue_check,
    flatness_residual,
    kz_system,
    parallel_transport,
    path_through,
)
from kzmono.liealg import build_algebra, orthonormal_basis
from kzmono.reps import casimir, casimir_value, irrep
from kzmono.sugawara import (
    affine_bracket_check,
    lx_commutator_check,
    truncated_module,
    virasoro_bracket_check,
)
from kzmono.symbols import (
    cocycle_evaluation,
    random_laurent_vector,
    residue_side,
    symbol_pairing,
)
from kzmono.verlinde import (
    compare_invariants,
    fusion_ring,
    rank,
    rank_smatrix,
)

from oracles import CATALAN, brute_invariant_dim_a1

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
# a child `python -m kzmono` imports kzmono from where this process did
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(kzmono.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
))


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_flatness_exact():
    t0 = time.time()
    ok = True
    a1_families = [
        [(1,), (1,), (2,)],
        [(1,)] * 4,
        [(2,), (1,), (1,), (2,)],
        [(1,), (1,), (1,), (1,), (2,)],
        [(2,)] * 5,
        [(4,)] * 4,
        [(3,), (3,), (1,), (1,)],
    ]
    for ws in a1_families:
        ambient = 1
        for w in ws:
            ambient *= w[0] + 1
        assert len(ws) <= 5 and ambient <= 4096
        if flatness_residual(kz_system(A1, ws, 3)) != 0:
            ok = False
    if flatness_residual(kz_system(A2, [(1, 0), (0, 1), (1, 1)], 4)) != 0:
        ok = False
    report(1, "exact flatness commutators", ok, time.time() - t0, 60)


def test_criterion_2_contractible_loop():
    t0 = time.time()
    sys_ = kz_system(A1, [(1,)] * 4, 3)
    base = list(default_basepoint(4))
    corners = [0.0, 0.4, 0.4 + 0.3j, 0.3j, 0.0]
    pts = []
    for dz in corners:
        q = list(base)
        q[3] = base[3] + dz
        pts.append(tuple(q))
    path = path_through(pts)
    assert len(path.segments) == 4
    hol = parallel_transport(sys_, path, 1e-8)
    dev = float(np.max(np.abs(hol.matrix - np.eye(sys_.dim))))
    report(2, f"contractible loop (dev {dev:.2e})", dev < 1e-7, time.time() - t0, 10)


def test_criterion_3_local_monodromy_spectra():
    t0 = time.time()
    ok = True
    worst = 0.0
    kappas = (3, 4, 3.5)
    for kappa in kappas:
        for ws in ([(1,), (1,)], [(1,), (2,)], [(2,), (2,)]):
            sys_ = kz_system(A1, ws, kappa)
            if sys_.dim == 0:
                continue
            rep = eigenvalue_check(sys_, 0, 1, 1e-6, transport_tol=1e-8)
            worst = max(worst, rep["max_deviation"])
            ok = ok and rep["passed"]
        sys3 = kz_system(A1, [(1,), (1,), (2,)], kappa)
        for i, j in itertools.combinations(range(3), 2):
            rep = eigenvalue_check(sys3, i, j, 1e-6, transport_tol=1e-8)
            worst = max(worst, rep["max_deviation"])
            ok = ok and rep["passed"]
    report(
        3, f"local monodromy phases (worst {worst:.2e})", ok, time.time() - t0, 30
    )


def test_criterion_4_sugawara_identities():
    t0 = time.time()
    ok = True
    for level in (1, 2):
        for m in range(level + 1):
            mod = truncated_module(level, m, 4)
            for x in ("e", "f", "h"):
                for y in ("e", "f", "h"):
                    for p in range(-2, 3):
                        for q in range(-2, 3):
                            if affine_bracket_check(mod, x, p, y, q) != 0:
                                ok = False
            for p in range(-2, 3):
                for q in range(-2, 3):
                    if abs(p + q) <= 4 and virasoro_bracket_check(mod, p, q) != 0:
                        ok = False
            for n in range(-2, 3):
                for gen in ("e", "f", "h"):
                    for k in range(-2, 3):
                        if lx_commutator_check(mod, n, gen, k) != 0:
                            ok = False
    report(4, "affine/quadratic operator identities", ok, time.time() - t0, 120)


def test_criterion_5_symbol_identity():
    t0 = time.time()
    rng = random.Random(2024)
    basis = orthonormal_basis(A1, "symbolic", 0)
    ok = True
    count = 0
    while count < 100:
        phi = random_laurent_vector(A1, rng, kmin=-4, kmax=4)
        count += 1
        for level in (1, 2, 3):
            for m in range(-3, 4):
                sp = symbol_pairing(phi, m, level)
                if residue_side(phi, m, level, basis) != sp:
                    ok = False
                if cocycle_evaluation(phi, m) != 2 * (level + 2) * sp:
                    ok = False
    report(5, "residue pairing identities (100 vectors)", ok, time.time() - t0, 5)


def test_criterion_6_verlinde_ranks():
    t0 = time.time()
    ok = True
    labels = range(0, 5)
    tuples = []
    for n in range(0, 7):
        tuples.extend(itertools.combinations_with_replacement(labels, n))
    for level in range(1, 9):
        ring = fusion_ring(level)
        for ws in tuples:
            if any(w > level for w in ws):
                continue
            r = rank(ring, list(ws))
            s = rank_smatrix(level, list(ws))
            if abs(s - r) >= 1e-9:
                ok = False
    for ws in tuples:
        if not ws:
            continue
        level = max(max(ws), 1)
        rep = compare_invariants(level, list(ws))
        if rep["rank"] > rep["dim_invariants"] or rep["stabilization_level"] is None:
            ok = False
    report(6, "fusion ranks vs S-matrix and invariants", ok, time.time() - t0, 30)


def test_criterion_7_representation_layer():
    t0 = time.time()
    ok = True
    for m in range(0, 9):
        rep = casimir(irrep(A1, (m,)))
        if not (rep.is_scalar and rep.deviation == 0):
            ok = False
        if rep.eigenvalue != casimir_value(A1, (m,)):
            ok = False
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 0), (2, 1)]:
        rep_obj = irrep(A2, lam)
        if rep_obj.dim > 15:
            continue
        rep = casimir(rep_obj)
        if not (rep.is_scalar and rep.deviation == 0):
            ok = False
        if rep.eigenvalue != casimir_value(A2, lam):
            ok = False
    v1 = irrep(A1, (1,))
    for m in range(1, 6):
        ms = [1] * (2 * m)
        exact = invariant_basis(tensor_system([v1] * (2 * m))).dim
        if exact != CATALAN[m] or exact != brute_invariant_dim_a1(ms):
            ok = False
    report(7, "casimir scalars and catalan dimensions", ok, time.time() - t0, 60)


def test_criterion_8_determinism():
    t0 = time.time()
    cmd = [sys.executable, "-m", "kzmono", "selftest", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, timeout=580, env=CHILD_ENV)
    second = subprocess.run(cmd, capture_output=True, timeout=580, env=CHILD_ENV)
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["failed"] == 0
    )
    report(8, "selftest byte-identical reports", ok, time.time() - t0, 600)


# (weights, kappa) of the A1 systems whose whole pure-braid representation
# the global transport oracles check
GLOBAL_SYSTEMS = [([(1,)] * 4, 3.5), ([(1,), (2,), (1,), (2,)], 4.25)]


def test_criterion_9_dilation_line():
    # z -> lam z moves every pair along w0 (1 + t (lam - 1)): all poles
    # coincide and the total residue is the scalar -sum_i c_i/(2 kappa), so
    # the holonomy is lam^(-sum_i c_i/(2 kappa)) I
    t0 = time.time()
    worst = 0.0
    for weights, kappa in GLOBAL_SYSTEMS:
        sys_ = kz_system(A1, weights, kappa)
        z = default_basepoint(4)
        total = float(sum(casimir_value(A1, w) for w in weights))
        for lam in (2, 0.5 + 0.5j, 3 - 1j):
            path = path_through([z, tuple(lam * x for x in z)])
            hol = parallel_transport(sys_, path, 1e-10)
            expected = lam ** (-total / (2 * kappa)) * np.eye(sys_.dim)
            worst = max(worst, float(np.max(np.abs(hol.matrix - expected))))
    report(9, f"dilation line holonomy (worst {worst:.2e})", worst < 1e-9,
           time.time() - t0, 10)


def test_criterion_10_pure_braid_relations():
    # Artin's relations of the pure braid group on the generators A_ij, the
    # rightmost factor applied first; the reversed cyclic order and an
    # interleaved pair are not relations, and must fail
    t0 = time.time()
    ok = True
    worst = 0.0
    for weights, kappa in GLOBAL_SYSTEMS:
        sys_ = kz_system(A1, weights, kappa)
        a = {
            (i + 1, j + 1): braid_monodromy(sys_, i, j, 1e-10).matrix
            for i, j in itertools.combinations(range(4), 2)
        }

        def off(x, y):
            return float(np.max(np.abs(x - y)))

        relations = [
            off(a[1, 2] @ a[3, 4], a[3, 4] @ a[1, 2]),
            off(a[1, 4] @ a[2, 3], a[2, 3] @ a[1, 4]),
            off(a[1, 2] @ a[1, 3] @ a[2, 3], a[2, 3] @ a[1, 2] @ a[1, 3]),
        ]
        controls = [
            off(a[2, 3] @ a[1, 3] @ a[1, 2], a[1, 2] @ a[2, 3] @ a[1, 3]),
            off(a[1, 3] @ a[2, 4], a[2, 4] @ a[1, 3]),
        ]
        worst = max(worst, *relations)
        ok = ok and max(relations) < 1e-9 and min(controls) > 0.1
    report(10, f"pure braid relations (worst {worst:.2e})", ok, time.time() - t0, 30)
