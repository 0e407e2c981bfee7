from fractions import Fraction

import numpy as np
import pytest

from kzmono.errors import DomainError, integer
from kzmono.invariants import invariant_basis, omega_pair, swap_matrix, tensor_system
from kzmono.kz import braid_generator_path, default_basepoint, kz_system
from kzmono.liealg import build_algebra, level_weights, orthonormal_basis
from kzmono.reps import casimir_value, irrep, tensor_decompose, weyl_dimension
from kzmono.sugawara import (
    affine_bracket_check,
    central_charge,
    conformal_weight,
    ln_operator,
    lx_commutator_check,
    truncated_module,
    virasoro_bracket_check,
)
from kzmono.symbols import (
    FormalField,
    LaurentGVector,
    cocycle_cross,
    cocycle_evaluation,
    random_laurent_vector,
    residue_side,
    symbol_pairing,
)
from kzmono.verlinde import compare_invariants, fusion_ring, rank, rank_smatrix

A1 = build_algebra("A", 1)
V1 = irrep(A1, (1,))
SYSTEM = tensor_system([V1] * 4)
INV = invariant_basis(SYSTEM)
KZ = kz_system(A1, [(1,)] * 4, 3.5)
MOD = truncated_module(2, 1, 2)
PHI = LaurentGVector(A1, {-1: [1, 0, 2], 0: [0, 1, 1], 1: [2, 1, 0], 2: [1, 1, 1]})
BASIS = orthonormal_basis(A1)
RING = fusion_ring(2)


def _swap(x):
    num, den = swap_matrix(INV, x, 0)
    return num.tolist(), den


# (name, call, least, below): call(x) passes x as the one integer argument
# named, in a context where 1 is a valid value. Where the argument is
# stored, call returns what was stored. least and below, when set, are the
# edges of the arguments it accepts.
SITES = [
    ("kz.point_index", lambda x: KZ.omega(x, 2), 0, 4),
    ("kz.braid_generator_path", lambda x: braid_generator_path(default_basepoint(4), x, 2), 0, 4),
    ("kz.kz_system.level", lambda x: kz_system(A1, [(1,)] * 2, 3.5, level=x).dim, 1, None),
    ("kz.default_basepoint", default_basepoint, None, None),
    ("invariants.omega_pair", lambda x: omega_pair(SYSTEM, x, 2).i, 0, 4),
    ("invariants.swap_matrix", _swap, 0, 4),
    ("liealg.build_algebra.rank", lambda x: build_algebra("A", x).rank, 1, None),
    ("liealg.level_weights", lambda x: level_weights(A1, x), 1, None),
    ("liealg.orthonormal_basis.seed", lambda x: orthonormal_basis(A1, x).forms, None, None),
    ("reps.irrep", lambda x: irrep(A1, (x,)), 0, None),
    ("reps.tensor_decompose.lam", lambda x: tensor_decompose(A1, (x,), (1,)), 0, None),
    ("reps.tensor_decompose.mu", lambda x: tensor_decompose(A1, (1,), (x,)), 0, None),
    ("reps.weyl_dimension", lambda x: weyl_dimension(A1, (x,)), None, None),
    ("reps.casimir_value", lambda x: casimir_value(A1, (x,)), None, None),
    ("sugawara.truncated_module.level", lambda x: truncated_module(x, 1, 1).level, 1, None),
    ("sugawara.truncated_module.weight",
     lambda x: truncated_module(2, x, 1).highest_weight, 0, 3),
    ("sugawara.truncated_module.depth", lambda x: truncated_module(1, 1, x).depth, 0, None),
    ("sugawara.action_matrix.n", lambda x: MOD.action_matrix("e", x, 2), None, None),
    ("sugawara.action_matrix.src", lambda x: MOD.action_matrix("e", 0, x), 0, 3),
    ("sugawara.ln_operator", lambda x: ln_operator(MOD, x).index, -2, 3),
    ("sugawara.virasoro_bracket_check", lambda x: virasoro_bracket_check(MOD, x, 0), -2, 3),
    ("sugawara.lx_commutator_check", lambda x: lx_commutator_check(MOD, x, "e", 0), -2, 3),
    ("sugawara.affine_bracket_check",
     lambda x: affine_bracket_check(MOD, "e", x, "f", 0), -2, 3),
    ("sugawara.central_charge", central_charge, None, None),
    ("sugawara.conformal_weight.level", lambda x: conformal_weight(x, 1), None, None),
    ("sugawara.conformal_weight.weight", lambda x: conformal_weight(2, x), None, None),
    ("symbols.LaurentGVector", lambda x: [*LaurentGVector(A1, {x: [1, 0, 0]}).support][0],
     None, None),
    ("symbols.FormalField", lambda x: FormalField(x).evaluate(PHI), None, None),
    ("symbols.FormalField.index", lambda x: FormalField(x).index, None, None),
    ("symbols.cocycle_evaluation", lambda x: cocycle_evaluation(PHI, x), None, None),
    ("symbols.cocycle_cross", lambda x: cocycle_cross(PHI, PHI, x), None, None),
    ("symbols.symbol_pairing.index", lambda x: symbol_pairing(PHI, x, 1), None, None),
    ("symbols.symbol_pairing.level", lambda x: symbol_pairing(PHI, 1, x), 1, None),
    ("symbols.residue_side.index", lambda x: residue_side(PHI, x, 1, BASIS), None, None),
    ("symbols.residue_side.level", lambda x: residue_side(PHI, 1, x, BASIS), 1, None),
    ("symbols.random_laurent_vector.kmin",
     lambda x: random_laurent_vector(A1, 7, kmin=x, kmax=2).support, None, 3),
    ("symbols.random_laurent_vector.kmax",
     lambda x: random_laurent_vector(A1, 7, kmin=0, kmax=x).support, 0, None),
    ("symbols.random_laurent_vector.max_terms",
     lambda x: random_laurent_vector(A1, 7, max_terms=x).support, 1, None),
    ("symbols.random_laurent_vector.coeff_bound",
     lambda x: random_laurent_vector(A1, 7, coeff_bound=x).support, 0, None),
    ("verlinde.fusion_ring", fusion_ring, 1, None),
    ("verlinde.rank", lambda x: rank(RING, [x, 1]), 0, 3),
    ("verlinde.compare_invariants", lambda x: compare_invariants(2, [x, 1]), 0, None),
    ("verlinde.compare_invariants.scan_limit",
     lambda x: compare_invariants(2, [1, 1], scan_limit=x), None, None),
    ("verlinde.rank_smatrix.level", lambda x: rank_smatrix(x, [1, 1]), None, None),
    ("verlinde.rank_smatrix.label", lambda x: rank_smatrix(2, [x, 1]), None, None),
]


@pytest.mark.parametrize("call, least, below", [row[1:] for row in SITES],
                         ids=[row[0] for row in SITES])
def test_every_integer_argument_follows_one_rule(call, least, below):
    for bad in (True, 0.5, 1.0, Fraction(1), "1"):
        with pytest.raises(DomainError):
            call(bad)
    # numpy integers give what the int gives, and are stored as an int
    want = call(1)
    for kind in (np.int64, np.int32):
        got = call(kind(1))
        assert got == want and type(got) is type(want)
    if least is not None:
        call(least)
        with pytest.raises(DomainError):
            call(least - 1)
    if below is not None:
        call(below - 1)
        with pytest.raises(DomainError):
            call(below)


def test_integer_results_and_messages():
    assert type(integer(np.int64(3), "k")) is int
    assert integer(0, "k", 0, 1) == 0
    for args, message in [
        ((True, "level", 1), "level must be an integer, got True"),
        ((np.True_, "level"), f"level must be an integer, got {np.True_!r}"),
        ((0, "level", 1), "level must be a positive integer, got 0"),
        ((np.int64(-1), "weight", 0), "weight must be a nonnegative integer, got -1"),
        ((1, "k", 2), "k must be at least 2, got 1"),
        ((4, "point index", 0, 4), "point index must be below 4, got 4"),
    ]:
        with pytest.raises(DomainError) as info:
            integer(*args)
        assert str(info.value) == message


def test_cached_answers_wait_for_the_check():
    # (True,) == (1,) and True hashes as 1, so a cache looked up first
    # would answer for V_1
    assert irrep(A1, (np.int64(1),)) is irrep(A1, (1,))
    assert fusion_ring(np.int64(2)) is RING
    with pytest.raises(DomainError):
        tensor_decompose(A1, (1,), (True,))
