from fractions import Fraction

import pytest

from kzmono.errors import DomainError
from kzmono.sugawara import (
    affine_bracket_check,
    central_charge,
    conformal_weight,
    graded_character,
    ln_operator,
    lx_commutator_check,
    truncated_module,
    virasoro_bracket_check,
)

from oracles import wk_character_holds


@pytest.fixture(scope="module")
def vacuum():
    return truncated_module(1, 0, 4)


@pytest.fixture(scope="module")
def l2m1():
    return truncated_module(2, 1, 4)


class TestConstruction:
    def test_vacuum_degree_zero(self):
        mod = truncated_module(1, 0, 0)
        assert mod.graded_dims == [1]

    def test_top_is_finite_module(self):
        for level, m in [(1, 1), (2, 2), (3, 1)]:
            mod = truncated_module(level, m, 1)
            assert mod.graded_dims[0] == m + 1

    def test_rejects_weight_above_level(self):
        with pytest.raises(DomainError):
            truncated_module(2, 3, 2)

    def test_depth_guard(self):
        with pytest.raises(DomainError):
            truncated_module(1, 0, 7)
        truncated_module(1, 0, 5, depth_guard=6)

    def test_basic_module_graded_dims(self, vacuum):
        # independently derivable from the theta-function/partition form of
        # the level-one character: dims 1, 3, 4, 7, 13
        assert vacuum.graded_dims == [1, 3, 4, 7, 13]

    def test_characters_match_alternating_sum(self):
        for level, m in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 2)]:
            mod = truncated_module(level, m, 4)
            assert wk_character_holds(level, m, 4, graded_character(mod))

    def test_gram_blocks_nonsingular(self, vacuum):
        from kzmono.numerics import exact_rank

        for deg, gram in enumerate(vacuum.shapovalov_gram):
            if not gram:
                continue
            rows = [{j: x for j, x in enumerate(row) if x} for row in gram]
            assert exact_rank(rows, len(gram)) == vacuum.graded_dims[deg]


class TestModeOperators:
    def test_absent_block_is_none(self, vacuum):
        assert vacuum.action_matrix("e", -3, 3) is None
        assert vacuum.action_matrix("e", 1, 4) is not None

    def test_annihilation_below_bottom_is_zero_map(self, vacuum):
        blk = vacuum.action_matrix("e", 3, 1)
        assert blk == [] or all(not any(row) for row in blk)

    def test_affine_relations_exhaustive(self, vacuum, l2m1):
        for mod in (vacuum, l2m1):
            for x in ("e", "f", "h"):
                for y in ("e", "f", "h"):
                    for p in range(-2, 3):
                        for q in range(-2, 3):
                            assert affine_bracket_check(mod, x, p, y, q) == 0

    def test_affine_relations_all_stored_modes(self, vacuum):
        # every mode pair whose blocks exist inside the depth-4 truncation
        d = vacuum.depth
        for x in ("e", "f", "h"):
            for y in ("e", "f", "h"):
                for p in range(-d, d + 1):
                    for q in range(-d, d + 1):
                        assert affine_bracket_check(vacuum, x, p, y, q) == 0

    def test_central_term_level_dependence(self):
        # [e(1), f(-1)] = h(0) + level on the vacuum vector
        for level in (1, 2, 3):
            mod = truncated_module(level, 0, 2)
            assert affine_bracket_check(mod, "e", 1, "f", -1) == 0
            e1 = mod.action_matrix("e", 1, 1)
            fm1 = mod.action_matrix("f", -1, 0)
            val = sum(
                e1[0][r] * fm1[r][0] for r in range(mod.graded_dims[1])
            )
            assert val == level


class TestVirasoro:
    def test_l0_grading(self, vacuum, l2m1):
        for mod in (vacuum, l2m1):
            delta = conformal_weight(mod.level, mod.highest_weight)
            l0 = ln_operator(mod, 0)
            for deg in range(mod.depth + 1):
                blk = l0.block(deg)
                d = mod.graded_dims[deg]
                for r in range(d):
                    for c in range(d):
                        assert blk[r][c] == (delta + deg if r == c else 0)

    def test_top_eigenvalue_formula(self):
        for level, m in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            assert conformal_weight(level, m) == Fraction(
                m * (m + 2), 4 * (level + 2)
            )

    def test_positive_modes_kill_top(self, l2m1):
        # the top space is degree 0; positive-index operators have no block
        # out of it because every summand ends in an annihilation mode
        for n in (1, 2):
            ln = ln_operator(l2m1, n)
            assert ln.block(0) is None

    def test_index_beyond_depth_rejected(self, vacuum):
        with pytest.raises(DomainError):
            ln_operator(vacuum, 5)

    def test_bracket_relations_full_battery(self):
        for level in (1, 2):
            for m in range(level + 1):
                mod = truncated_module(level, m, 4)
                for p in range(-2, 3):
                    for q in range(-2, 3):
                        if abs(p + q) <= 4:
                            assert virasoro_bracket_check(mod, p, q) == 0

    def test_bracket_relations_high_modes(self, vacuum):
        for p in range(-4, 5):
            for q in range(-4, 5):
                if abs(p + q) <= vacuum.depth:
                    assert virasoro_bracket_check(vacuum, p, q) == 0

    def test_central_charge_values(self):
        assert central_charge(1) == 1
        assert central_charge(2) == Fraction(3, 2)
        assert central_charge(4) == 2

    def test_central_term_detected(self, vacuum):
        # breaking the anomaly coefficient must produce a nonzero residual:
        # compare [L_2, L_-2] against 4 L_0 alone on the vacuum line
        l2 = ln_operator(vacuum, 2)
        lm2 = ln_operator(vacuum, -2)
        l0 = ln_operator(vacuum, 0)
        lhs = sum(
            l2.block(2)[0][r] * lm2.block(0)[r][0]
            for r in range(vacuum.graded_dims[2])
        )
        assert lhs != 4 * l0.block(0)[0][0]
        assert lhs == 4 * l0.block(0)[0][0] + central_charge(1) / 2

    def test_lx_commutators(self, vacuum, l2m1):
        for mod in (vacuum, l2m1):
            for n in range(-2, 3):
                for gen in ("e", "f", "h"):
                    for k in range(-2, 3):
                        assert lx_commutator_check(mod, n, gen, k) == 0
