import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from kzmono import numerics, sugawara
from kzmono.errors import DomainError
from kzmono.numerics import Held, fraction_rows, rat_mul
from kzmono.sugawara import (
    affine_bracket_check,
    central_charge,
    conformal_weight,
    graded_character,
    graded_weights,
    ln_operator,
    lx_commutator_check,
    truncated_module,
    virasoro_bracket_check,
)

from oracles import integer_rows, wk_character_holds


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

    def test_degrees_spanned_by_minus_one_modes(self):
        # every basis vector above the top is y(-1) b, b a degree D - 1 index
        for level, m, depth in [(1, 0, 4), (2, 1, 4), (2, 2, 3)]:
            mod = truncated_module(level, m, depth)
            for deg in range(1, depth + 1):
                for k, gen, b in mod.graded_bases[deg]:
                    assert (k, gen) in {(1, "f"), (1, "h"), (1, "e")}
                    assert 0 <= b < mod.graded_dims[deg - 1]

    def test_own_algebra_is_freed_without_the_collector(self):
        # the module builds its algebra for itself, and its top irrep
        # outside that algebra's cache: no algebra-irrep cycle is left for
        # the garbage collector
        mod = truncated_module(2, 1, 2)
        assert not mod.algebra._cache
        ref = weakref.ref(mod.algebra)
        gc.disable()
        try:
            del mod
            assert ref() is None
        finally:
            gc.enable()

    def test_gram_blocks_nonsingular(self, vacuum):
        from kzmono.numerics import exact_rank

        for deg, gram in enumerate(fraction_rows(*g) for g in vacuum._grams):
            if not gram:
                continue
            rows = integer_rows([{j: x for j, x in enumerate(row) if x} for row in gram])
            assert exact_rank(rows, len(gram)) == vacuum.graded_dims[deg]


class TestModeOperators:
    def test_absent_block_is_none(self, vacuum):
        assert vacuum.action_matrix("e", -3, 3) is None
        assert vacuum.action_matrix("e", 1, 4) is not None

    def test_annihilation_below_bottom_is_zero_map(self, vacuum):
        blk = vacuum.action_matrix("e", 3, 1)
        assert blk == [] or all(not any(row) for row in blk)

    def test_unknown_generator_rejected(self, vacuum):
        # every entry point that takes a generator name reports a bad one
        # as a domain error, not as a missing table key
        calls = [
            lambda: vacuum.action_matrix("x", 1, 1),
            lambda: lx_commutator_check(vacuum, 1, "x", -1),
            lambda: affine_bracket_check(vacuum, "x", 1, "e", -1),
            lambda: affine_bracket_check(vacuum, "e", 1, "x", -1),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="unknown sl2 generator 'x'"):
                call()

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

    def test_modes_are_contravariant_and_exact(self):
        # <x(-n) u, v> = <u, tau x(n) v>: T(x,-n,D-n)^T G_D = G_{D-n} T(tau x,n,D)
        tau = {"e": "f", "f": "e", "h": "h"}
        for level, m, depth in [(1, 0, 4), (2, 1, 4), (2, 2, 3)]:
            mod = truncated_module(level, m, depth)
            gram = [fraction_rows(*g) for g in mod._grams]
            for deg in range(depth + 1):
                for n in range(deg + 1):
                    for x in ("e", "f", "h"):
                        left = mod.action_matrix(x, -n, deg - n)
                        right = mod.action_matrix(tau[x], n, deg)
                        lhs = rat_mul([list(col) for col in zip(*left)], gram[deg])
                        assert lhs == rat_mul(gram[deg - n], right)
            entries = [x for g in gram for row in g for x in row]
            entries += [
                x
                for key in mod._tables
                for row in mod.action_matrix(*key)
                for x in row
            ]
            assert all(type(x) is Fraction for x in entries)

    def test_checks_see_a_broken_table(self):
        # every other test asserts residual 0; pin the nonzero residuals one
        # wrong entry of e(-1) on degree 1 produces
        mod = truncated_module(1, 0, 3)
        num, den = mod._tables[("e", -1, 1)]
        # a held table is read-only, so that the bound it keeps stays true
        with pytest.raises(ValueError):
            num[0, 0] += den
        num = num.copy()
        num[0, 0] += den  # the (0, 0) entry, N / D, goes up by exactly 1
        mod._tables[("e", -1, 1)] = Held(num, den)
        assert affine_bracket_check(mod, "f", 1, "e", -1) == 4
        assert lx_commutator_check(mod, 1, "e", -1) == 2
        assert virasoro_bracket_check(mod, 1, -1) == Fraction(8, 3)

    def test_checks_reject_modes_beyond_depth(self):
        # no block of e(9) exists in a depth-2 truncation, so a residual of 0
        # would certify nothing
        mod = truncated_module(1, 0, 2)
        calls = [
            lambda: lx_commutator_check(mod, 0, "e", 9),
            lambda: lx_commutator_check(mod, 1, "e", -3),
            lambda: affine_bracket_check(mod, "e", 3, "f", -1),
            lambda: affine_bracket_check(mod, "e", 1, "f", -3),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="exceeds the truncation depth"):
                call()

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
                blk = fraction_rows(*l0.blocks[deg])
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
            assert 0 not in ln.blocks

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
        l2, lm2, l0 = (fraction_rows(*ln_operator(vacuum, n).blocks[src])
                       for n, src in ((2, 2), (-2, 0), (0, 0)))
        lhs = sum(l2[0][r] * lm2[r][0] for r in range(vacuum.graded_dims[2]))
        assert lhs != 4 * l0[0][0]
        assert lhs == 4 * l0[0][0] + central_charge(1) / 2

    def test_lx_commutators(self, vacuum, l2m1):
        for mod in (vacuum, l2m1):
            for n in range(-2, 3):
                for gen in ("e", "f", "h"):
                    for k in range(-2, 3):
                        assert lx_commutator_check(mod, n, gen, k) == 0


def residuals(mod):
    """Bracket residuals that read e(-1) out of degree 1, directly and
    through the derived modes and L_n."""
    return [
        affine_bracket_check(mod, "f", 1, "e", -1),
        affine_bracket_check(mod, "e", 2, "h", -2),
        lx_commutator_check(mod, 1, "e", -1),
        lx_commutator_check(mod, 0, "e", 2),
        virasoro_bracket_check(mod, 1, -1),
        virasoro_bracket_check(mod, 2, -1),
    ]


def with_table(key, change):
    """A fresh vacuum module of depth 3 whose table ``key`` is replaced by
    ``change(N, D)`` before any derived mode or L_n is formed."""
    mod = truncated_module(1, 0, 3)
    mod._tables[key] = Held(*change(*mod._tables[key]))
    return mod


def plus_one(num, den):
    num = num.astype(object)
    num[0, 0] += 1
    return num, den


def fraction_residual(mod, a, b, rhs, central):
    """The residual of sugawara._bracket_residual, on the same blocks as
    rows of ``Fraction``: max |[A, B] - sum coeff C - central 1| over the
    source degrees where every block exists."""
    def rows(op, src):
        blk = sugawara._block(mod, op, src)
        return None if blk is None else fraction_rows(*blk)

    def mul(x, y, shape):
        return [[sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0))
                 for j in range(shape[1])] for i in range(shape[0])]

    (p, _), (q, _) = a, b
    worst = Fraction(0)
    for src in range(mod.depth + 1):
        tgt = src - p - q
        if not 0 <= tgt <= mod.depth:
            continue
        parts = [rows(b, src), rows(a, src - q), rows(a, src), rows(b, src - p)]
        parts += [rows(c, src) for _, c in rhs]
        if any(x is None for x in parts):
            continue
        shape = (mod.graded_dims[tgt], mod.graded_dims[src])
        ab, ba = mul(parts[1], parts[0], shape), mul(parts[3], parts[2], shape)
        for r in range(shape[0]):
            for c in range(shape[1]):
                x = ab[r][c] - ba[r][c] - sum(
                    (coeff * blk[r][c] for (coeff, _), blk in zip(rhs, parts[4:])), Fraction(0))
                if tgt == src and r == c:
                    x -= central
                worst = max(worst, abs(x))
    return worst


class TestHeldTables:
    KEY = ("e", -1, 1)

    def test_broken_residuals_match_fraction_reference(self, monkeypatch):
        # the residual is max|N| of the unreduced sum over its D; with one
        # table entry up by 1 it is nonzero, and equals the residual formed
        # on rows of Fraction from the same blocks, for every bracket
        real, seen = sugawara._bracket_residual, []

        def both(mod, a, b, rhs, central):
            got = real(mod, a, b, rhs, central)
            assert got == fraction_residual(mod, a, b, rhs, central)
            seen.append(got)
            return got

        monkeypatch.setattr(sugawara, "_bracket_residual", both)
        mod = with_table(self.KEY, plus_one)
        assert all(residuals(mod))
        for x in "efh":
            for y in "efh":
                affine_bracket_check(mod, x, 1, y, -1)
                affine_bracket_check(mod, x, 0, y, 1)
        assert len(seen) == 6 + 18 and sum(1 for r in seen if r) > 6

    def test_tables_and_grams_are_read_only_int64(self, l2m1):
        ln_operator(l2m1, 2)
        held = list(l2m1._tables.values()) + l2m1._grams
        held += list(ln_operator(l2m1, 2).blocks.values())
        for num, _ in held:
            assert num.dtype == np.int64 and not num.flags.writeable

    def test_broken_entry_matches_python_ints(self, monkeypatch):
        # one held numerator up by 1 breaks the brackets; forming every
        # product on Python ints (no machine type admitted) gives the same
        # nonzero residuals
        fast = residuals(with_table(self.KEY, plus_one))
        assert all(fast)
        monkeypatch.setattr(numerics, "INT64_LIMIT", 1)
        assert residuals(with_table(self.KEY, plus_one)) == fast

    def test_table_past_int64_stays_python_ints(self):
        # N k / D k is the same matrix; with k = 2^63 it does not fit int64,
        # stays Python ints, and gives the same residuals, broken or not
        k = 2**63
        for change, expect in (
            (lambda n, d: (n, d), [0] * 6),
            (plus_one, residuals(with_table(self.KEY, plus_one))),
        ):
            def scaled(num, den, change=change):
                num, den = change(num, den)
                return num.astype(object) * k, den * k

            mod = with_table(self.KEY, scaled)
            assert mod._tables[self.KEY][0].dtype == object
            assert residuals(mod) == expect

    def test_accessors_give_python_numbers(self, l2m1):
        weights = graded_weights(l2m1)
        assert all(type(w) is int for ws in weights for w in ws)
        assert weights[0] == [1, -1]
        rows = l2m1.action_matrix("e", -1, 1) + fraction_rows(*l2m1._grams[2])
        rows += fraction_rows(*ln_operator(l2m1, 0).blocks[2])
        assert all(type(x) is Fraction for row in rows for x in row)
