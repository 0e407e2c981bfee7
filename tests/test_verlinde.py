import itertools
import random

import pytest

from kzmono.errors import DomainError
from kzmono.verlinde import (
    compare_invariants,
    fusion_ring,
    invariant_dimension_character,
    invariant_dimension_nullspace,
    rank,
    rank_smatrix,
)


class TestFusionRing:
    def test_level_one_table(self):
        ring = fusion_ring(1)
        assert ring.coeffs[(1, 1, 0)] == 1
        assert ring.coeffs[(1, 1, 1)] == 0

    def test_unit_label(self):
        for level in (1, 2, 3):
            ring = fusion_ring(level)
            for a in ring.labels:
                for c in ring.labels:
                    assert ring.coeffs[(a, 0, c)] == int(a == c)

    def test_level_two_truncation(self):
        ring = fusion_ring(2)
        assert ring.coeffs[(1, 1, 2)] == 1
        assert ring.coeffs[(2, 2, 2)] == 0  # the truncation bound bites

    def test_symmetric_in_first_two(self):
        ring = fusion_ring(3)
        for a, b, c in itertools.product(ring.labels, repeat=3):
            assert ring.coeffs[(a, b, c)] == ring.coeffs[(b, a, c)]

    def test_associativity(self):
        for level in (1, 2, 3, 4):
            ring = fusion_ring(level)
            labels = ring.labels
            for a, b, c, d in itertools.product(labels, repeat=4):
                lhs = sum(
                    ring.coeffs[(a, b, e)] * ring.coeffs[(e, c, d)] for e in labels
                )
                rhs = sum(
                    ring.coeffs[(b, c, e)] * ring.coeffs[(a, e, d)] for e in labels
                )
                assert lhs == rhs

    def test_matches_smatrix_all_levels(self):
        for level in range(1, 9):
            ring = fusion_ring(level)  # construction revalidates internally
            for a, b, c in itertools.product(ring.labels, repeat=3):
                s = rank_smatrix(level, [a, b, c])
                assert abs(s - ring.coeffs[(a, b, c)]) < 1e-9

    def test_bad_level(self):
        with pytest.raises(DomainError):
            fusion_ring(0)


class TestRank:
    def test_anchors(self):
        assert rank(fusion_ring(1), [1, 1, 1, 1]) == 1
        assert rank(fusion_ring(2), [1, 1, 1, 1]) == 2
        assert rank(fusion_ring(1), [1, 1, 1]) == 0
        assert rank(fusion_ring(1), []) == 1
        assert rank(fusion_ring(2), [2, 2, 2]) == 0
        assert rank(fusion_ring(3), [2, 2, 2]) == 1

    def test_self_duality_two_points(self):
        ring = fusion_ring(4)
        for a in ring.labels:
            for b in ring.labels:
                assert rank(ring, [a, b]) == int(a == b)

    def test_label_above_level_rejected(self):
        with pytest.raises(DomainError):
            rank(fusion_ring(2), [3, 1])

    def test_permutation_invariance(self):
        ring = fusion_ring(3)
        ws = [1, 2, 3, 2, 1]
        vals = {rank(ring, list(p)) for p in itertools.permutations(ws)}
        assert len(vals) == 1

    def test_rank_matches_smatrix_multipoint(self):
        rng = random.Random(77)
        for _ in range(40):
            level = rng.randint(1, 8)
            n = rng.randint(0, 6)
            ws = [rng.randint(0, min(level, 4)) for _ in range(n)]
            r = rank(fusion_ring(level), ws)
            assert abs(rank_smatrix(level, ws) - r) < 1e-9

    def test_monotone_in_level(self):
        for ws in ([1, 1, 1, 1], [2, 2, 2], [1, 2, 3, 2], [4, 4, 4, 4]):
            floor = max(ws)
            dims = [
                rank(fusion_ring(level), ws) for level in range(floor, floor + 8)
            ]
            assert dims == sorted(dims)
            assert dims[-1] == invariant_dimension_character(ws)


class TestCompare:
    def test_four_point_stabilization(self):
        rep = compare_invariants(1, [1, 1, 1, 1])
        assert rep == {
            "rank": 1,
            "dim_invariants": 2,
            "equal": False,
            "stabilization_level": 2,
        }

    def test_two_point_trivial(self):
        for level in (1, 2, 3):
            rep = compare_invariants(level, [1, 1])
            assert rep["rank"] == 1 and rep["dim_invariants"] == 1
            assert rep["stabilization_level"] == 1

    def test_three_equal_labels(self):
        rep = compare_invariants(2, [2, 2, 2])
        assert rep["rank"] == 0
        assert rep["dim_invariants"] == 1
        assert rep["stabilization_level"] == 3

    def test_non_integer_label_rejected(self):
        # rank() rejects these labels; the comparison used to truncate them
        # to [1, 1] first
        for ws in ([1.5, 1.5], [1, "1"]):
            with pytest.raises(DomainError):
                compare_invariants(2, ws)
        with pytest.raises(DomainError):
            rank(fusion_ring(2), [1.5, 1.5])

    def test_character_and_nullspace_dims_agree(self):
        for ws in ([1, 1], [1, 1, 1, 1], [2, 1, 1], [2, 2, 2], [1, 1, 1, 1, 2]):
            assert invariant_dimension_character(ws) == invariant_dimension_nullspace(
                ws
            )

    def test_rank_never_exceeds_dim(self):
        rng = random.Random(5)
        for _ in range(30):
            level = rng.randint(1, 6)
            n = rng.randint(2, 6)
            ws = [rng.randint(0, min(level, 4)) for _ in range(n)]
            rep = compare_invariants(level, ws)
            assert rep["rank"] <= rep["dim_invariants"]
            assert rep["stabilization_level"] is not None
