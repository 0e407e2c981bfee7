"""Genus-zero fusion calculus for sl2 at a fixed level.

Fusion coefficients come from the admissibility bounds
    |a - b| <= c <= min(a + b, 2 level - a - b),  a + b + c even,
and are validated at construction time against the trigonometric diagonal
form N_ab^c = sum_x S_ax S_bx S_cx / S_0x, so neither route is trusted
alone. Multi-point ranks fold the coefficient table; their stabilization in
the level recovers the dimension of the classical invariant space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConsistencyError, DomainError, ViolationError

SMATRIX_ROUND_TOL = 1e-9


@dataclass(eq=False)
class FusionRing:
    level: int
    labels: range
    coeffs: dict    # (a, b, c) -> 0 or 1


def admissible(level, a, b, c):
    if (a + b + c) % 2:
        return 0
    if abs(a - b) <= c <= min(a + b, 2 * level - a - b):
        return 1
    return 0


def smatrix_entry(level, a, b):
    return math.sqrt(2.0 / (level + 2)) * math.sin(
        math.pi * (a + 1) * (b + 1) / (level + 2)
    )


def smatrix_coefficient(level, a, b, c):
    """Diagonalized fusion coefficient; real for these self-dual labels."""
    total = 0.0
    for x in range(level + 1):
        total += (
            smatrix_entry(level, a, x)
            * smatrix_entry(level, b, x)
            * smatrix_entry(level, c, x)
            / smatrix_entry(level, 0, x)
        )
    return total


@lru_cache(maxsize=None)
def fusion_ring(level):
    """Build and cross-validate the level's fusion coefficient table.

    Rings are whole-program constants, so results are cached.
    """
    if not isinstance(level, int) or level < 1:
        raise DomainError(f"level must be a positive integer, got {level!r}")
    coeffs = {}
    for a in range(level + 1):
        for b in range(level + 1):
            for c in range(level + 1):
                n = admissible(level, a, b, c)
                s = smatrix_coefficient(level, a, b, c)
                if abs(s - n) >= SMATRIX_ROUND_TOL:
                    raise ConsistencyError(
                        f"fusion table disagrees with the S-matrix at "
                        f"({a},{b},{c}): {n} vs {s!r}"
                    )
                coeffs[(a, b, c)] = n
    return FusionRing(level=level, labels=range(level + 1), coeffs=coeffs)


def rank(ring, weights):
    """Multi-point rank at genus zero: the unit coefficient of the iterated
    fusion product (labels here are self-dual)."""
    weights = list(weights)
    for w in weights:
        if not isinstance(w, int) or w < 0 or w > ring.level:
            raise DomainError(
                f"label {w!r} is not admissible at level {ring.level}"
            )
    if not weights:
        return 1
    vec = {weights[0]: 1}
    for w in weights[1:]:
        nxt = {}
        for a, mult in vec.items():
            for c in ring.labels:
                n = ring.coeffs[(a, w, c)]
                if n:
                    nxt[c] = nxt.get(c, 0) + mult * n
        vec = nxt
    return vec.get(0, 0)


def rank_smatrix(level, weights):
    """Independent trigonometric evaluation of the same rank."""
    weights = list(weights)
    if not weights:
        return 1.0
    n = len(weights)
    total = 0.0
    for x in range(level + 1):
        prod = 1.0
        for w in weights:
            prod *= smatrix_entry(level, w, x)
        total += prod / smatrix_entry(level, 0, x) ** (n - 2)
    return total


def invariant_dimension_character(weights):
    """dim of the sl2 invariants of (x) V_w, by character convolution."""
    mults = {0: 1}
    for w in weights:
        nxt = {}
        for m, k in mults.items():
            for delta in range(-w, w + 1, 2):
                nxt[m + delta] = nxt.get(m + delta, 0) + k
        mults = nxt
    # multiplicity of the trivial module = mult(0) - mult(2)
    return mults.get(0, 0) - mults.get(2, 0)


def invariant_dimension_nullspace(weights):
    """The same dimension from the exact invariant-vector computation."""
    from .invariants import invariant_basis, tensor_system
    from .liealg import build_algebra
    from .reps import irrep

    alg = build_algebra("A", 1)
    reps = [irrep(alg, (int(w),)) for w in weights]
    return invariant_basis(tensor_system(reps), "exact").dim


def compare_invariants(level, weights, scan_limit=None):
    """Rank vs classical invariant dimension, with the stabilization scan.

    Returns {rank, dim_invariants, equal, stabilization_level}, where the
    stabilization level is the smallest one at which the rank equals the
    invariant dimension. That dimension is counted by the character
    convolution; tests pin that it agrees with invariant_dimension_nullspace.
    A rank exceeding the invariant dimension would falsify the
    level-truncated theory embedding and raises ViolationError.
    """
    weights = [int(w) for w in weights]
    dim_a = invariant_dimension_character(weights)
    r = rank(fusion_ring(level), weights)
    if r > dim_a:
        raise ViolationError(
            f"rank {r} exceeds the invariant dimension {dim_a} at level {level}"
        )
    cap = max(scan_limit if scan_limit is not None else 0, sum(weights) + 2, level)
    floor = max([1] + weights)  # labels only exist from their own level up
    stab = None
    for probe in range(floor, cap + 1):
        r_probe = rank(fusion_ring(probe), weights)
        if r_probe > dim_a:
            raise ViolationError(
                f"rank {r_probe} exceeds the invariant dimension {dim_a} "
                f"at level {probe}"
            )
        if r_probe == dim_a:
            stab = probe
            break
    if stab is None:
        raise ConsistencyError(
            f"rank did not stabilize to {dim_a} within the scan cap {cap}"
        )
    return {
        "rank": r,
        "dim_invariants": dim_a,
        "equal": r == dim_a,
        "stabilization_level": stab,
    }
