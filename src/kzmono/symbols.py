"""Residue pairings of algebra-valued Laurent coefficients against the
quadratic current operators, independent of any module truncation.

A Laurent vector phi = sum_k X_k xi^{-k-1} d xi is stored by its finite
coefficient support. Two evaluations of the same pairing are provided: the
closed form (1 / 2(l + h_vee)) sum_k kappa(X_k, X_{m-k}), and the literal
double-residue expansion over a basis and its dual, which for index 0 runs
through the ordering-free split of the quadratic zero-mode term. Their
agreement is the point of the module, so neither side shortcuts through the
other. The cocycle evaluation sum_k kappa(X_k, X_{n-k}) is the same sum
without the 1 / 2(l + h_vee) prefactor.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ShapeError, integer
from .liealg import DualBasis, killing_form


@dataclass(eq=False)
class LaurentGVector:
    """Finite support map k -> coefficient vector X_k in algebra coordinates."""

    algebra: object
    support: dict

    def __post_init__(self):
        clean = {}
        for k, vec in self.support.items():
            if len(vec) != self.algebra.dim:
                raise ShapeError(
                    f"coefficient at index {k} has length {len(vec)}, "
                    f"expected {self.algebra.dim}"
                )
            if any(vec):
                clean[integer(k, "Laurent index")] = list(vec)
        self.support = clean

    def coefficient(self, k):
        return self.support.get(k, [Fraction(0)] * self.algebra.dim)


@dataclass(frozen=True)
class FormalField:
    """The vector field xi^(n+1) d/dxi, kept only by its integer index."""

    index: int

    def __post_init__(self):
        # frozen, so the checked int is stored past the dataclass's setattr
        object.__setattr__(self, "index", integer(self.index, "index"))

    def evaluate(self, phi):
        return cocycle_evaluation(phi, self.index)


def symbol_pairing(phi, m, level):
    """(1 / 2(l + h_vee)) sum_k kappa(X_k, X_{m-k}), exact."""
    level = integer(level, "level", 1)
    alg = phi.algebra
    norm = Fraction(1, 2 * (level + alg.dual_coxeter))
    return norm * cocycle_evaluation(phi, m)


def cocycle_evaluation(phi, n):
    """sum_k kappa(X_k, X_{n-k}), exact and finite by support."""
    return cocycle_cross(phi, phi, n)


def cocycle_cross(phi, psi, n):
    """Two-argument version sum_k kappa(X_k, Y_{n-k}); bilinear companion."""
    if phi.algebra is not psi.algebra:
        raise DomainError("Laurent vectors live over different algebras")
    alg, n = phi.algebra, integer(n, "index")
    total = Fraction(0)
    for k, xk in phi.support.items():
        yk = psi.support.get(n - k)
        if yk is not None:
            total += killing_form(alg, xk, yk)
    return total


def residue_side(phi, m, level, basis):
    """The literal double-residue expansion of the pairing against the
    index-m quadratic operator, summed over a basis and its dual:
    sum_a kappa(X, x_a) kappa(Y, x~_a) for each pair of coefficients.

    For m = 0 the evaluation follows the ordering-free rewriting: one
    (1/2(l+h_vee)) zero-mode square plus a (1/(l+h_vee)) tail over k >= 1.
    Returns an exact Fraction.
    """
    if not isinstance(basis, DualBasis):
        raise DomainError("residue_side needs a DualBasis")
    if basis.algebra is not phi.algebra:
        raise DomainError("basis and Laurent vector use different algebras")
    level, m = integer(level, "level", 1), integer(m, "index")
    hv = phi.algebra.dual_coxeter
    support = phi.support

    def pair_sq(xk, xq):
        left, dl = _pairings(xk, basis.forms)
        right, dr = _pairings(xq, basis.dual_forms)
        return Fraction(1, dl * dr) * sum(map(operator.mul, left, right))

    if m != 0:
        total = 0
        for k, xk in support.items():
            other = support.get(m - k)
            if other is not None:
                total += pair_sq(xk, other)
        total = Fraction(1, 2 * (level + hv)) * total
    else:
        total = 0
        x0 = support.get(0)
        if x0 is not None:
            total = Fraction(1, 2 * (level + hv)) * pair_sq(x0, x0)
        tail = 0
        for k in sorted(support):
            if k >= 1 and (-k) in support:
                tail += pair_sq(support[-k], support[k])
        total += Fraction(1, level + hv) * tail
    # an empty sum is the int 0
    return Fraction(total)


def _pairings(x, forms):
    """The pairing of x with every form, as integers over one denominator."""
    x = [Fraction(v) for v in x]
    den = math.lcm(*(v.denominator for v in x))
    terms = [(b, v.numerator * (den // v.denominator)) for b, v in enumerate(x) if v]
    return [sum(f[b] * n for b, n in terms) for f in forms], den


def random_laurent_vector(alg, rng, kmin=-4, kmax=4, max_terms=4, coeff_bound=3):
    """Seeded random Laurent vector for property trials."""
    kmin, kmax = integer(kmin, "kmin"), integer(kmax, "kmax")
    if kmin > kmax:
        raise DomainError(f"kmin must not exceed kmax, got {kmin} > {kmax}")
    max_terms = integer(max_terms, "max_terms", 1)
    coeff_bound = integer(coeff_bound, "coeff_bound", 0)
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    support = {}
    terms = rng.randint(1, max_terms)
    for _ in range(terms):
        k = rng.randint(kmin, kmax)
        vec = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(alg.dim)]
        if k in support:
            support[k] = [a + b for a, b in zip(support[k], vec)]
        else:
            support[k] = vec
    return LaurentGVector(algebra=alg, support=support)
