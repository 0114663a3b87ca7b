"""Dense univariate real polynomials, Sturm chains, and smallest-root isolation.

Coefficients are stored ascending by degree.  The polynomials handled
here have the row count ``n`` as degree (the expected-polynomial
transform never raises it), so plain tuples and Horner evaluation are
both the simplest and the fastest option.  Tolerances are
calibrated for float64; near-multiple roots are absorbed into gcd layers
rather than resolved exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidInput, NotRealRooted

__all__ = [
    "Polynomial",
    "SturmChain",
    "evaluate",
    "monic",
    "from_roots",
    "derivative",
    "sturm_chain",
    "count_roots_leq",
    "smallest_root",
    "is_real_rooted",
]

# Remainders this small relative to the dividend are treated as exact
# gcd hits when building Sturm chains.
_GCD_REMAINDER_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients; () is the zero polynomial.

    Trailing zero coefficients are stripped on construction so the last
    coefficient is always nonzero and ``degree == len(coeffs) - 1``.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        c = [float(v) for v in coeffs]
        if not all(math.isfinite(v) for v in c):
            raise InvalidInput("polynomial coefficients must be finite")
        while c and c[-1] == 0.0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


@dataclass(frozen=True)
class SturmChain:
    """Sequence p, p', then negated remainders, with degrees strictly decreasing.

    Remainders are rescaled to unit max coefficient (a positive scaling,
    invisible to sign-variation counts).  The chain stops early at the
    gcd of p and p' when a remainder vanishes to tolerance, which keeps
    counting correct near multiple roots.  The sign variations at -inf
    depend only on the chain's leading coefficients and degrees, so they
    are computed once per chain, on first use.
    """

    chain: tuple[Polynomial, ...]

    @cached_property
    def variations_at_minus_inf(self) -> int:
        """Sign variations at ``-inf``, where each entry has sign lead * (-1)^degree."""
        signs = []
        for q in self.chain:
            s = 1 if q.coeffs[-1] > 0.0 else -1
            signs.append(-s if q.degree % 2 == 1 else s)
        return _variations(signs)


def evaluate(p: Polynomial, x: float) -> float:
    """Horner evaluation."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def monic(p: Polynomial) -> Polynomial:
    """Scale ``p`` so the leading coefficient is one."""
    if p.is_zero:
        raise InvalidInput("cannot normalize the zero polynomial")
    lead = p.coeffs[-1]
    if lead == 1.0:
        return p
    return Polynomial(c / lead for c in p.coeffs)


def from_roots(roots: Sequence[float]) -> Polynomial:
    """Monic polynomial with the given roots.

    Factors are multiplied in ascending ``|root|`` order, which keeps
    cancellation small when the roots span several magnitudes.
    """
    coeffs = [1.0]
    for r in sorted(roots, key=abs):
        # multiply by (x - r) in place
        coeffs.append(coeffs[-1])
        for i in range(len(coeffs) - 2, 0, -1):
            coeffs[i] = coeffs[i - 1] - r * coeffs[i]
        coeffs[0] = -r * coeffs[0]
    return Polynomial(coeffs)


def derivative(p: Polynomial, times: int = 1) -> Polynomial:
    """``times``-fold formal derivative."""
    if times < 0:
        raise InvalidInput(f"times must be >= 0, got {times}")
    c = list(p.coeffs)
    for _ in range(times):
        c = [i * c[i] for i in range(1, len(c))]
        if not c:
            break
    return Polynomial(c)


def _divmod_coeffs(num: Sequence[float], den: Sequence[float]) -> tuple[list[float], list[float]]:
    """Euclidean division of ascending coefficient lists; den must be nonzero."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0.0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        f = rem[i] / lead
        quot[i - dd] = f
        if f != 0.0:
            for j in range(dd + 1):
                rem[i - dd + j] -= f * den[j]
        rem[i] = 0.0
    del rem[dd:]
    return quot, rem


def sturm_chain(p: Polynomial) -> SturmChain:
    """Build the (generalized) Sturm chain of ``p``."""
    if p.is_zero:
        raise InvalidInput("sturm_chain requires a nonzero polynomial")
    if p.degree == 0:
        return SturmChain((p,))
    chain = [p, derivative(p, 1)]
    while chain[-1].degree >= 1:
        dividend = chain[-2]
        _, rem = _divmod_coeffs(dividend.coeffs, chain[-1].coeffs)
        rem_scale = max((abs(v) for v in rem), default=0.0)
        dividend_scale = max(abs(v) for v in dividend.coeffs)
        if rem_scale <= _GCD_REMAINDER_TOL * dividend_scale:
            break  # chain[-1] is (numerically) the gcd of p and p'
        chain.append(Polynomial(-v / rem_scale for v in rem))
    return SturmChain(tuple(chain))


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: SturmChain, x: float) -> int:
    # Signs come straight from the computed values; only an exact 0.0 is
    # treated as a zero entry.  Snapping small values to zero looks
    # safer but biases the bisection by up to (snap threshold)/|p'| near
    # a root, which is far worse than living with sign noise confined
    # to the float ambiguity region of the evaluation.
    signs = []
    for q in chain.chain:
        value = evaluate(q, x)
        signs.append(0 if value == 0.0 else (1 if value > 0.0 else -1))
    return _variations(signs)


def count_roots_leq(chain: SturmChain, x: float) -> int:
    """Number of distinct real roots in ``(-inf, x]`` by sign variations."""
    return chain.variations_at_minus_inf - _variations_at(chain, x)


def _cauchy_radius(p: Polynomial) -> float:
    lead = abs(p.coeffs[-1])
    return max(abs(c) for c in p.coeffs[:-1]) / lead if p.degree >= 1 else 0.0


def smallest_root(p: Polynomial, eps: float) -> float:
    """Bisect on the Sturm count to locate the smallest real root within ``eps``.

    The bracket ``[lo, hi]`` around the root halves until it is at most
    ``eps`` wide, or until its midpoint is no longer a float strictly
    inside it; so an ``eps`` below the float spacing at the root gives
    the root at float resolution instead of looping forever.  The
    caller is responsible for real-rootedness; a polynomial with no
    real root in the Cauchy bracket raises :class:`NotRealRooted`.
    """
    if eps <= 0.0:
        raise InvalidInput(f"eps must be > 0, got {eps}")
    if p.is_zero or p.degree < 1:
        raise NotRealRooted("polynomial has no roots")
    chain = sturm_chain(p)
    radius = _cauchy_radius(p)
    lo, hi = -1.0 - radius, 1.0 + radius
    if count_roots_leq(chain, hi) == 0:
        raise NotRealRooted(f"no real root found in [-{1 + radius}, {1 + radius}]")
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if count_roots_leq(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def is_real_rooted(p: Polynomial) -> bool:
    """True iff all roots of ``p`` are real, counted with multiplicity.

    Distinct roots come from the Sturm count over the full line;
    multiplicities are recovered by recursing on the gcd layer that
    terminated the chain.
    """
    if p.is_zero:
        raise InvalidInput("is_real_rooted requires a nonzero polynomial")
    if p.degree == 0:
        return True
    return _real_count_with_multiplicity(p) == p.degree


def _real_count_with_multiplicity(p: Polynomial) -> int:
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)
    radius = _cauchy_radius(p)
    distinct = count_roots_leq(chain, 1.0 + radius)
    tail = chain.chain[-1]
    if tail.degree <= 0:
        return distinct
    return distinct + _real_count_with_multiplicity(monic(tail))
