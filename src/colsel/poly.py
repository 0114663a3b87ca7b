"""Dense univariate real polynomials, Sturm chains, and smallest-root isolation.

Coefficients are stored ascending by degree, as plain tuples: one in a
:class:`Polynomial`, one per entry in a :class:`SturmChain`.  The
polynomials handled here have the row count ``n`` as degree (the
expected-polynomial transform never raises it), so plain tuples and
Horner evaluation are both the simplest and the fastest option.
Tolerances are calibrated for float64; near-multiple roots are absorbed
into gcd layers rather than resolved exactly.

:func:`smallest_root` finds a root by Newton's method from the left,
with ``p'`` from the Sturm chain and compensated-Horner last steps,
and returns it only inside a bracket that a sign change and a Sturm
count certify; bisection on the Sturm count covers whatever the
certificates leave open.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
# Dekker's splitting constant 2**27 + 1: splits a double into two halves
# whose products are exact.
_SPLITTER = 134217729.0
# Newton from the left converges at least linearly; a cluster of nearly
# equal roots can still make it slow, and bisection takes over then.
_NEWTON_MAX_STEPS = 64
# Compensated Newton steps after the plain ones.  From where plain Horner
# leaves a root with close neighbours (3.3e-7 off on criterion 06's
# degree-12 trial 157), one step gets within 1.2e-11, two within 1e-16.
# A compensated evaluation costs about three plain ones, so only these
# last steps use it.
_COMPENSATED_STEPS = 2


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients; () is the zero polynomial.

    Trailing zero coefficients are stripped on construction so the last
    coefficient is always nonzero and ``degree == len(coeffs) - 1``.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _finite_stripped(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def _finite_stripped(values: Iterable[float]) -> tuple[float, ...]:
    """``values`` as floats without trailing zeros; :class:`InvalidInput` if one is not finite."""
    c = list(map(float, values))
    if not all(map(math.isfinite, c)):
        raise InvalidInput("polynomial coefficients must be finite")
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class SturmChain:
    """p, p', then negated remainders, as stripped coefficient tuples of decreasing degree.

    Remainders are rescaled to unit max coefficient (a positive scaling,
    invisible to sign-variation counts).  The chain stops early at the
    gcd of p and p' when a remainder vanishes to tolerance, which keeps
    counting correct near multiple roots.  :func:`sturm_chain` counts
    ``variations_at_minus_inf`` as it builds the chain.
    """

    chain: tuple[tuple[float, ...], ...]
    variations_at_minus_inf: int


def evaluate(p: Polynomial, x: float) -> float:
    """Horner evaluation."""
    return _horner(p.coeffs, x)


def _horner(coeffs: Sequence[float], x: float) -> float:
    """The polynomial with ascending ``coeffs`` at ``x``, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
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


def sturm_chain(p: Polynomial) -> SturmChain:
    """The (generalized) Sturm chain of ``p``; an overflowing remainder raises InvalidInput."""
    if p.is_zero:
        raise InvalidInput("sturm_chain requires a nonzero polynomial")
    if p.degree == 0:
        return SturmChain((p.coeffs,), 0)
    dividend, divisor = p.coeffs, derivative(p, 1).coeffs
    chain = [dividend, divisor]
    variations = 1  # p, p' at -inf; entries differ there iff lead signs xor degree parities do
    while len(divisor) >= 2:
        # Remainder of dividend / divisor: step i cancels rem[i], which the
        # del drops, so only the dd entries below it are updated.
        dd = len(divisor) - 1
        lead = divisor[-1]
        rem = list(dividend)
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] / lead
            if f != 0.0:
                for j in range(dd):
                    rem[i - dd + j] -= f * divisor[j]
        del rem[dd:]
        rem_scale = max(map(abs, rem), default=0.0)
        if rem_scale <= _GCD_REMAINDER_TOL * max(map(abs, dividend)):
            break  # chain[-1] is (numerically) the gcd of p and p'
        rem = _finite_stripped(-v / rem_scale for v in rem)
        variations += (lead > 0.0) ^ (rem[-1] > 0.0) ^ (len(divisor) - len(rem)) % 2
        chain.append(rem)
        dividend, divisor = divisor, rem
    return SturmChain(tuple(chain), variations)


def count_roots_leq(chain: SturmChain, x: float) -> int:
    """Number of distinct real roots in ``(-inf, x]``: sign variations at ``-inf`` minus at ``x``.

    Only an exact 0.0 is a zero entry: snapping small values to zero
    biases the bisection by up to (snap threshold)/|p'| near a root, far
    worse than sign noise in the float ambiguity region of the
    evaluation.
    """
    count = chain.variations_at_minus_inf
    prev = None
    for coeffs in chain.chain:
        value = _horner(coeffs, x)
        if value != 0.0:
            positive = value > 0.0
            if prev is not None and positive != prev:
                count -= 1
            prev = positive
    return count


def _cauchy_radius(p: Polynomial) -> float:
    return max(map(abs, p.coeffs[:-1])) / abs(p.coeffs[-1])


def _compensated_value(coeffs: Sequence[float], x: float) -> float:
    """The polynomial with ascending ``coeffs`` at ``x``, by compensated Horner.

    Compensated Horner (Graillat, Langlois and Louvet, 2005) adds back
    the rounding error of every step: each product's error comes from
    Dekker's exact split, each sum's from Knuth's two-sum, and the errors
    run through their own Horner recurrence.  The value is as accurate as
    plain Horner in twice the working precision.
    """
    c = _SPLITTER * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    value = 0.0
    error = 0.0
    for coeff in reversed(coeffs):
        prod = value * x
        c = _SPLITTER * value
        v_hi = c - (c - value)
        v_lo = value - v_hi
        prod_error = v_lo * x_lo - (((prod - v_hi * x_hi) - v_lo * x_hi) - v_hi * x_lo)
        value = prod + coeff
        t = value - prod
        sum_error = (prod - (value - t)) + (coeff - t)
        error = error * x + (prod_error + sum_error)
    return value + error


def _newton_from_left(chain: SturmChain, lo: float, hi: float, eps: float) -> float:
    """Newton's method from a lower bound on the roots, for the smallest root.

    ``chain`` is the Sturm chain of ``p``; its first two entries are ``p``
    and ``p'``.  The start is the Laguerre-Samuelson bound
    ``mean - sqrt(n-1) * std`` of the roots, from the top three
    coefficients.  Left of the smallest root of a real-rooted ``p``,
    Newton climbs monotonically towards it, and
    ``root - x <= n * (-p(x)/p'(x))`` (the lower barrier), so the loop
    stops once that bound is at most ``eps/4``, or at a step to the left,
    which means ``x`` is not left of the smallest root (or ``p`` is not
    real-rooted).  Plain Horner's rounding error caps how close that loop
    gets to a root with close neighbours, so two last steps take ``p(x)``
    from :func:`_compensated_value`; every step takes ``p'(x)`` from plain
    Horner.  Nothing here is trusted: the result is a finite guess inside
    ``(lo, hi)`` that :func:`smallest_root` certifies or discards.
    """
    c, dp = chain.chain[0], chain.chain[1]
    n = len(c) - 1
    mean = -c[n - 1] / (n * c[n])
    spread = 0.0
    if n >= 2:
        sum_sq = (c[n - 1] / c[n]) ** 2 - 2.0 * c[n - 2] / c[n]
        spread = math.sqrt(max((n - 1) * (sum_sq / n - mean * mean), 0.0))
    x = mean - spread
    if not lo < x < hi:
        x = lo
    for _ in range(_NEWTON_MAX_STEPS):
        slope = _horner(dp, x)
        step = -_horner(c, x) / slope if slope else 0.0
        if n * step <= 0.25 * eps or not lo < x + step < hi:
            break
        x += step
    for _ in range(_COMPENSATED_STEPS):
        slope = _horner(dp, x)
        corrected = x - _compensated_value(c, x) / slope if slope else x
        if not lo < corrected < hi:
            break
        x = corrected
    return x


def smallest_root(p: Polynomial, eps: float) -> float:
    """Smallest real root of ``p`` within ``eps``: the midpoint of a checked bracket.

    Checks, in order: ``eps`` must be greater than zero (a NaN is not),
    else :class:`InvalidInput`.  From the Cauchy bracket ``[lo, hi]``,
    which has no root at or below ``lo``, Newton's method from the left
    (:func:`_newton_from_left`) proposes a root ``x``.  Then ``hi`` moves
    down to ``x + eps/4`` if the compensated values of ``p`` at
    ``x -/+ eps/4`` differ in sign; only if they do not is the Sturm
    count at ``hi`` taken, and a zero count raises :class:`NotRealRooted`.
    Last, ``lo`` moves up to ``x - eps/4`` if the Sturm count there is
    zero.  A certificate that does not hold, or an ``eps`` wider than the
    bracket, leaves the Cauchy end in place.  Bisection on the Sturm
    count then halves whatever is left, until the bracket is at most
    ``eps`` wide or its midpoint is no longer a float strictly inside it;
    so an ``eps`` below the float spacing at the root gives the root at
    float resolution instead of looping forever.

    Accuracy contract: the result is the midpoint of a bracket at most
    ``eps`` wide that holds the smallest root, so it is within ``eps/2``
    of that root, as far as the float Sturm counts and compensated signs
    are right.  Near a multiple root they are not: within about 1e-8 of
    the double root of ``(x-1)^2 (x-2)`` the value of ``p`` is below its
    rounding error, and an ``eps`` of 1e-9 gives ``1 - 7.6e-9``.

    The caller is responsible for real-rootedness; a polynomial with no
    real root in the Cauchy bracket raises :class:`NotRealRooted`.
    """
    if not eps > 0.0:
        raise InvalidInput(f"eps must be > 0, got {eps}")
    if p.degree < 1:
        raise NotRealRooted("polynomial has no roots")
    chain = sturm_chain(p)
    radius = _cauchy_radius(p)
    lo, hi = -1.0 - radius, 1.0 + radius
    x = _newton_from_left(chain, lo, hi, eps)
    below, above = x - 0.25 * eps, x + 0.25 * eps
    # The certificates only narrow the bracket: an eps wider than it
    # leaves the Cauchy ends in place.  A sign change proves a root, so
    # only without one does hi need a Sturm count.  A zero counts as a sign
    # change; a product of the two values could underflow to a false zero.
    at_below = at_above = 1.0
    if above < hi:
        at_below, at_above = (_compensated_value(p.coeffs, v) for v in (below, above))
    if at_below <= 0.0 <= at_above or at_above <= 0.0 <= at_below:
        hi = above
    elif count_roots_leq(chain, hi) == 0:
        raise NotRealRooted(f"no real root found in [-{1 + radius}, {1 + radius}]")
    if lo < below and count_roots_leq(chain, below) == 0:
        lo = below
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
    return _real_count_with_multiplicity(p) == p.degree


def _real_count_with_multiplicity(p: Polynomial) -> int:
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)
    radius = _cauchy_radius(p)
    distinct = count_roots_leq(chain, 1.0 + radius)
    gcd = chain.chain[-1]  # of p and p': a constant unless p has a multiple root
    return distinct + _real_count_with_multiplicity(monic(Polynomial(gcd)))
