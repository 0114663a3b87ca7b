"""Dense univariate real polynomials, Sturm chains, and smallest-root isolation.

Coefficients are stored ascending by degree, as plain tuples: one in a
:class:`Polynomial`, one per entry of a counting sequence (a Sturm chain
or a Fourier sequence), which is a plain tuple of them.  The
polynomials handled here have the row count ``n`` as degree (the
expected-polynomial transform never raises it), so plain tuples and
Horner evaluation are both the simplest and the fastest option.
Tolerances are calibrated for float64; near-multiple roots are absorbed
into gcd layers rather than resolved exactly.

:func:`smallest_root` finds a root ``x`` by Newton's method from the
left on ``p`` and ``p'`` and certifies its bracket with two one-sided
tests.  "A root at or below x + eps/4": one compensated sign of ``p``
there, opposite to its sign at ``-inf``; every root gets this test.
"No root at or below x - eps/4": a zero count (:func:`count_roots_leq`)
there on the Fourier sequence ``p, p', ..., p^(n)``, and on the Sturm
chain only where that count fails; only a root that can beat the given
incumbent gets this test.  Bisection on the Sturm count covers whatever
the tests leave open.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput, NotRealRooted
from .linalg import _as_index

__all__ = [
    "Polynomial",
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
        try:
            stripped = _finite_stripped(coeffs)
        except TypeError:  # a complex number, or not an iterable at all
            raise InvalidInput(
                f"coeffs must be an iterable of real numbers, got {coeffs!r}"
            ) from None
        object.__setattr__(self, "coeffs", stripped)

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
    """``times``-fold formal derivative; ``times`` is an integer (a bool is not)."""
    if _as_index(times, InvalidInput, "times") < 0:
        raise InvalidInput(f"times must be >= 0, got {times}")
    c = list(p.coeffs)
    for _ in range(times):
        c = [i * c[i] for i in range(1, len(c))]
        if not c:
            break
    return Polynomial(c)


def sturm_chain(p: Polynomial) -> tuple[tuple[float, ...], ...]:
    """The (generalized) Sturm chain of ``p``, for :func:`count_roots_leq`.

    A tuple of stripped ascending coefficient tuples of decreasing degree:
    ``p``, ``p'``, then negated remainders, rescaled to unit max
    coefficient (a positive scaling, invisible to sign-variation counts).
    The chain stops early at the gcd of ``p`` and ``p'`` when a remainder
    vanishes to tolerance, which keeps counting correct near multiple
    roots.  A nonzero ``p`` is required, and a remainder that overflows
    raises :class:`InvalidInput`.
    """
    if p.is_zero:
        raise InvalidInput("sturm_chain requires a nonzero polynomial")
    if p.degree == 0:
        return (p.coeffs,)
    dividend, divisor = p.coeffs, derivative(p, 1).coeffs
    chain = [dividend, divisor]
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
        chain.append(rem)
        dividend, divisor = divisor, rem
    return tuple(chain)


def count_roots_leq(seq: Sequence[Sequence[float]], x: float) -> int:
    """Sign variations of ``seq`` at ``-inf`` minus at ``x``, zero entries dropped.

    ``seq`` is a tuple of ascending coefficient tuples, each with a
    nonzero leading coefficient, so its sign at ``-inf`` is that of
    ``lead * (-1)^degree``; a non-finite ``x`` raises
    :class:`InvalidInput`.  For a Sturm chain the result is the exact
    number of distinct real roots at or below ``x``.  For the Fourier
    sequence ``p, p', ..., p^(n)`` it is, by the Budan-Fourier theorem,
    an upper bound on the real roots at or below ``x`` counted with
    multiplicity, for any real ``p``; it is exact (zero) when ``p`` is
    real-rooted with no root at or below ``x``.  Either way a count of
    zero proves that there is no root at or below ``x``.

    Only an exact 0.0 is a zero entry: snapping small values to zero
    biases the bisection by up to (snap threshold)/|p'| near a root, far
    worse than sign noise in the float ambiguity region of the
    evaluation.
    """
    if not math.isfinite(x):
        raise InvalidInput(f"count_roots_leq needs a finite point, got {x!r}")
    count = 0
    prev_left = prev = None
    for coeffs in seq:
        left = (coeffs[-1] > 0.0) != (len(coeffs) % 2 == 0)
        if prev_left is not None and left != prev_left:
            count += 1
        prev_left = left
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


def _fourier_sequence(
    c: tuple[float, ...], dp: tuple[float, ...]
) -> tuple[tuple[float, ...], ...] | None:
    """The Fourier sequence ``p, p', ..., p^(n)``, from the ascending ``c`` and ``dp`` of p, p'.

    Each higher derivative is computed as :func:`derivative` computes it.
    Where one of them overflows this is ``None``: a coefficient that
    overflows to infinity stays infinite through the later derivatives
    down to the constant term of one of them, so the constant terms tell
    (a sum of them that overflows also reads as not finite, which only
    costs a Sturm fallback).
    """
    seq = [c, dp]
    while len(dp) > 1:
        dp = tuple(map(operator.mul, range(1, len(dp)), dp[1:]))
        seq.append(dp)
    if not math.isfinite(sum(d[0] for d in seq)):
        return None
    return tuple(seq)


def _newton_from_left(c: Sequence[float], dp: Sequence[float], lo: float, hi: float,
                      eps: float) -> float:
    """Plain Newton steps from a lower bound on the roots, for the smallest root.

    ``c`` and ``dp`` are the ascending coefficients of ``p`` and ``p'``.
    The start is the Laguerre-Samuelson bound ``mean - sqrt(n-1) * std``
    of the roots, from the top three coefficients.  Left of the smallest
    root of a real-rooted ``p``, Newton climbs monotonically towards it,
    and ``root - x <= n * (-p(x)/p'(x))`` (the lower barrier), so the
    loop stops once that bound is at most ``eps/4``, or at a step to the
    left, which means ``x`` is not left of the smallest root (or ``p`` is
    not real-rooted).  Nothing here is trusted: the result is a finite
    guess inside ``(lo, hi)`` that :func:`smallest_root` certifies, after
    :func:`_polished` where it must certify both ends, or discards.
    """
    n = len(c) - 1
    mean = -c[n - 1] / (n * c[n])
    spread = 0.0
    if n >= 2:
        # q * q, not q ** 2, which raises on overflow: an inf start falls back to lo
        q = c[n - 1] / c[n]
        sum_sq = q * q - 2.0 * c[n - 2] / c[n]
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
    return x


def _polished(c: Sequence[float], dp: Sequence[float], x: float, lo: float, hi: float) -> float:
    """``x`` after the last Newton steps, which take ``p(x)`` from :func:`_compensated_value`.

    Plain Horner's rounding error caps how close :func:`_newton_from_left`
    gets to a root with close neighbours; every step here still takes
    ``p'(x)`` from plain Horner, and a step that leaves ``(lo, hi)`` ends
    the polish.
    """
    for _ in range(_COMPENSATED_STEPS):
        slope = _horner(dp, x)
        corrected = x - _compensated_value(c, x) / slope if slope else x
        if not lo < corrected < hi:
            break
        x = corrected
    return x


def _check_real(name: str, value: object) -> None:
    """:class:`InvalidInput` naming ``name`` unless ``value`` is a real number other than NaN.

    A float, the type of every value the greedy loop passes, skips the
    slower abstract-class check.
    """
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or value != value:
        raise InvalidInput(f"{name} must be a real number other than NaN, got {value!r}")


def _root_at_or_below(c: Sequence[float], t: float) -> bool:
    """True if ``p`` (ascending ``c``) at ``t`` has the sign opposite to its sign at ``-inf``.

    That sign is the one of ``lead * (-1)^n``.  The value is compensated,
    and a zero is no sign, so True proves a root at or below ``t``.
    """
    value = _compensated_value(c, t)
    return value > 0.0 if (c[-1] > 0.0) == (len(c) % 2 == 0) else value < 0.0


def smallest_root(p: Polynomial, eps: float, incumbent: float = -math.inf) -> float:
    """Smallest real root of ``p`` within ``eps``, unless it cannot beat ``incumbent``.

    Checks, in order: ``eps`` must be a real number (a bool is not)
    greater than zero, and ``incumbent`` a real number other than NaN,
    else :class:`InvalidInput` naming the argument; ``p'`` must have
    finite coefficients, else :class:`InvalidInput`, as the Sturm chain's
    does, and so must the Cauchy bound ``1 + radius`` on the roots.  From
    the Cauchy bracket ``[lo, hi]``, with no root at or below ``lo``,
    plain Newton steps from the left (:func:`_newton_from_left`) propose
    a root ``x``.

    *A root that cannot win.*  If the midpoint of ``[x - eps/4, x + eps/4]``
    is below ``incumbent - eps`` and :func:`_root_at_or_below` shows a
    root at or below ``x + eps/4``, that midpoint is the result at once,
    certified only from above: the polish and the counts are skipped.

    *Every other root* is certified in full.  Two compensated Newton
    steps (:func:`_polished`) move ``x``.  ``hi`` moves down to
    ``x + eps/4`` if there is a root at or below it; otherwise the Sturm
    chain is built, and a zero Sturm count at ``hi`` raises
    :class:`NotRealRooted`.  ``lo`` moves up to ``x - eps/4`` if a zero
    :func:`count_roots_leq` there shows no root at or below it, on the
    Fourier sequence ``p, p', ..., p^(n)`` or, where that count is not
    zero or a derivative overflows, on the Sturm chain.  So a root that
    passes both tests costs three compensated evaluations and one count.
    A test that fails, or an ``eps`` wider than the bracket, leaves the
    Cauchy end in place.  Bisection on the Sturm count then halves
    whatever is left, until the bracket is at most ``eps`` wide or its
    midpoint is no longer a float strictly inside it; so an ``eps`` below
    the float spacing at the root gives the root at float resolution
    instead of looping forever.

    Accuracy contract: with the default ``incumbent = -inf`` the result
    is the midpoint of a bracket at most ``eps`` wide that holds the
    smallest root, so it is within ``eps/2`` of that root, as far as the
    float counts and compensated signs are right.  Near a multiple root
    they are not: within about 1e-8 of the double root of
    ``(x-1)^2 (x-2)`` the value of ``p`` is below its rounding error, and
    an ``eps`` of 1e-9 gives ``1 - 7.6e-9``.  With a finite ``incumbent``
    the outcome is either the one without it, or an early exit: a result
    below ``incumbent - eps`` with the smallest root at most about
    ``eps/4`` above it, which under the contract above would not have
    come out above ``incumbent`` either.  So a caller that keeps only
    results strictly above its running best, and passes that best as
    ``incumbent``, keeps the same results as with no incumbent.

    The caller is responsible for real-rootedness; a polynomial with no
    real root in the Cauchy bracket raises :class:`NotRealRooted`.
    """
    _check_real("eps", eps)
    if not eps > 0.0:
        raise InvalidInput(f"eps must be > 0, got {eps}")
    _check_real("incumbent", incumbent)
    if p.degree < 1:
        raise NotRealRooted("polynomial has no roots")
    c = p.coeffs
    dp = tuple(map(operator.mul, range(1, len(c)), c[1:]))
    if not all(map(math.isfinite, dp)):
        raise InvalidInput("polynomial coefficients must be finite")
    radius = _cauchy_radius(p)
    if not math.isfinite(radius):
        raise InvalidInput("the Cauchy bound on the roots overflows")
    lo, hi = -1.0 - radius, 1.0 + radius
    x = _newton_from_left(c, dp, lo, hi, eps)
    above = x + 0.25 * eps
    early = 0.5 * ((x - 0.25 * eps) + above)
    if early < incumbent - eps and _root_at_or_below(c, above):
        return early
    x = _polished(c, dp, x, lo, hi)
    below, above = x - 0.25 * eps, x + 0.25 * eps
    # The certificates only narrow the bracket: an eps wider than it
    # leaves the Cauchy ends in place.  A nonzero Budan-Fourier count is
    # only an upper bound, so the Sturm count has the last word on lo.
    chain = None
    if above < hi and _root_at_or_below(c, above):
        hi = above
    else:
        chain = sturm_chain(p)
        if count_roots_leq(chain, hi) == 0:
            raise NotRealRooted(f"no real root found in [-{1 + radius}, {1 + radius}]")
    if lo < below:
        fourier = _fourier_sequence(c, dp)
        if fourier is not None and count_roots_leq(fourier, below) == 0:
            lo = below
        else:
            chain = chain or sturm_chain(p)
            if count_roots_leq(chain, below) == 0:
                lo = below
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        chain = chain or sturm_chain(p)
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
    gcd = chain[-1]  # of p and p': a constant unless p has a multiple root
    return distinct + _real_count_with_multiplicity(monic(Polynomial(gcd)))
