"""Dense univariate real polynomials, Sturm chains, and smallest-root isolation.

Coefficients are stored ascending by degree, as plain tuples: one in a
:class:`Polynomial`, one per entry of a Sturm chain, which is a plain
tuple of them.  The polynomials handled here have the row count ``n`` as
degree (the expected-polynomial transform never raises it), so plain
tuples and Horner evaluation are both the simplest and the fastest
option.
Tolerances are calibrated for float64; near-multiple roots are absorbed
into gcd layers rather than resolved exactly.

:func:`smallest_root` finds a root ``x`` by Laguerre's method from the
left, each step one Horner pass for ``p``, ``p'`` and ``p''``, and
certifies its bracket with one sign rule at each end: a value of a
polynomial at ``t`` times its sign at ``-inf``, from plain Horner where
the value clears a running error bound and compensated otherwise, is
positive on the ``-inf`` side of its roots.  "A root at or below
x + eps/4": that value of ``p`` is negative there.  "No root at or below
x - eps/4": that value is positive there for every one of ``p, p', ...,
p^(n)``, which is a zero Budan-Fourier count; only where it is not does
the Sturm chain (:func:`count_roots_leq`) decide.  Bisection on the
Sturm count covers whatever the tests leave open.

The greedy loop needs only the row whose smallest root is the largest.
Two helpers work on a ``(C, n+1)`` array of coefficient rows at once:
:func:`_laguerre_guesses` takes one Laguerre step on every row from one
point ``y0``, the parent's score less ``eps``, which picks the row to
certify first; and :func:`_roots_at_or_below` is the upper end's sign
test, row by row at one point, which drops every row with a root at or
below it.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
# Laguerre from the left converges cubically to a simple smallest root and
# linearly to a cluster of nearly equal ones; where that is too slow,
# bisection takes over.
_LAGUERRE_MAX_STEPS = 64
# 4 u, with u = 2**-53: a plain Horner value of a degree-n polynomial
# whose magnitude exceeds 4 (n+1) u sum |c_i| |t|^i has the exact sign.
_HORNER_ERROR = 4.0 * 2.0**-53
# The smallest normal double: below it the rounding bound above fails.
_TINY = sys.float_info.min
# Compensated Newton steps after the Laguerre ones.  From where plain Horner
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
            values = coeffs if type(coeffs) is list else list(coeffs)
            floats = list(map(float, values))
        except (TypeError, RuntimeWarning):  # complex, or not an iterable at all
            floats = None
        # float() keeps only the real part of a NumPy complex scalar and
        # warns (a ComplexWarning, caught above where warnings are errors).
        # A list of floats converts to itself, so only other input is scanned.
        if floats is None or floats != values and any(
            isinstance(v, numbers.Complex) and v.imag for v in values
        ):
            raise InvalidInput(f"coeffs must be an iterable of real numbers, got {coeffs!r}")
        object.__setattr__(self, "coeffs", _finite_stripped(floats))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def _finite_stripped(c: list[float]) -> tuple[float, ...]:
    """``c`` as a tuple without trailing zeros; :class:`InvalidInput` if one is not finite.

    The zeros are popped from the list ``c`` in place.
    """
    if not all(map(math.isfinite, c)):
        raise InvalidInput("polynomial coefficients must be finite")
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _wrap(coeffs: tuple[float, ...]) -> Polynomial:
    """``coeffs`` as a :class:`Polynomial` without conversion or checks.

    Only for a tuple of finite floats whose last entry is nonzero.
    """
    p = object.__new__(Polynomial)
    object.__setattr__(p, "coeffs", coeffs)
    return p


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
    """Monic polynomial with the given roots: the one-row case of
    :func:`_from_roots_rows`, on the roots in ascending ``|root|`` order,
    which keeps cancellation small when they span several magnitudes.

    A complex root gives complex coefficients and a non-finite one a
    non-finite coefficient, and :class:`Polynomial` rejects both with
    :class:`InvalidInput`.  A root that is not a number, such as a string
    or ``None``, raises :class:`InvalidInput` too.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            row = _from_roots_rows(np.array([sorted(roots, key=abs)]))[0]
    except TypeError:  # a root with no abs, or one the expansion cannot multiply
        raise InvalidInput(f"roots must be real numbers, got {roots!r}") from None
    return Polynomial(row.tolist())


def _from_roots_rows(roots: np.ndarray) -> np.ndarray:
    """Row ``i``: the monic polynomial with roots ``roots[i]``, ascending
    coefficients, for the ``(C, n)`` array ``roots``; every root expansion
    in the package runs through here.  Factors are multiplied in column
    order, one array operation per factor over all rows, in
    ``np.result_type(roots, np.float64)``: float64 for real roots.

    The expansion runs on a coefficient-major ``(n + 2, C)`` working array,
    so each factor updates whole contiguous rows of it, and the result is
    that array's transposed view.  Each coefficient still takes the same
    product and difference in the same factor order, so it rounds as it
    would row by row."""
    rows, n = roots.shape
    # row 0 stays zero: the coefficient below the constant one
    c = np.zeros((n + 2, rows), np.result_type(roots, np.float64))
    c[1] = 1.0
    for t in range(n):
        # c <- c * (x - r), one array operation over the t + 2 live
        # coefficients; the right-hand side reads the old values
        c[1 : t + 3] = c[: t + 2] - roots[:, t] * c[1 : t + 3]
    return c[1:].T


def derivative(p: Polynomial, times: int = 1) -> Polynomial:
    """``times``-fold formal derivative; ``times`` is an integer (a bool is not)."""
    if _as_index(times, InvalidInput, "times") < 0:
        raise InvalidInput(f"times must be >= 0, got {times}")
    c = p.coeffs
    for _ in range(min(times, len(c))):
        c = _derivative_step(c)
    return Polynomial(c)


def _derivative_step(c: tuple[float, ...]) -> tuple[float, ...]:
    """The ascending coefficients of the derivative of the polynomial with ascending ``c``."""
    return tuple(map(operator.mul, range(1, len(c)), c[1:]))


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
        rem = _finite_stripped([-v / rem_scale for v in rem])
        chain.append(rem)
        dividend, divisor = divisor, rem
    return tuple(chain)


def count_roots_leq(seq: Sequence[Sequence[float]], x: float) -> int:
    """Sign variations of ``seq`` at ``-inf`` minus at ``x``, zero entries dropped.

    ``seq`` is a tuple of ascending coefficient tuples, each with a
    nonzero leading coefficient, so its sign at ``-inf`` is that of
    ``lead * (-1)^degree``; each value at ``x`` is plain Horner's, and a
    non-finite ``x`` raises :class:`InvalidInput`.  For a Sturm chain the
    result is the exact number of distinct real roots at or below ``x``,
    as far as the float signs are right.  For the Fourier sequence
    ``p, p', ..., p^(n)`` it is, by the Budan-Fourier theorem, an upper
    bound on the real roots at or below ``x`` counted with multiplicity;
    :func:`smallest_root` does not count on that sequence, but asks only
    whether the count is zero, one sign at a time
    (:func:`_left_of_every_root`).

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


def _laguerre_from_left(c: Sequence[float], lo: float, hi: float, eps: float) -> float:
    """Laguerre steps from a lower bound on the roots, for the smallest root.

    ``c`` holds the ascending coefficients of ``p``.  The start is the
    Laguerre-Samuelson bound ``mean - sqrt(n-1) * std`` of the roots, from
    the top three coefficients.  Each step takes ``p``, ``p'`` and
    ``p''/2`` at ``x`` from one Horner pass.  With ``G = p'/p`` and
    ``H = G^2 - p''/p``, the discriminant ``(n-1)(n H - G^2)`` is at least
    zero wherever ``p`` is real-rooted (Cauchy-Schwarz over the roots), and
    the step is ``-n / (G - sqrt(disc))``; left of the smallest root of a
    real-rooted ``p`` it climbs monotonically and converges cubically.
    Where the discriminant is negative (``p`` is not real-rooted) the step
    is Newton's ``-1/G``.  The loop stops once the lower barrier
    ``root - x <= -n/G`` is at most ``eps/4``, at a zero ``p``, ``p'`` or
    ``G``, or at a step that leaves ``(lo, hi)``.  Nothing here is
    trusted: the result is a finite guess inside ``(lo, hi)`` that
    :func:`smallest_root` certifies, after :func:`_polished` where it must
    certify both ends, or discards.
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
    for _ in range(_LAGUERRE_MAX_STEPS):
        value = slope = half_curve = 0.0
        for coeff in reversed(c):
            half_curve = half_curve * x + slope
            slope = slope * x + value
            value = value * x + coeff
        if not value or not slope:
            break
        g = slope / value
        if not g or -n / g <= 0.25 * eps:
            break
        disc = (n - 1) * (n * (g * g - 2.0 * half_curve / value) - g * g)
        step = -n / (g - math.sqrt(disc)) if disc >= 0.0 else -1.0 / g
        if not lo < x + step < hi:
            break
        x += step
    return x


def _polished(c: Sequence[float], dp: Sequence[float], x: float, lo: float, hi: float) -> float:
    """``x`` after the last Newton steps, which take ``p(x)`` from :func:`_compensated_value`.

    Plain Horner's rounding error caps how close :func:`_laguerre_from_left`
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


def _side(c: Sequence[float], t: float) -> float:
    """The polynomial with ascending ``c`` at ``t``, times its sign at ``-inf``.

    That sign is the one of ``lead * (-1)^n``, and a product with +-1 is
    exact, so the result is positive on the ``-inf`` side of every root
    and a negative one shows a root at or below ``t``; a zero is no sign.
    One pass takes plain Horner's value and ``mu = sum |c_i| |t|^i``; the
    plain value is kept when ``|value| > 4 (n+1) u mu``, with ``u = 2^-53``,
    which bounds Horner's rounding error (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 5.1) with room to spare, so its sign is
    exact.  Where ``mu`` or the lead is below the normal range, so that
    underflow can break that bound, or the value does not clear it, the
    value is compensated (:func:`_compensated_value`).  A coefficient that
    is not finite makes ``mu`` infinite or NaN, so the value is
    compensated, and compensated Horner turns an infinite partial value
    into NaN: the result is NaN, neither positive nor negative.
    """
    value = mu = 0.0
    size = abs(t)
    for coeff in reversed(c):
        value = value * t + coeff
        mu = mu * size + abs(coeff)
    if not (abs(value) > _HORNER_ERROR * len(c) * mu and mu >= _TINY and abs(c[-1]) >= _TINY):
        value = _compensated_value(c, t)
    return value if (c[-1] > 0.0) == (len(c) % 2 == 1) else -value


def _left_of_every_root(c: tuple[float, ...], dp: tuple[float, ...], t: float) -> bool:
    """True if each of ``p, p', ..., p^(n)`` is strictly on its ``-inf``
    side at ``t`` by :func:`_side`; ``c`` and ``dp`` are the ascending
    coefficients of ``p`` and ``p'``.

    The leads of this Fourier sequence share a sign and each degree drops
    by one, so it has ``n`` sign variations at ``-inf``.  Its Budan-Fourier
    count at ``t``, the variations lost, is zero exactly when every
    ``p^(r)(t)`` is nonzero with the sign ``sign(lead) (-1)^(n-r)`` it has
    at ``-inf``.  The count bounds the real roots at or below ``t``,
    counted with multiplicity, from above for any real ``p``, so True
    proves that there is none; it is zero when ``p`` is real-rooted with
    no root at or below ``t``, but a complex pair can keep it above zero.
    The higher derivatives come from ``dp`` one :func:`_derivative_step` at
    a time, and the test stops with False at the first that is not on its
    ``-inf`` side.  One with a coefficient that overflowed fails there:
    its :func:`_side` is NaN.
    """
    if not _side(c, t) > 0.0:
        return False
    while dp:
        if not _side(dp, t) > 0.0:
            return False
        dp = _derivative_step(dp)
    return True


def _roots_at_or_below(rows: np.ndarray, t: float) -> np.ndarray:
    """``_side(row, t) < 0`` for each row of ``rows``, a ``(C, n+1)``
    array of ascending coefficients, as a boolean array: True shows a
    root at or below ``t`` (:func:`_side`).

    A row's value is ``rows @ t_pow`` and its ``mu`` is ``|rows| @ |t_pow|``,
    with ``t_pow`` the powers of ``t``, each one the previous times ``t``
    in Python floats, the products ``np.multiply.accumulate`` takes, in
    the same order.  Each term ``c_i t^i``
    carries at most ``i - 1`` roundings from its power, one from its
    product and ``n`` from the summation, in any order, with or without
    FMA: at most ``2n``, so the error is at most ``gamma_2n sum |c_i| |t|^i``
    (Higham, 3.1), Horner's bound (5.1), and the scalar test's threshold
    ``4 (n+1) u mu`` on the computed ``mu`` covers it.  The bound leaves
    out underflow.  So, as in the scalar test, a row whose ``mu`` or lead
    is below the normal range is compensated, and so is every row once a
    power of a nonzero ``t`` falls below it.
    """
    n = rows.shape[1] - 1
    powers = [1.0]
    for _ in range(n):
        powers.append(powers[-1] * t)
    t_pow = np.array(powers)
    value = rows @ t_pow
    mu = np.abs(rows) @ np.abs(t_pow)
    lead = rows[:, n]
    trusted = (np.abs(value) > _HORNER_ERROR * (n + 1) * mu) & (mu >= _TINY) & (
        np.abs(lead) >= _TINY
    )
    if not (t == 0.0 or abs(powers[n]) >= _TINY):
        trusted[:] = False
    if not trusted.all():
        for i in np.flatnonzero(~trusted).tolist():
            value[i] = _compensated_value(rows[i].tolist(), t)
    # the sign at -inf is lead's times (-1)^n, and a product with +-1 is exact
    return value * (np.sign(lead) * (-1.0) ** n) < 0.0


def _laguerre_guesses(rows: np.ndarray, y0: float) -> np.ndarray:
    """A guess at the smallest root of each row of ``rows``, a ``(C, n+1)``
    array of ascending coefficients with ``n >= 1`` and a nonzero last
    column, from one Laguerre step (:func:`_laguerre_from_left`'s) at the
    one point ``y0``, or ``-inf``.

    ``p``, ``p'`` and ``p''/2`` of every row at ``y0`` come from one
    product of ``rows`` with the ``(n+1, 3)`` matrix of
    ``C(i, r) y0^(i-r)``.  Left of the roots of a real-rooted row,
    ``p(y0)`` has the sign at ``-inf`` and the step climbs to at most the
    smallest root; at ``n = 1`` it is Newton's step, which lands on the
    root.  A row whose value at ``y0`` shows a root at or below ``y0``,
    or whose step is not finite or not positive, guesses ``-inf``, and so
    does every row at a ``y0`` that is not finite.  A guess is never NaN.
    Nothing here is certified: the guesses only choose which row
    :func:`smallest_root` certifies first.
    """
    n = rows.shape[1] - 1
    with np.errstate(all="ignore"):
        # rows C(i, r) y0^(i-r) for r = 0, 1, 2, each from the row above, and
        # times (-1)^n, so that a value left of the roots has the lead's sign
        taylor = [(-1.0) ** n, 0.0, 0.0]
        for _ in range(n):
            v, s, h = taylor[-3:]
            taylor += (v * y0, s * y0 + v, h * y0 + s)
        value, slope, half_curve = (rows @ np.array(taylor).reshape(n + 1, 3)).T
        g = slope / value
        disc = g * g * (n - 1) ** 2 - half_curve / value * (2 * n * (n - 1))
        step = n / (np.sqrt(disc) - g)
        ok = (value * rows[:, n] > 0.0) & (step > 0.0) & (step < math.inf)
        guesses = y0 + step
        guesses[~ok] = -math.inf
        return guesses


def smallest_root(p: Polynomial, eps: float) -> float:
    """Smallest real root of ``p`` within ``eps``.

    Checks, in order: ``eps`` must be a real number (a bool is not)
    greater than zero, else :class:`InvalidInput`; ``p'`` must have
    finite coefficients, else :class:`InvalidInput`, as the Sturm chain's
    does, and so must the Cauchy bound ``1 + radius`` on the roots.  From
    the Cauchy bracket ``[lo, hi]``, with no root at or below ``lo``,
    Laguerre steps from the left (:func:`_laguerre_from_left`) propose a
    root ``x``, and two compensated Newton steps (:func:`_polished`) move
    it.  Both ends then take one sign rule, :func:`_side`: the value at a
    point times the sign at ``-inf``, from plain Horner where the value
    clears a running error bound and compensated Horner otherwise, is
    positive on the ``-inf`` side of the roots.  ``hi`` moves down to
    ``x + eps/4`` if that value of ``p`` is negative there, which shows
    a root at or below it; otherwise the Sturm chain is built, and a
    zero Sturm count at ``hi`` raises :class:`NotRealRooted`.  ``lo``
    moves up to ``x - eps/4`` if that value is positive there for each
    of ``p, p', ..., p^(n)`` (:func:`_left_of_every_root`): a zero
    Budan-Fourier count, which shows no root at or below it.  Where one
    is not, for a complex pair, a sign that does not clear its bound or
    a derivative that overflows, a zero Sturm count
    (:func:`count_roots_leq`) at ``x - eps/4`` moves ``lo`` instead.  So
    a root that passes both tests costs two compensated evaluations and
    ``n + 2`` signs, and more evaluations where a sign is not trusted.
    A test that fails, or an ``eps`` wider than the bracket, leaves the
    Cauchy end in place.  Bisection on the Sturm count then halves
    whatever is left, until the bracket is at most ``eps`` wide or its
    midpoint is no longer a float strictly inside it; so an ``eps`` below
    the float spacing at the root gives the root at float resolution
    instead of looping forever.

    Accuracy contract: the result is the midpoint of a bracket at most
    ``eps`` wide that holds the smallest root, so it is within ``eps/2``
    of that root, as far as the float counts and the signs are right.
    Near a multiple root they are not: within about 1e-8 of the double
    root of ``(x-1)^2 (x-2)`` the value of ``p`` is below its rounding
    error, and an ``eps`` of 1e-9 gives ``1 - 7.6e-9``.

    The caller is responsible for real-rootedness; a polynomial with no
    real root in the Cauchy bracket raises :class:`NotRealRooted`.
    """
    _check_real("eps", eps)
    if not eps > 0.0:
        raise InvalidInput(f"eps must be > 0, got {eps}")
    if p.degree < 1:
        raise NotRealRooted("polynomial has no roots")
    c = p.coeffs
    dp = _derivative_step(c)
    if not all(map(math.isfinite, dp)):
        raise InvalidInput("polynomial coefficients must be finite")
    radius = _cauchy_radius(p)
    if not math.isfinite(radius):
        raise InvalidInput("the Cauchy bound on the roots overflows")
    lo, hi = -1.0 - radius, 1.0 + radius
    x = _polished(c, dp, _laguerre_from_left(c, lo, hi, eps), lo, hi)
    below, above = x - 0.25 * eps, x + 0.25 * eps
    # The certificates only narrow the bracket: an eps wider than it
    # leaves the Cauchy ends in place.  A nonzero Budan-Fourier count is
    # only an upper bound, so the Sturm count has the last word on lo.
    chain = None
    if above < hi and _side(c, above) < 0.0:
        hi = above
    else:
        chain = sturm_chain(p)
        if count_roots_leq(chain, hi) == 0:
            raise NotRealRooted(f"no real root found in [-{1 + radius}, {1 + radius}]")
    if lo < below:
        if _left_of_every_root(c, dp, below):
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
