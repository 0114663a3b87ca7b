"""Independent cross-check machinery: enumeration (one stacked SVD per batch
of up to 256 subsets), barriers, companion roots, and the monomial-basis
expected-polynomial pipeline.

Nothing here shares a code path with the root search, the y-basis transform,
the greedy loop or the selector's subset norms, which is the point: these
are the oracles the test suite uses to falsify the production code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import DeflationFailure, InvalidInput, TooLarge
# pseudoinverse is unused; the benchmark harness's tracer test wraps colsel.oracle.pseudoinverse
from .linalg import DEFAULT_RANK_TOL, columns, pseudoinverse  # noqa: F401
from .poly import Polynomial, derivative, evaluate, monic
from .selector import SelectionProblem

__all__ = [
    "EnumerationResult",
    "brute_force",
    "barrier",
    "barrier_descent_check",
    "companion_smallest_root",
    "interlacing_check",
    "mul_shifted_power",
    "deflate_shifted_power",
    "shifted_pipeline",
]

ENUMERATION_GUARD = 10**6
# subsets per stacked SVD: enough to amortise the LAPACK call, small enough to keep memory flat
ENUMERATION_BATCH = 256
DEFLATION_REM_TOL = 1e-8


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive evaluation of all size-k subsets, one stacked SVD per batch
    of up to 256 subsets.

    ``all_values`` maps each subset (sorted tuple) to ``(frob_sq,
    spec_sq)``, the squared pseudoinverse norms of ``[a b_S]``;
    rank-deficient subsets, and full-rank ones whose norms overflow, get
    infinite norms so the map stays total.  Ties go to the first subset in
    ``combinations`` order.
    """

    best_subset_frob: tuple[int, ...]
    best_subset_spec: tuple[int, ...]
    best_frob_sq: float
    best_spec_sq: float
    all_values: dict[tuple[int, ...], tuple[float, float]]


def brute_force(prob: SelectionProblem) -> EnumerationResult:
    """Exact optimum over all ``C(m, k)`` subsets for both norms.

    It takes one stacked ``np.linalg.svd`` per batch of up to
    ``ENUMERATION_BATCH`` (256) subsets' ``[a b_S]``.  A subset is full rank
    when ``sigma_min > DEFAULT_RANK_TOL * sigma_max``; for those it forms
    ``[a b_S]^+ = V diag(1/sigma) U^T``: ``|.^+|_F^2`` sums its squared
    entries and ``|.^+|_2^2 = 1/sigma_min^2`` (clamped to the Frobenius
    value).  Neither goes through the selector's norm helper or
    :func:`~colsel.linalg.thin_svd`.
    """
    count = math.comb(prob.m, prob.k)
    if count > ENUMERATION_GUARD:
        raise TooLarge(
            f"C({prob.m}, {prob.k}) = {count} exceeds the {ENUMERATION_GUARD} subset guard"
        )
    ell = prob.a.cols
    all_values: dict[tuple[int, ...], tuple[float, float]] = {}
    best_frob = (math.inf, ())
    best_spec = (math.inf, ())
    subsets = combinations(range(prob.m), prob.k)
    while batch := list(islice(subsets, ENUMERATION_BATCH)):
        stack = np.empty((len(batch), prob.a.rows, ell + prob.k))
        stack[:, :, :ell] = prob.a.data
        for i, subset in enumerate(batch):
            stack[i, :, ell:] = columns(prob.b, subset).data
        u, s, vt = np.linalg.svd(stack, full_matrices=False)  # n values: l + k >= n
        sigma_min_sq = s[:, -1] ** 2
        # sigma_min^2 = 0 (underflow) means both norms overflow
        feasible = (s[:, -1] > DEFAULT_RANK_TOL * s[:, 0]) & (sigma_min_sq > 0.0)
        # V diag(1/sigma) U^T for the feasible rows only, so nothing divides by a zero sigma
        v_over_s = vt[feasible].transpose(0, 2, 1) / s[feasible, None, :]
        pinv = v_over_s @ u[feasible].transpose(0, 2, 1)
        frob_sq = np.full(len(batch), math.inf)
        with np.errstate(over="ignore"):
            frob_sq[feasible] = np.sum(pinv * pinv, axis=(1, 2))
        spec_sq = np.full(len(batch), math.inf)
        feasible &= frob_sq < math.inf
        spec_sq[feasible] = np.minimum(1.0 / sigma_min_sq[feasible], frob_sq[feasible])
        all_values.update(zip(batch, zip(frob_sq.tolist(), spec_sq.tolist())))
        # argmin takes the first minimum; a strict < keeps an earlier batch's tie
        i, j = int(np.argmin(frob_sq)), int(np.argmin(spec_sq))
        if frob_sq[i] < best_frob[0]:
            best_frob = (float(frob_sq[i]), batch[i])
        if spec_sq[j] < best_spec[0]:
            best_spec = (float(spec_sq[j]), batch[j])
    return EnumerationResult(
        best_subset_frob=best_frob[1],
        best_subset_spec=best_spec[1],
        best_frob_sq=best_frob[0],
        best_spec_sq=best_spec[0],
        all_values=all_values,
    )


def companion_smallest_root(p: Polynomial) -> float:
    """Smallest root via companion-matrix eigenvalues (LAPACK balances).

    Independent oracle for :func:`~colsel.poly.smallest_root`; the caller guarantees
    real-rootedness, so the minimum of the real parts is the answer.
    """
    if p.degree < 1:
        raise InvalidInput("companion_smallest_root requires degree >= 1")
    return float(_all_roots(p)[0])


def _all_roots(p: Polynomial) -> np.ndarray:
    c = monic(p).coeffs
    return np.sort(np.roots(list(reversed(c))).real)


def barrier(p: Polynomial, x: float) -> float:
    """Lower barrier ``-p'(x)/p(x)``, the sum of ``1/(root - x)``.

    Requires ``x`` strictly below the smallest root; a constant
    polynomial has an empty root set and barrier zero.
    """
    if p.is_zero:
        raise InvalidInput("barrier of the zero polynomial is undefined")
    if p.degree == 0:
        return 0.0
    lam_min = companion_smallest_root(p)
    if x >= lam_min - 1e-12:
        raise InvalidInput(
            f"barrier requires x strictly below the smallest root; "
            f"x = {x}, smallest root = {lam_min}"
        )
    return -evaluate(derivative(p, 1), x) / evaluate(p, x)


def barrier_descent_check(p: Polynomial, b: float, delta: float) -> bool:
    """Check the one-step barrier descent: the derivative's barrier at
    ``b + delta`` does not exceed the barrier of ``p`` at ``b``.

    Preconditions (``b`` below the smallest root, ``barrier(p, b) <=
    1/delta``) are validated; a degree-one ``p`` passes vacuously since
    its derivative has no roots.
    """
    if delta <= 0.0:
        raise InvalidInput(f"delta must be > 0, got {delta}")
    phi_b = barrier(p, b)
    if phi_b > (1.0 / delta) * (1.0 + 1e-12):
        raise InvalidInput(
            f"precondition barrier(p, b) <= 1/delta violated: {phi_b} > {1.0 / delta}"
        )
    phi_next = barrier(derivative(p, 1), b + delta)
    return phi_next <= phi_b + 1e-9


def interlacing_check(f: Polynomial, g: Polynomial) -> bool:
    """True iff the roots of ``g`` interleave the roots of ``f``.

    With ``f`` of degree d and ``g`` of degree d - 1 (both real-rooted),
    checks root_f[i] <= root_g[i] <= root_f[i+1] with 1e-9 slack.
    """
    if g.degree != f.degree - 1:
        raise InvalidInput(
            f"need deg g = deg f - 1, got deg f = {f.degree}, deg g = {g.degree}"
        )
    beta = _all_roots(f)
    alpha = _all_roots(g)
    slack = 1e-9
    for i, a in enumerate(alpha):
        if a < beta[i] - slack or a > beta[i + 1] + slack:
            return False
    return True


def mul_shifted_power(p: Polynomial, power: int) -> Polynomial:
    """Multiply by ``(x - 1)^power`` via repeated synthetic multiplication."""
    if power < 0:
        raise InvalidInput(f"power must be >= 0, got {power}")
    if p.is_zero:
        return p
    c = list(p.coeffs)
    for _ in range(power):
        c.append(c[-1])
        for i in range(len(c) - 2, 0, -1):
            c[i] = c[i - 1] - c[i]
        c[0] = -c[0]
    return Polynomial(c)


def deflate_shifted_power(p: Polynomial, power: int) -> Polynomial:
    """Divide out ``(x - 1)^power``, requiring each remainder to vanish.

    Each round is one synthetic division by ``(x - 1)``; a remainder
    above ``DEFLATION_REM_TOL * max|coeff of p|`` signals numerical breakdown or a
    caller bug and raises :class:`DeflationFailure`.
    """
    if power < 0:
        raise InvalidInput(f"power must be >= 0, got {power}")
    if p.is_zero:
        return p
    scale = max(abs(v) for v in p.coeffs)
    c = list(p.coeffs)
    for round_no in range(power):
        if not c:
            raise DeflationFailure(f"polynomial exhausted at deflation round {round_no}")
        # synthetic division by (x - 1): quotient down, remainder = p(1)
        q = [0.0] * (len(c) - 1)
        carry = c[-1]
        for i in range(len(c) - 2, -1, -1):
            q[i] = carry
            carry = c[i] + carry
        if abs(carry) > DEFLATION_REM_TOL * scale:
            raise DeflationFailure(
                f"remainder {carry:.3e} exceeds {DEFLATION_REM_TOL:.1e} * {scale:.3e} "
                f"at deflation round {round_no}"
            )
        c = q
    return Polynomial(c)


def shifted_pipeline(p: Polynomial, a: int, d: int) -> Polynomial:
    """Reference expected-polynomial transform on monomial coefficients:
    multiply by ``(x - 1)^a``, differentiate ``d`` times, divide by
    ``(x - 1)^(a - d)``, normalise.  A negative power swaps multiplying
    and dividing.  Coefficients grow like ``binom(a, i)``, so this is for
    small shapes only; breakdown raises :class:`DeflationFailure`.
    """

    def shift(q: Polynomial, power: int) -> Polynomial:
        return mul_shifted_power(q, power) if power >= 0 else deflate_shifted_power(q, -power)

    return monic(shift(derivative(shift(p, a), d), d - a))
