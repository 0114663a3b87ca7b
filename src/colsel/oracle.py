"""Independent cross-check machinery: enumeration (one column gather and one
stacked singular-value call per batch of up to 256 subsets, the batches
split over one thread per available CPU, then joined by the calling
thread into one array per norm whose first minimum is the optimum),
barriers, companion roots, the monomial-basis expected-polynomial
pipeline, and the stacked ``y``-basis transform (one eigensolve per
candidate Gram).

Nothing here shares a code path with the root search, the greedy loop or
the selector's subset norms, which is the point: these are the oracles the
test suite uses to falsify the production code.  The stacked transform
runs the production one's own eigensolver,
:func:`~colsel.expected_charpoly._psd_eigh` (through
:func:`~colsel.expected_charpoly._psd_eigenvalues`, one Gram at a time),
its root expansion, :func:`~colsel.poly._from_roots_rows`, and its
weights; it differs only in decomposing every candidate's Gram, where the
production transform scores candidates by the matrix determinant lemma.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DeflationFailure, InvalidInput, TooLarge
from .expected_charpoly import IsotropicInstance, _psd_eigenvalues, _weight_ratios
# pseudoinverse is unused; the benchmark harness's tracer test wraps colsel.oracle.pseudoinverse
from .linalg import DEFAULT_RANK_TOL, pseudoinverse  # noqa: F401
from .poly import Polynomial, _from_roots_rows, derivative, evaluate, monic
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
    "stacked_charpolys",
    "stacked_expected_polys",
]

ENUMERATION_GUARD = 10**6
# subsets per stacked SVD: enough to amortise the LAPACK call, small enough to keep memory flat
ENUMERATION_BATCH = 256
DEFLATION_REM_TOL = 1e-8


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive evaluation of all size-k subsets, from the singular values
    of one stacked SVD per batch of up to 256 subsets.

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


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def brute_force(prob: SelectionProblem) -> EnumerationResult:
    """Exact optimum over all ``C(m, k)`` subsets for both norms.

    It takes the singular values alone, from one stacked
    ``np.linalg.svd(..., compute_uv=False)`` per batch of up to
    ``ENUMERATION_BATCH`` (256) subsets' ``[a b_S]``.  A batch's ``b_S``
    blocks come from one fancy index of ``b`` by the batch's ``(B, k)``
    array of subsets, in ``combinations`` order.  A subset is full rank
    when ``sigma_min > DEFAULT_RANK_TOL * sigma_max``; for those
    ``|[a b_S]^+|_F^2 = sum sigma_i^-2`` and ``|[a b_S]^+|_2^2 =
    sigma_min^-2`` (clamped to the Frobenius value).  Neither goes through
    the selector's norm helper or :func:`~colsel.linalg.thin_svd`.

    The batches are split over ``W`` slots, one per CPU the process may
    run on (never more than there are batches): batch ``i`` goes to slot
    ``i mod W``.  Slot 0 is the calling thread, and each other slot is a
    helper thread, started for this call and joined before it returns,
    that runs numpy only, under the caller's floating-point error state;
    the stacked ``svd`` releases the interpreter lock.  Each slot builds
    one batch's stack at a time.  The batches are slices of one list of
    the subsets in ``combinations`` order.  After the join the calling
    thread concatenates each norm's batches, in that order, into one
    array: its first minimum (one ``np.argmin``) is the optimum, and
    ``all_values`` pairs the list with the arrays, so the ties and the
    norms are those of one thread, bit for bit.  Where no subset is
    feasible both optima are ``()`` with an infinite norm.  A slot's
    exception stops every slot at its next batch and is raised in the
    calling thread.
    """
    count = math.comb(prob.m, prob.k)
    if count > ENUMERATION_GUARD:
        raise TooLarge(
            f"C({prob.m}, {prob.k}) = {count} exceeds the {ENUMERATION_GUARD} subset guard"
        )
    a, b, n, ell, k = prob.a.data, prob.b.data, prob.a.rows, prob.a.cols, prob.k
    errstate = np.geterr()

    def norms(batch: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
        stack = np.empty((len(batch), n, ell + k))
        stack[:, :, :ell] = a
        # (n, B, k) -> (B, n, k): row i holds b's columns batch[i], in order
        stack[:, :, ell:] = b[:, np.array(batch)].transpose(1, 0, 2)
        s = np.linalg.svd(stack, compute_uv=False)  # n values: l + k >= n
        sigma_min_sq = s[:, -1] ** 2
        # sigma_min^2 = 0 (underflow) means both norms overflow
        feasible = (s[:, -1] > DEFAULT_RANK_TOL * s[:, 0]) & (sigma_min_sq > 0.0)
        # the feasible rows only, so nothing divides by a zero sigma
        s_feasible = s[feasible]
        frob_sq = np.full(len(batch), math.inf)
        with np.errstate(over="ignore"):
            frob_sq[feasible] = np.sum(1.0 / (s_feasible * s_feasible), axis=1)
        spec_sq = np.full(len(batch), math.inf)
        feasible &= frob_sq < math.inf
        spec_sq[feasible] = np.minimum(1.0 / sigma_min_sq[feasible], frob_sq[feasible])
        return frob_sq, spec_sq

    def run(slot: int) -> None:
        with np.errstate(**errstate):
            try:
                for i in range(slot, len(batches), slots):
                    if errors:  # another slot failed: stop early
                        return
                    results[i] = norms(batches[i])
            except BaseException as exc:  # the calling thread raises it after the join
                errors.append(exc)

    subsets = list(combinations(range(prob.m), k))
    batches = [subsets[i : i + ENUMERATION_BATCH] for i in range(0, count, ENUMERATION_BATCH)]
    slots = min(_available_cpus(), len(batches))
    results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(batches)
    errors: list[BaseException] = []
    helpers = [threading.Thread(target=run, args=(slot,)) for slot in range(1, slots)]
    try:
        for thread in helpers:
            thread.start()
        run(0)
    finally:
        for thread in helpers:
            if thread.is_alive():  # a thread that failed to start cannot be joined
                thread.join()
    if errors:
        raise errors[0]
    frob_sq, spec_sq = map(np.concatenate, zip(*results))
    # the first minima, in combinations order; a subset is feasible iff its
    # Frobenius norm is finite, and then so is its spectral one
    i, j = int(np.argmin(frob_sq)), int(np.argmin(spec_sq))
    feasible = frob_sq[i] < math.inf
    return EnumerationResult(
        best_subset_frob=subsets[i] if feasible else (),
        best_subset_spec=subsets[j] if feasible else (),
        best_frob_sq=float(frob_sq[i]),
        best_spec_sq=float(spec_sq[j]),
        all_values=dict(zip(subsets, zip(frob_sq.tolist(), spec_sq.tolist()))),
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


def stacked_charpolys(grams: np.ndarray, a: int) -> np.ndarray:
    """Row ``i``: the coefficients ``c`` of ``det[(y + 1)I - grams[i]]`` in
    powers of ``y = x - 1``, ascending, for the ``(C, n, n)`` stack
    ``grams``: the greedy loop's eigensolver on each matrix
    (:func:`~colsel.expected_charpoly._psd_eigenvalues`), then its root
    expansion (:func:`~colsel.poly._from_roots_rows`) on all rows at once.

    The roots ``r = mu - 1`` come in descending ``mu``, ascending ``|r|``
    for a partial Gram, as in the production transform.  For ``a < 0``
    the first ``-a`` roots, those of the largest eigenvalues, are set to
    exactly zero: with ``a = m - n - j``, the Gram of a size-``j`` partial
    has eigenvalue one with multiplicity at least ``-a``.
    """
    r = _psd_eigenvalues(grams)[:, ::-1] - 1.0
    r[:, : max(-a, 0)] = 0.0
    return _from_roots_rows(r)


def stacked_expected_polys(
    inst: IsotropicInstance, grams: np.ndarray, j: int
) -> list[Polynomial]:
    """Expected polynomials of size-``j`` partials, one per matrix of the
    ``(C, n, n)`` stack ``grams`` of their selected-plus-fixed Grams, in
    powers of ``y = x - 1``: :func:`stacked_charpolys` and the weights of
    :func:`~colsel.expected_charpoly.expected_poly_from_gram`, which takes
    the same polynomials from one eigendecomposition of the partial's Gram
    instead.  Each row takes the same float operations, in the same order,
    as the stack holding that Gram alone.
    """
    n = inst.n
    if grams.shape[1:] != (n, n):
        raise InvalidInput(f"Gram stack must have shape (C, {n}, {n}), got {grams.shape}")
    a = inst.m - n - j
    f = stacked_charpolys(grams, a) * _weight_ratios(n, a, inst.k - j)
    return [Polynomial(row) for row in f.tolist()]
