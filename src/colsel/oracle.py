"""Independent cross-check machinery: enumeration (per batch of up to 4096
subsets, on the calling thread, one column gather, one stacked Gram
product and ``eigvalsh``, and one stacked singular-value call for the
subsets whose Gram cannot decide their norms, then one ``np.argmin`` per
norm for the first optimum), barriers, companion roots, the
monomial-basis expected-polynomial pipeline, the stacked ``y``-basis
transform (one eigensolve per candidate Gram), and the ``longdouble``
reference scores.

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
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import DeflationFailure, InvalidInput, TooLarge
from .expected_charpoly import IsotropicInstance, _psd_eigenvalues, _weight_ratios
# pseudoinverse is unused; the benchmark harness's tracer test wraps colsel.oracle.pseudoinverse
from .linalg import DEFAULT_RANK_TOL, _gram_updates, pseudoinverse  # noqa: F401
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
    "reference_scores",
]

ENUMERATION_GUARD = 10**6
# subsets per stack: the whole of a C(14, 5) enumeration, and memory stays flat up to the guard
ENUMERATION_BATCH = 4096
DEFLATION_REM_TOL = 1e-8


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive evaluation of all size-k subsets, from the eigenvalues of
    each subset's Gram ``[a b_S][a b_S]^T`` where they are well conditioned,
    and from its singular values under the rank rule elsewhere.

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

    The subsets, in ``combinations`` order, go in batches of up to
    ``ENUMERATION_BATCH`` (4096) on the calling thread.  A batch's
    ``[a b_S]`` stack comes from one fancy index of ``b`` by the batch's
    ``(B, k)`` slice of one subset array.  With ``M = [a b_S]``,
    ``|M^+|_F^2 = tr((M M^T)^-1)`` and ``|M^+|_2^2 = 1/lambda_min(M M^T)``,
    so one stacked product gives every Gram ``G = M M^T`` and one stacked
    ``eigvalsh`` its eigenvalues ``lambda``, with floating-point errors
    ignored there and a Gram that is not finite zeroed first.  A subset is
    decided by its Gram when ``G`` is finite, ``lambda_min >= 1e-2 *
    lambda_max`` and ``lambda_min >= 1e-290``: then ``frob_sq = sum
    1/lambda_i`` and ``spec_sq = min(1/lambda_min, frob_sq)``.  Forming
    ``G`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.5) and a backward-stable symmetric eigensolver give, by
    Weyl's inequality, ``|lambda_hat_i - lambda_i| <= (gamma_{l+k} n + c n
    u) lambda_max``, with ``u`` the unit roundoff.  Under the gate that is
    at most 100 times as much relative to ``lambda_min``: about ``1e-12``
    at ``(n, l + k) = (4, 7)``, where the measured error is ``4e-14``.
    Such a subset has ``sigma_min / sigma_max >= 0.1``, far above the rank
    rule, and both norms are finite.

    Every other subset (rank-deficient, ill-conditioned, or with a Gram
    that overflows or underflows) takes the rank rule, from one stacked
    ``np.linalg.svd(..., compute_uv=False)`` per batch under the caller's
    floating-point error state: it is full rank when ``sigma_min >
    DEFAULT_RANK_TOL * sigma_max``, and then ``frob_sq = sum sigma_i^-2``
    and ``spec_sq = sigma_min^-2``, clamped to the Frobenius value.  So
    the feasible set is the rank rule's.  Neither path goes through the
    selector's norm helper or :func:`~colsel.linalg.thin_svd`.  Each
    matrix's product and eigensolve do not depend on its batch, so exact
    twins tie exactly, and one ``np.argmin`` per norm takes the first
    optimum in ``combinations`` order.  Where no subset is feasible both
    optima are ``()`` with an infinite norm.
    """
    count = math.comb(prob.m, prob.k)
    if count > ENUMERATION_GUARD:
        raise TooLarge(
            f"C({prob.m}, {prob.k}) = {count} exceeds the {ENUMERATION_GUARD} subset guard"
        )
    a, b, n, ell, k = prob.a.data, prob.b.data, prob.a.rows, prob.a.cols, prob.k
    subsets = list(combinations(range(prob.m), k))
    index = np.fromiter(chain.from_iterable(subsets), np.intp, count * k).reshape(count, k)
    frob_sq = np.full(count, math.inf)
    spec_sq = np.full(count, math.inf)
    for start in range(0, count, ENUMERATION_BATCH):
        rows = slice(start, start + ENUMERATION_BATCH)
        batch = index[rows]
        stack = np.empty((len(batch), n, ell + k))
        stack[:, :, :ell] = a
        # (n, B, k) -> (B, n, k): row i holds b's columns batch[i], in order
        stack[:, :, ell:] = b[:, batch].transpose(1, 0, 2)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            gram = stack @ stack.transpose(0, 2, 1)
            finite = np.isfinite(gram).all(axis=(1, 2))
            gram[~finite] = 0.0
            lam = np.linalg.eigvalsh(gram)  # ascending
        decided = finite & (lam[:, 0] >= 1e-2 * lam[:, -1]) & (lam[:, 0] >= 1e-290)
        frob, spec = frob_sq[rows], spec_sq[rows]  # views: writing them fills the results
        frob[decided] = np.sum(1.0 / lam[decided], axis=1)
        spec[decided] = np.minimum(1.0 / lam[decided, 0], frob[decided])
        if not decided.all():
            frob[~decided], spec[~decided] = _rank_rule_norms(stack[~decided])
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


def _rank_rule_norms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both squared pseudoinverse norms of each ``n x (l + k)`` matrix of
    ``stack`` from its singular values, infinite where the rank rule finds
    it rank-deficient or where a norm overflows."""
    s = np.linalg.svd(stack, compute_uv=False)  # n values: l + k >= n
    sigma_min_sq = s[:, -1] ** 2
    # sigma_min^2 = 0 (underflow) means both norms overflow
    feasible = (s[:, -1] > DEFAULT_RANK_TOL * s[:, 0]) & (sigma_min_sq > 0.0)
    # the feasible rows only, so nothing divides by a zero sigma
    s_feasible = s[feasible]
    frob_sq = np.full(len(stack), math.inf)
    with np.errstate(over="ignore"):
        frob_sq[feasible] = np.sum(1.0 / (s_feasible * s_feasible), axis=1)
    spec_sq = np.full(len(stack), math.inf)
    feasible &= frob_sq < math.inf
    spec_sq[feasible] = np.minimum(1.0 / sigma_min_sq[feasible], frob_sq[feasible])
    return frob_sq, spec_sq


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


def reference_scores(
    gram: np.ndarray, v: np.ndarray, m: int, k: int, j: int, eps: float
) -> np.ndarray:
    """Every candidate's score, the smallest root in ``y = x - 1`` of its
    expected polynomial, in ``np.longdouble`` from the float eigenvalues of
    its Gram ``gram + v_c v_c^T``, with no coefficient expansion.

    With ``a = m - n - j`` and ``d = k - j``, let ``rho`` be those
    eigenvalues less one, without the largest ``max(-a, 0)``, which are
    exactly zero; ``q`` values are left.  With ``A = max(a, 0)`` and
    ``P(y) = y^A prod(y - rho_i)``, the score is the smallest root of
    ``P^(d)``, and ``P^(d)(y)/d! = sum_t C(A, L - t) y^(L - t) e_t(y - rho)``
    with ``L = m - k``.  Newton on ``T = P^(d)/y^B``, ``B = max(A - d, 0)``,
    starts at ``min rho``, left of every root by interlacing, and rises to
    the smallest; it stops once every step is at most ``1e-6 eps``, far
    above where rounding stalls it (about ``3e-11 eps`` at degree 12).
    It needs a 64-bit ``longdouble`` mantissa, as on x86-64: with a
    ``longdouble`` that is a plain double, it is no more exact than the
    scores it checks.
    """
    n = gram.shape[0]
    a, d = m - n - j, k - j
    big_a = max(a, 0)
    low = max(big_a - d, 0)
    mu = np.linalg.eigvalsh(_gram_updates(gram, v))[:, : n - max(-a, 0)]
    rho = mu.T.astype(np.longdouble) - 1
    q = rho.shape[0]
    # T0 = P^(d)/(d! y^B) = sum_t w0_t y^(deg - t) e_t(y - rho), with deg = L - B <= q,
    # and T1 = y P^(d+1)/((d+1)! y^B), the same sum with w1
    deg = m - k - low
    w0 = np.array([math.comb(big_a, m - k - t) for t in range(deg + 1)], np.longdouble)
    w1 = np.array([math.comb(big_a, m - k - 1 - t) if t < m - k else 0 for t in range(deg + 1)],
                  np.longdouble)
    y = rho[0].copy()
    active = np.arange(y.size)
    for _ in range(200):
        ya, rho_a = y[active], rho[:, active]
        e = np.zeros((q + 1, active.size), np.longdouble)  # e[t] = e_t(y - rho), by one recurrence
        e[0] = 1
        for r in rho_a:
            e[1:] += (ya - r) * e[:-1]
        t0 = t1 = np.zeros(active.size, np.longdouble)
        for t in range(deg + 1):
            t0, t1 = t0 * ya + w0[t] * e[t], t1 * ya + w1[t] * e[t]
        # at d = 0, T0 vanishes at min rho, the root itself
        root = t0 == 0
        step = -ya * t0 / np.where(root, 1, (d + 1) * t1 - low * t0)
        step[root] = 0
        y[active] = ya + step
        active = active[np.abs(step) > 1e-6 * eps]
        if not active.size:
            return y
    raise AssertionError(f"reference Newton did not converge at partial size {j}")
