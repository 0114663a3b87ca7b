"""Independent cross-check machinery: enumeration (every subset indexed
in ``combinations`` order by one NumPy walk of the subsets' prefix tree,
with no Python step per subset, then one pass per batch of up to 4096
subsets, on the calling thread: every Gram summed once from per-column
outer products, an elementwise Cholesky factorisation of a copy that
decides the Frobenius norm of every well-conditioned subset, one column
gather and one stacked singular-value call for the rest, and
``eigvalsh`` of the same Grams only for the subsets whose lower bound
reaches a running spectral bar; one ``np.argmin`` per norm for the first
optimum, and the full table, only when read, from that pass's own norms,
with ``eigvalsh`` only for the subsets it left without a spectral norm),
barriers, companion roots, the monomial-basis expected-polynomial
pipeline, the stacked ``y``-basis transform (one eigensolve per
candidate Gram), the ``longdouble`` reference scores, and the replay that
judges every pick of a greedy report by them.

Nothing here shares a code path with the root search, the greedy loop or
the selector's subset norms, which is the point: these are the oracles the
test suite uses to falsify the production code.  The replay
(:func:`replay_steps`) takes the isotropic frame and the one-column Gram
update the greedy loop takes, so that the Grams it judges are the run's
bit for bit; it shares nothing with how a run scores.  The stacked transform
runs the production one's own eigensolver,
:func:`~colsel.expected_charpoly._psd_eigh` (through
:func:`~colsel.expected_charpoly._psd_eigenvalues`, one Gram at a time),
its root expansion, :func:`~colsel.poly._from_roots_rows`, and its
weights; it differs only in decomposing every candidate's Gram, where the
production transform scores candidates by the matrix determinant lemma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import AlgorithmFailure, DeflationFailure, InvalidInput, TooLarge
from .expected_charpoly import IsotropicInstance, _psd_eigenvalues, _weight_ratios
from .linalg import DEFAULT_RANK_TOL, _as_indices, _as_real, _gram_updates
# pseudoinverse is unused; the benchmark harness's tracer test wraps colsel.oracle.pseudoinverse
from .linalg import pseudoinverse  # noqa: F401
from .poly import Polynomial, _from_roots_rows, derivative, evaluate, monic
from .selector import SelectionProblem, SelectionReport, build_isotropic

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
    "StepInputs",
    "replay_steps",
    "StepCheck",
    "replay_check",
]

ENUMERATION_GUARD = 10**6
# subsets per stack: the whole of a C(14, 5) enumeration, and memory stays flat up to the guard
ENUMERATION_BATCH = 4096
# the Cholesky factor decides a subset only where tr(G) |L^-1|_F^2, which
# bounds kappa(G), is at most this
KAPPA_CAP = 400.0
# the least Cholesky pivot the gate accepts: normal, with room below it for the underflow
# of forming the Gram
NORMAL_FLOOR = 1e-290
# relative slack of the lower bound on |M^+|_2^2 that rules a subset out of the spectral optimum
LOWER_BOUND_SLACK = 1e-9
REFERENCE_NEWTON_STEPS = 200
DEFLATION_REM_TOL = 1e-8


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive evaluation of all size-k subsets: both optima, and the
    full table of norms on demand.

    ``num_subsets`` is ``C(m, k)`` and ``num_feasible`` the number of
    subsets whose ``[a b_S]`` has full row rank under the rank rule and
    finite norms.  ``all_values`` maps each subset (sorted tuple), in
    ``combinations`` order, to ``(frob_sq, spec_sq)``, the squared
    pseudoinverse norms of ``[a b_S]``; rank-deficient subsets, and
    full-rank ones whose norms overflow, get infinite norms so the map
    stays total.  It is built on first access from the two arrays of
    norms that :func:`brute_force`'s pass left, ``_frob_sq`` and
    ``_spec_sq``, in ``combinations`` order: only the subsets that pass
    pruned, Cholesky-decided with a finite ``frob_sq`` and no spectral
    norm yet, have their Grams formed again, in chunks of
    ``ENUMERATION_BATCH``, for :func:`_spectral_norms`.  Every Gram's
    bits are its own, whatever its chunk, so every value is the one
    :func:`brute_force` would have taken, and the two optima are the first
    minima of the table's columns in ``combinations`` order.
    """

    best_subset_frob: tuple[int, ...]
    best_subset_spec: tuple[int, ...]
    best_frob_sq: float
    best_spec_sq: float
    num_subsets: int
    num_feasible: int
    _problem: SelectionProblem = field(repr=False, compare=False)
    _frob_sq: np.ndarray = field(repr=False, compare=False)
    _spec_sq: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def all_values(self) -> dict[tuple[int, ...], tuple[float, float]]:
        prob, frob_sq, spec_sq = self._problem, self._frob_sq, self._spec_sq.copy()
        index = _subset_index(prob.m, prob.k)
        pruned = np.flatnonzero((frob_sq < math.inf) & (spec_sq == math.inf))
        for rows in np.split(pruned, range(ENUMERATION_BATCH, len(pruned), ENUMERATION_BATCH)):
            spec_sq[rows] = _spectral_norms(_grams(prob, index[rows]), frob_sq[rows])
        subsets = map(tuple, index.tolist())
        return dict(zip(subsets, zip(frob_sq.tolist(), spec_sq.tolist())))


def brute_force(prob: SelectionProblem) -> EnumerationResult:
    """Exact optimum over all ``C(m, k)`` subsets for both norms.

    With ``M = [a b_S]`` and its Gram ``G = M M^T``, ``|M^+|_F^2 =
    tr(G^-1)`` and ``|M^+|_2^2 = 1/lambda_min(G)``.  The subsets, in
    ``combinations`` order, go in batches of up to ``ENUMERATION_BATCH``
    (4096) on the calling thread, and one pass over each batch, in two
    steps, gives both norms before the next batch starts.  Each batch's
    Grams are formed once, and both steps read that one stack.

    The Frobenius norm.  Every ``G`` is formed with the batch axis last,
    from the outer products ``b_i b_i^T`` of ``b``'s columns, held as one
    ``(n^2, m)`` array: ``a a^T``, once per batch, plus one contiguous
    ``take`` of that array per position of the batch's ``(B, k)`` slice of
    one subset array, in subset order.  No ``M`` is gathered.  Plain
    elementwise numpy over a copy of the whole stack then factors ``G =
    L L^T`` (Cholesky, column by column) and forms ``X = L^-1`` by forward
    substitution, with floating-point errors ignored; so each matrix's
    bits depend only on ``a`` and its own columns in order, not on its
    batch or its place in it.  ``frob_sq = |X|_F^2``.  A subset is
    *Cholesky-decided* when every pivot (``L_jj^2``) is at least
    ``NORMAL_FLOOR`` (1e-290) and ``tr(G) frob_sq <= KAPPA_CAP`` (400),
    which no infinite or NaN pivot, trace or ``frob_sq`` passes; as
    ``tr(G) >= lambda_max`` and ``frob_sq >= 1/lambda_min``, this bounds
    ``kappa(G) <= 400``.

    Its ``frob_sq`` is then within ``1e-12`` of ``tr(G^-1)``, to first
    order in the unit roundoff ``u``.  Forming ``G``, each entry a sum of
    ``l + k`` rounded products in some order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.5), and the Cholesky
    factorisation (theorem 10.3) give ``L L^T = G + E`` with ``|E|_2 <=
    (gamma_{l+k} + gamma_{n+1}) tr(G)``, since ``| |M| |M|^T |_2 <=
    |M|_F^2 = tr(G)`` and likewise for ``L``; so ``tr((G + E)^-1)`` is
    within ``(gamma_{l+k} + gamma_{n+1}) 400`` of ``tr(G^-1)``, relative.
    Forward substitution (theorem 8.5) solves each column of ``X`` for
    ``L`` perturbed by ``gamma_n |L|``, which moves ``|X|_F^2`` by at most
    ``2 gamma_n (tr(G)/lambda_min)^(1/2) <= 2 gamma_n 20`` relative, and
    the sum of squares adds ``gamma_{n^2}``.  At ``(n, l + k) = (4, 7)``
    that is ``4976 u = 5.5e-13``, and it stays below ``1e-12`` while ``n +
    l + k <= 19``.  The pivot floor keeps ``lambda_min >= tr(G)/400 >=
    1e-290/400``, so underflow in forming and factoring ``G`` adds about
    ``1e-31 n (l + k)`` at most.

    Every other subset (rank-deficient, ill-conditioned, or with a Gram
    that overflows, underflows or is not finite) takes the rank rule: one
    fancy index of ``b`` gathers its ``M``, and one stacked
    ``np.linalg.svd(..., compute_uv=False)`` per batch, under the caller's
    floating-point error state, finds it full rank when
    ``sigma_min > DEFAULT_RANK_TOL * sigma_max``, and then ``frob_sq = sum
    sigma_i^-2`` and ``spec_sq = sigma_min^-2``, clamped to the Frobenius
    value, with infinite norms where rank-deficient or where a norm
    overflows.  A Cholesky-decided subset has ``sigma_min / sigma_max >=
    0.05``, far above the rank rule, and finite norms, so the feasible set
    is the rank rule's.  One ``np.argmin`` takes the first minimum of
    ``frob_sq``.

    The spectral norm, in the same batch.  The largest squared row or
    column norm of ``X`` is a lower bound ``lb`` on ``|X|_2^2 =
    1/lambda_min(G)``.  The rank-rule subsets have their exact ``spec_sq``
    already.  Two probes, the batch's Frobenius minimum and its
    Cholesky-decided subset of least ``lb``, take theirs from
    :func:`_spectral_norms`, and the least exact ``spec_sq`` so far, in
    this batch and every earlier one, is the bar: the spectral optimum is
    at most the bar, and the bar only falls.  Then only the batch's
    Cholesky-decided subsets with ``lb <= bar (1 + LOWER_BOUND_SLACK)``
    (``1e-9``) take theirs too.  :func:`_spectral_norms` takes their
    ``G`` from the batch's stack, and one stacked ``eigvalsh`` gives
    ``spec_sq = min(1/lambda_min, frob_sq)``, within about ``1e-12``
    relative because the Cholesky gate bounds ``kappa(G) <= 400``.  A
    subset left out has ``lb`` above a bar by ``1e-9`` relative, so above
    the final bar too, far more than the rounding of ``lb`` and of
    ``1/lambda_min``: its ``spec_sq`` would be above the final bar, and
    it can neither win nor tie.  So the first minimum over the subsets
    that took a ``spec_sq``, in ``combinations`` order, from one
    ``np.argmin``, is the first minimum over all subsets.  Exact twins tie
    exactly, as every matrix's bits are its own.  Where no subset is
    feasible both optima are ``()`` with an infinite norm.  Nothing here
    goes through the selector's norm helper or
    :func:`~colsel.linalg.thin_svd`.  The result keeps the pass's two
    arrays of norms, and the full table, ``all_values``, built only when
    read, takes ``eigvalsh`` for the pruned subsets alone.
    """
    count = math.comb(prob.m, prob.k)
    if count > ENUMERATION_GUARD:
        raise TooLarge(
            f"C({prob.m}, {prob.k}) = {count} exceeds the {ENUMERATION_GUARD} subset guard"
        )
    index = _subset_index(prob.m, prob.k)
    frob_sq, spec_sq = _enumerate(prob, index)
    # a subset is feasible iff its Frobenius norm is finite, and then so is its spectral one
    num_feasible = int(np.count_nonzero(frob_sq < math.inf))
    if not num_feasible:
        return EnumerationResult((), (), math.inf, math.inf, count, 0, prob, frob_sq, spec_sq)
    i, j = int(np.argmin(frob_sq)), int(np.argmin(spec_sq))
    return EnumerationResult(
        best_subset_frob=tuple(index[i].tolist()),
        best_subset_spec=tuple(index[j].tolist()),
        best_frob_sq=float(frob_sq[i]),
        best_spec_sq=float(spec_sq[j]),
        num_subsets=count,
        num_feasible=num_feasible,
        _problem=prob, _frob_sq=frob_sq, _spec_sq=spec_sq,
    )


def _subset_index(m: int, k: int) -> np.ndarray:
    """The ``(C(m, k), k)`` array of all size-``k`` subsets of ``range(m)``,
    ``1 <= k <= m``, in ``combinations`` (lexicographic) order, Fortran
    order so that each column is contiguous.

    It walks the prefix tree of the subsets one level at a time, with no
    Python step per subset (Knuth, *TAOCP* Vol. 4A, section 7.2.1.3).
    Level ``t`` holds the last element of every ``(t + 1)``-prefix that
    can still reach size ``k``, and each node's parent row in level ``t -
    1``: a node whose last element is ``c`` has the children ``c + 1 ..
    m - k + t``, in order, so one ``np.repeat`` over the child counts
    gives the parents and one ``np.cumsum`` of unit steps, which jump back
    at each node's first child, gives the elements.  The last level, one
    node per subset in order, is the last column; the columns before it
    are filled from the last back, each through the parent rows composed
    so far, and each level is dropped once read.  Besides the result the
    build holds the levels, all smaller than it but the last, whose parent
    rows are one column's worth, and two columns' worth of composed rows:
    about 1.5 times the result at ``C(40, 5)``."""
    index = np.empty((math.comb(m, k), k), np.intp, order="F")
    last, levels = np.array([-1]), []  # level -1: the empty prefix
    for t in range(k):
        top = m - k + t
        counts = top - last
        parent = np.repeat(np.arange(len(last)), counts)
        steps = index[:, t] if t == k - 1 else np.empty(len(parent), np.intp)
        steps.fill(1)
        steps[0] = last[0] + 1
        # each node's first child follows its previous node's last child, top
        steps[np.cumsum(counts[:-1])] = last[1:] + 1 - top
        last = np.cumsum(steps, out=steps)
        levels.append((last, parent))
    rows = levels.pop()[1]  # each subset's row in level k - 2
    for t in range(k - 2, -1, -1):
        last, parent = levels.pop()
        # every row is in range, so mode="clip" writes the column without a buffer
        np.take(last, rows, out=index[:, t], mode="clip")
        if t:
            rows = parent[rows]
    return index


def _grams(prob: SelectionProblem, batch: np.ndarray) -> np.ndarray:
    """The ``(n, n, B)`` stack of the Grams ``G = M M^T`` of ``M = [a
    b_S]`` for the subsets ``batch``, batch axis last: ``a a^T``, then
    ``b_i b_i^T`` for each column ``i`` of the subset in order, with
    floating-point errors ignored.  Each entry is a sum of ``l + k``
    rounded products, each ``G`` is exactly symmetric, and its bits depend
    only on ``a`` and its own columns in order."""
    a, b = prob.a.data, prob.b.data
    n = prob.a.rows
    with np.errstate(all="ignore"):
        # (n^2, m): column i holds b_i b_i^T, so a take along axis 1 is contiguous
        outer = (b[:, None] * b[None]).reshape(n * n, prob.m)
        fixed = (a[:, None] * a[None]).reshape(n * n, prob.a.cols).sum(axis=1, keepdims=True)
        grams = outer.take(batch[:, 0], axis=1)
        grams += fixed
        for t in range(1, prob.k):
            grams += outer.take(batch[:, t], axis=1)
    return grams.reshape(n, n, len(batch))


def _gather(prob: SelectionProblem, batch: np.ndarray) -> np.ndarray:
    """The ``(B, n, l + k)`` stack of ``[a b_S]`` for the subsets ``batch``."""
    a, b = prob.a.data, prob.b.data
    stack = np.empty((len(batch), prob.a.rows, prob.a.cols + prob.k))
    stack[:, :, : prob.a.cols] = a
    # (n, B, k) -> (B, n, k): row i holds b's columns batch[i], in order
    stack[:, :, prob.a.cols :] = b[:, batch].transpose(1, 0, 2)
    return stack


def _enumerate(prob: SelectionProblem, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``frob_sq`` and ``spec_sq`` of every subset of ``index``, per batch
    of ``ENUMERATION_BATCH``: the batch's Grams, formed once by
    :func:`_grams`, go to :func:`_first_pass` and then to
    :func:`_spectral_norms` for the two probes and the Cholesky-decided
    subsets whose ``lb`` reaches the running bar; the other
    Cholesky-decided subsets keep an infinite ``spec_sq``."""
    frob_sq, spec_sq = np.empty(len(index)), np.empty(len(index))
    bar = math.inf
    for start in range(0, len(index), ENUMERATION_BATCH):
        rows = slice(start, start + ENUMERATION_BATCH)
        batch = index[rows]
        grams = _grams(prob, batch)
        frob_sq[rows], spec_sq[rows], decided, lower = _first_pass(prob, batch, grams)
        frob, spec = frob_sq[rows], spec_sq[rows]  # views
        least = np.argmin(np.where(decided, lower, math.inf))
        # not np.unique, which imports numpy.ma: 1.7 MB more peak memory
        probes = np.array(sorted({np.argmin(frob), least}))
        probes = probes[decided[probes]]
        spec[probes] = _spectral_norms(grams[..., probes], frob[probes])
        bar = min(bar, spec.min())
        # a new mask: the one _first_pass returned is left as it was
        keep = decided & (lower <= bar * (1.0 + LOWER_BOUND_SLACK))
        keep[probes] = False
        spec[keep] = _spectral_norms(grams[..., keep], frob[keep])
    return frob_sq, spec_sq


def _first_pass(
    prob: SelectionProblem, batch: np.ndarray, grams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first step of :func:`brute_force` on the subsets ``batch``,
    whose ``(n, n, B)`` Grams from :func:`_grams` are ``grams``:
    ``frob_sq``, ``spec_sq`` (the rank rule's where not Cholesky-decided,
    else infinite), the Cholesky-decided mask and the lower bound ``lb``
    on ``spec_sq``.  It factors a copy, so ``grams`` is left as it was."""
    # batch axis last: every operand below is a run of B contiguous values
    g = grams.copy()
    n = g.shape[0]
    with np.errstate(all="ignore"):
        trace = g[0, 0].copy()
        for p in range(1, n):
            trace += g[p, p]
        # G = L L^T, column by column and in place: a column of the Schur
        # complement, then of L, overwrites G's lower triangle
        pivots = np.empty((n, len(batch)))
        for j in range(n):
            col = g[j:, j]
            for p in range(j):
                col -= g[j:, p] * g[j, p]
            pivots[j] = col[0]
            g[j, j] = np.sqrt(col[0])
            g[j + 1 :, j] = col[1:] / g[j, j]
        # L X = I by forward substitution, one row of X = L^-1 at a time
        inv = np.zeros_like(g)
        for i in range(n):
            row = np.zeros((n, len(batch)))
            row[i] = 1.0
            for p in range(i):
                row -= g[i, p] * inv[p]
            inv[i] = row / g[i, i]
        sq = np.square(inv, out=inv)
        row_sq, col_sq = sq[:, 0].copy(), sq[0].copy()
        for p in range(1, n):
            row_sq += sq[:, p]
            col_sq += sq[p]
        frob = row_sq[0].copy()
        for p in range(1, n):
            frob += row_sq[p]
        # an infinite or NaN pivot, trace or frob_sq fails one of the two tests:
        # a pivot is infinite only where a diagonal entry of G is
        decided = (pivots >= NORMAL_FLOOR).all(axis=0) & (trace * frob <= KAPPA_CAP)
        lower = np.maximum(row_sq.max(axis=0), col_sq.max(axis=0))
    spec = np.full(len(batch), math.inf)
    if not decided.all():
        frob[~decided], spec[~decided] = _rank_rule_norms(_gather(prob, batch[~decided]))
    return frob, spec, decided, lower


def _spectral_norms(grams: np.ndarray, frob_sq: np.ndarray) -> np.ndarray:
    """``spec_sq = min(1/lambda_min, frob_sq)`` of each Cholesky-decided
    subset whose Gram ``G`` is in ``grams``, an ``(n, n, B)`` stack from
    :func:`_grams`, batch axis last, from one stacked ``eigvalsh``; it
    forms no Gram.

    The Cholesky gate is the only test: every subset here has pivots of at
    least ``NORMAL_FLOOR`` and ``tr(G) frob_sq <= KAPPA_CAP``, so
    ``kappa(G) <= 400`` and ``lambda_min >= tr(G)/400 >= 1e-290/400``, a
    normal number.  Forming ``G`` perturbs it by ``|E|_2 <= gamma_{l+k}
    tr(G)`` (see :func:`brute_force`), and a backward-stable symmetric
    eigensolver returns the eigenvalues of a matrix within ``c n u |G|_2``
    of the one it is given, ``c`` a modest constant.  By Weyl's
    inequality the computed ``lambda_min`` is then within ``(gamma_{l+k} +
    c n u) tr(G) <= 400 (gamma_{l+k} + c n u) lambda_min`` of the exact
    one: about ``1e-12`` relative at ``(n, l + k) = (4, 7)``, the budget
    the Frobenius norm already uses.  So ``1/lambda_min`` is finite and
    that close, and no subset needs the rank rule here."""
    lam_min = np.linalg.eigvalsh(grams.transpose(2, 0, 1))[:, 0]  # ascending
    return np.minimum(1.0 / lam_min, frob_sq)


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

    Requires a finite real ``x`` (:func:`~colsel.linalg._as_real`) strictly
    below the smallest root, else :class:`InvalidInput`; a constant
    polynomial has an empty root set and barrier zero.
    """
    if not math.isfinite(x := _as_real(x, InvalidInput, "barrier's x")):
        raise InvalidInput(f"barrier needs a finite x, got {x!r}")
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

    Preconditions (finite real ``b`` and ``delta``, as
    :func:`~colsel.linalg._as_real` reads them, ``b`` below the smallest
    root, ``barrier(p, b) <= 1/delta``) are validated; a degree-one ``p``
    passes vacuously since its derivative has no roots.
    """
    for name, value in (("b", b), ("delta", delta)):
        if not math.isfinite(_as_real(value, InvalidInput, f"barrier_descent_check's {name}")):
            raise InvalidInput(f"barrier_descent_check needs a finite {name}, got {value!r}")
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
    the smallest.  ``T`` is real-rooted, so left of its roots the step
    ``1 / sum_i 1/(root_i - y)`` is positive and falls as ``y`` rises: a
    candidate stops once its step is at most ``1e-6 eps``, far above where
    rounding stalls it at degree 12 (about ``3e-11 eps``), or once a step
    no longer shrinks, which only rounding makes happen; that step is not
    taken.  At degree 64 rounding stalls it above ``1e-6 eps``, after
    about 30 steps.  It needs a 64-bit ``longdouble`` mantissa, as on
    x86-64: with a ``longdouble`` that is a plain double, it is no more
    exact than the scores it checks.  Newton that has not stopped after
    ``REFERENCE_NEWTON_STEPS`` (200) steps raises :class:`AlgorithmFailure`.
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
    previous = np.full(y.size, np.inf, np.longdouble)
    active = np.arange(y.size)
    for _ in range(REFERENCE_NEWTON_STEPS):
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
        shrinks = (0 < step) & (step < previous[active])
        y[active] = np.where(shrinks, ya + step, ya)
        previous[active] = step
        active = active[shrinks & (step > 1e-6 * eps)]
        if not active.size:
            return y
    raise AlgorithmFailure(
        f"reference Newton did not converge in {REFERENCE_NEWTON_STEPS} steps at partial size {j}"
    )


class StepInputs(NamedTuple):
    """One greedy step's inputs: the partial's Gram ``gram`` (``n x n``),
    the partial size ``j`` its candidates make, the remaining candidates'
    ``columns`` (ascending) and their columns ``v`` (``n x C``) of the
    isotropic frame, and the position ``pick`` of the step's pick in
    ``columns``."""

    gram: np.ndarray
    j: int
    v: np.ndarray
    columns: tuple[int, ...]
    pick: int


def replay_steps(prob: SelectionProblem, subset: Sequence[int]) -> Iterator[StepInputs]:
    """The inputs of each step of a greedy run that picked ``subset``, in
    order, formed as :func:`~colsel.selector.greedy_select` forms them:
    ``gram`` starts at the fixed block's Gram and takes each pick by
    :func:`~colsel.linalg._gram_updates` on its one column, so every Gram
    is the run's bit for bit, whatever scored the candidates.  Raises
    :class:`InvalidInput` unless ``subset`` holds at most ``k`` distinct
    columns of ``b``."""
    subset = _as_indices(subset, prob.m, InvalidInput)
    if len(subset) > prob.k:
        raise InvalidInput(f"a greedy run picks at most k = {prob.k} columns, got {len(subset)}")
    inst = build_isotropic(prob)
    columns = list(range(prob.m))
    gram = inst.gram_fixed.data
    for j, column in enumerate(subset, start=1):
        v = inst.candidates[:, columns]
        pick = columns.index(column)
        yield StepInputs(gram, j, v, tuple(columns), pick)
        gram = _gram_updates(gram, v[:, pick : pick + 1])[0]
        columns.pop(pick)


class StepCheck(NamedTuple):
    """One greedy step judged by :func:`reference_scores`: the pick
    ``column``, the column ``best`` the reference scores highest (the
    first of a tie), the pick's ``margin`` below it and the ``trace_error``
    of the step's trace value from the pick's reference root, in ``x``;
    both are in units of ``eps``."""

    column: int
    best: int
    margin: float
    trace_error: float


def replay_check(prob: SelectionProblem, report: SelectionReport) -> tuple[StepCheck, ...]:
    """Judge every pick of ``report`` from the report alone: each step's
    inputs come from :func:`replay_steps` on ``report.subset``, and
    :func:`reference_scores` scores every candidate that step had, so the
    check holds for any scorer.  The paper's guarantee holds step by step:
    a scorer whose roots are within ``eps/2`` of exact picks a column
    within ``eps`` of the best, so a ``margin`` over ``2`` is a wrong pick,
    and a ``trace_error`` over ``1`` a trace value off its pick's root.
    ``report`` need not pass :func:`~colsel.selector._check_report`.
    Raises :class:`InvalidInput` where the trace does not name the
    subset's columns in order, or :func:`replay_steps` does;
    :class:`AlgorithmFailure` where :func:`reference_scores` does."""
    if tuple(step.index for step in report.trace) != tuple(report.subset):
        raise InvalidInput("the report's trace does not name its subset's columns in order")
    checks = []
    for step, traced in zip(replay_steps(prob, report.subset), report.trace):
        ref = reference_scores(step.gram, step.v, prob.m, prob.k, step.j, prob.eps)
        top = int(np.argmax(ref))
        pick = ref[step.pick]
        checks.append(StepCheck(
            column=step.columns[step.pick],
            best=step.columns[top],
            margin=float((ref[top] - pick) / prob.eps),
            trace_error=float(abs(np.longdouble(traced.lambda_min) - 1 - pick) / prob.eps),
        ))
    return tuple(checks)
