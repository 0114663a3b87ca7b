"""Greedy column selection with a fixed block, plus bound evaluation.

The selection loop works in the isotropic frame obtained from the thin
SVD of ``[A B]``: at each step it keeps the remaining candidate column
whose extended partial's expected characteristic polynomial has the
largest eps-approximate smallest root.  A batched sign test shows most
candidates below the bar set by one certified root, so only the rest are
rooted.  They are scanned in ascending column order and only a strictly
larger root replaces the best, so ties go to the smallest column index.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import AlgorithmFailure, InvalidInput, InvalidSubset, RankDeficient
from .expected_charpoly import (
    IsotropicInstance,
    _checked_partial,
    _partial_gram,
    _psd_eigh,
    expected_poly_from_gram,
)
from .linalg import (
    DenseMatrix,
    SvdFactors,
    _as_index,
    _as_indices,
    _as_real,
    _gram_updates,
    columns,
    hcat,
    thin_svd,
)
from .poly import _laguerre_guesses, _roots_at_or_below, _wrap, smallest_root

__all__ = [
    "SelectionProblem",
    "SelectionReport",
    "TraceStep",
    "gamma",
    "build_isotropic",
    "greedy_select",
    "verify_bound",
    "min_singular_check",
]

# Root-approximation accuracy of a :class:`SelectionProblem` unless one is given.
DEFAULT_EPS = 1e-6

# Relative slack of the one comparison against the proven bound
# (:func:`_within_bound`); covers float arithmetic only, not algorithmic error.
_ARITHMETIC_SLACK = 1e-7


def gamma(m: int, n: int, k: int, r: int) -> float:
    """Approximation factor ``m^2 / (sqrt((k+1)(m-n+r)) - sqrt((n-r)(m-k-1)))^2``.

    Evaluated in the rationalized form ``(A + B + 2 sqrt(A B)) / (k+1-n+r)^2``
    with ``A = (k+1)(m-n+r)`` and ``B = (n-r)(m-k-1)``: since
    ``A - B = m (k+1-n+r)``, the two agree, and the subtraction of
    nearly equal square roots is gone.  ``A``, ``B``, ``A B`` and the
    denominator are exact integers, so only the square root, one
    addition and the division round: the result is within 2 ulp.

    Its preconditions are the bound's, so :class:`SelectionProblem`
    validates its shape by calling it.  Arguments that are not integers
    (a bool is not), or too large for float arithmetic, raise
    :class:`InvalidInput` too.
    """
    m, n, k, r = (_as_index(v, InvalidInput, name) for v, name in zip((m, n, k, r), "mnkr"))
    if not (m > k >= n - r >= 0 and m >= n and r >= 0):
        raise InvalidInput(
            f"the bound requires m > k >= n - r >= 0, m >= n and r >= 0; "
            f"got m={m}, n={n}, k={k}, r={r}"
        )
    a = (k + 1) * (m - n + r)
    b = (n - r) * (m - k - 1)
    try:
        return (a + b + 2.0 * math.sqrt(a * b)) / (k + 1 - n + r) ** 2
    except OverflowError:
        raise InvalidInput(f"gamma(m={m}, n={n}, k={k}, r={r}) is out of float range") from None


@dataclass(frozen=True)
class SelectionProblem:
    """Fixed block ``a`` (n x l, possibly l = 0), candidates ``b`` (n x m),
    budget ``k`` and root-approximation accuracy ``eps``.

    Construction takes the thin SVDs of ``[a b]`` and of ``a`` once
    (numerical rank as in :func:`~colsel.linalg.thin_svd`), and from them
    the baseline norms ``baseline_norms_sq = (|[a b]^+|_F^2, |[a b]^+|_2^2)``,
    ``gamma = gamma(m, n, k, r)`` and ``bound_factor`` (:func:`bound_factor`).
    It raises :class:`RankDeficient` unless ``[a b]`` has full row rank,
    and :class:`InvalidInput` unless ``a`` and ``b`` are
    :class:`~colsel.linalg.DenseMatrix` values whose row counts agree, ``k`` is an
    integer ``>= 1``, ``m``, ``n``, ``k`` and ``r = rank(a)`` meet the
    preconditions of :func:`gamma` (``m > k >= n - r`` and ``m >= n``),
    ``eps`` is a real number (stored as a float) with ``0 < eps < 1/(2k)``,
    both baseline norms are finite, positive normal floats, and the bound
    factor is a finite float.
    """

    a: DenseMatrix
    b: DenseMatrix
    k: int
    eps: float = DEFAULT_EPS
    a_svd: SvdFactors = field(init=False, repr=False, compare=False)
    stacked: SvdFactors = field(init=False, repr=False, compare=False)
    baseline_norms_sq: tuple[float, float] = field(init=False, repr=False, compare=False)
    gamma: float = field(init=False, repr=False, compare=False)
    bound_factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not isinstance(value, DenseMatrix):
                raise InvalidInput(f"{name} must be a DenseMatrix, got {type(value).__name__}")
        if self.a.rows != self.b.rows:
            raise InvalidInput(
                f"a and b must have equal row counts, got {self.a.rows} and {self.b.rows}"
            )
        n = self.b.rows
        stacked = thin_svd(hcat(self.a, self.b))
        if stacked.rank < n:
            raise RankDeficient(
                f"[a b] has numerical rank {stacked.rank} < n = {n}"
            )
        baseline = _pinv_norms_sq(stacked.sigma)
        if not all(sys.float_info.min <= v <= sys.float_info.max for v in baseline):
            raise InvalidInput(
                f"the squared pseudoinverse norms of [a b], {baseline}, must be finite "
                "positive normal floats"
            )
        a_svd = thin_svd(self.a)
        if _as_index(self.k, InvalidInput, "k") < 1:
            raise InvalidInput(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "gamma", gamma(self.m, n, self.k, a_svd.rank))
        object.__setattr__(self, "eps", _as_real(self.eps, InvalidInput, "eps"))
        if not 0.0 < self.eps < 1.0 / (2 * self.k):
            raise InvalidInput(
                f"eps must be in (0, 1/(2k)) = (0, {1.0 / (2 * self.k)}), got {self.eps}"
            )
        object.__setattr__(self, "a_svd", a_svd)
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "baseline_norms_sq", baseline)
        factor = bound_factor(self)
        if not math.isfinite(factor):
            raise InvalidInput(
                f"the bound factor gamma * (1 + |a^+ b|_F^2 / (m - n + r)) * (1 + 2 k eps) "
                f"must be a finite float, got {factor!r}"
            )
        object.__setattr__(self, "bound_factor", factor)

    @property
    def n(self) -> int:
        return self.b.rows

    @property
    def m(self) -> int:
        return self.b.cols

    @property
    def l(self) -> int:
        return self.a.cols

    @property
    def r(self) -> int:
        return self.a_svd.rank


@dataclass(frozen=True)
class TraceStep:
    """One greedy iteration: chosen column of ``b`` and its root value."""

    index: int
    lambda_min: float


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of a greedy run: the subset, both squared pseudoinverse
    norms, the corresponding baseline norms of ``[a b]``, and the proven
    multiplicative bound factor.  Its fields, and those of :class:`TraceStep`,
    in order, are the keys of the JSON report (``colsel.cli.serialize_report``)."""

    subset: tuple[int, ...]
    frob_sq: float
    spec_sq: float
    baseline_frob_sq: float
    baseline_spec_sq: float
    gamma: float
    bound_factor: float
    eps: float
    trace: tuple[TraceStep, ...]


def build_isotropic(prob: SelectionProblem) -> IsotropicInstance:
    """Reduce the problem to the isotropic frame via the thin SVD of ``[a b]``.

    The right singular vector rows form ``y`` (so ``y y^T = I``); its
    first ``l`` columns carry ``a``, whose rank is ``prob.r``, and the rest ``b``.
    """
    return IsotropicInstance(y=prob.stacked.vt, l=prob.l, r=prob.r, k=prob.k)


def _pinv_norms_sq(sigma: Sequence[float]) -> tuple[float, float]:
    """``(|q^+|_F^2, |q^+|_2^2) = (sum 1/sigma^2, 1/sigma_min^2)`` from the
    singular values of ``q`` kept by its thin SVD; both are zero when none are.
    They may leave the float range without a warning; callers range-check them."""
    with np.errstate(over="ignore", divide="ignore"):
        inv_sq = 1.0 / np.asarray(sigma) ** 2
        return float(np.sum(inv_sq)), float(inv_sq.max(initial=0.0))


def _subset_norms_sq(prob: SelectionProblem, subset: Sequence[int]) -> tuple[float, float]:
    """``(|[a b_S]^+|_F^2, |[a b_S]^+|_2^2)`` for the columns ``subset`` of ``b``.

    Raises :class:`RankDeficient` when ``[a b_S]`` fails the rank rule of
    :func:`~colsel.linalg.thin_svd`, or when a norm's ratio to the
    baseline overflows.
    """
    selected = thin_svd(hcat(prob.a, columns(prob.b, subset)))
    if selected.rank < prob.n:
        raise RankDeficient(
            f"selected columns rank-deficient: [a b_S] has numerical rank "
            f"{selected.rank} < n = {prob.n}"
        )
    norms = _pinv_norms_sq(selected.sigma)
    if not all(v / base < math.inf for v, base in zip(norms, prob.baseline_norms_sq)):
        raise RankDeficient(
            f"selected columns nearly rank-deficient: the squared pseudoinverse norms "
            f"of [a b_S], {norms}, over the baseline overflow"
        )
    return norms


def _within_bound(ratio: float, factor: float) -> bool:
    """Whether a squared norm over its baseline meets the bound ``factor``; the
    one comparison behind both :func:`verify_bound` and :func:`_check_report`."""
    return ratio <= factor * (1.0 + _ARITHMETIC_SLACK)


def bound_factor(prob: SelectionProblem) -> float:
    """Full multiplicative factor of the approximate greedy guarantee,
    ``gamma * (1 + |a^+ b|_F^2 / (m - n + r)) * (1 + 2 k eps)``, as
    :class:`SelectionProblem` computes and range-checks it once.

    With ``a = U diag(sigma) V^T``, ``|a^+ b|_F = |diag(1/sigma) U^T b|_F``
    because ``V`` has orthonormal columns.
    """
    f = prob.a_svd
    with np.errstate(over="ignore"):
        cross = (f.u.data.T @ prob.b.data) / np.asarray(f.sigma)[:, None]
        fixed_block = 1.0 + float(np.sum(cross * cross)) / (prob.m - prob.n + prob.r)
    return prob.gamma * fixed_block * (1.0 + 2.0 * prob.k * prob.eps)


def greedy_select(prob: SelectionProblem) -> SelectionReport:
    """Run the deterministic greedy selection and report both norms.

    Each candidate is scored by the smallest root of the expected
    polynomial of the extended partial.  Each iteration is one
    :func:`_score_step` call, which hands the partial's Gram and the
    remaining candidate columns to one
    :func:`~colsel.expected_charpoly.expected_poly_from_gram` call (one
    eigendecomposition of that Gram and one matrix product, with no
    candidate Gram formed), which returns one coefficient row per
    candidate.  :func:`_best_candidate` then takes the argmax of their
    :func:`~colsel.poly.smallest_root` values while calling it only on the
    rows that can still win, about one per step.  It is given the
    previous step's root, which by interlacing lies at most ``eps/2``
    right of the winner's exact root, so that its guesses start from one
    common point left of that root.  At the first step that root is
    ``-1``: every superset Gram ``G_T`` has ``0 <= G_T <= y y^T = I``, so
    every root lies in ``[-1, 0]``.
    Only the winner's Gram is formed, as the next iteration's partial Gram.
    The polynomials come in powers of ``y = x - 1``, so the roots are
    ``y`` values; a trace step records the chosen root in ``x``, as
    ``1 + y``.  An exact tie goes to the smallest column.  The winner and
    its root are those of a loop that roots every candidate, as far as
    each root is within ``eps/2`` of the polynomial's smallest root.

    Raises :class:`NotRealRooted` for a polynomial with no real root,
    :class:`RankDeficient` when the selected ``[a b_S]`` fails the rank
    rule or its norms overflow (as :func:`verify_bound` does), and
    :class:`AlgorithmFailure` when the subset breaks the proven
    guarantees; its ``report`` is the report that broke them.
    """
    inst = build_isotropic(prob)
    remaining = list(range(prob.m))
    chosen: list[int] = []
    trace: list[TraceStep] = []
    candidates = inst.candidates
    gram = inst.gram_fixed.data
    best_y = -1.0

    for _ in range(prob.k):
        # Every remaining candidate's expected polynomial, from one transform.
        v = candidates.take(remaining, axis=1)
        best, best_y = _score_step(inst, gram, len(chosen) + 1, v, prob.eps, best_y)
        j = remaining.pop(best)
        gram = _gram_updates(gram, v[:, best : best + 1])[0]
        chosen.append(j)
        trace.append(TraceStep(index=j, lambda_min=1.0 + best_y))

    frob_sq, spec_sq = _subset_norms_sq(prob, chosen)
    baseline_frob_sq, baseline_spec_sq = prob.baseline_norms_sq
    report = SelectionReport(
        subset=tuple(chosen),
        frob_sq=frob_sq,
        spec_sq=spec_sq,
        baseline_frob_sq=baseline_frob_sq,
        baseline_spec_sq=baseline_spec_sq,
        gamma=prob.gamma,
        bound_factor=prob.bound_factor,
        eps=prob.eps,
        trace=tuple(trace),
    )
    _check_report(report, prob)
    return report


def _score_step(
    inst: IsotropicInstance, gram: np.ndarray, j: int, v: np.ndarray, eps: float, previous: float
) -> tuple[int, float]:
    """One greedy step's scoring: the column of ``v`` whose extension of
    the size-``j - 1`` partial with Gram ``gram`` scores best, and its
    root, from one :func:`expected_poly_from_gram` call and
    :func:`_best_candidate`; ``previous`` is the previous step's root, or
    ``-1``."""
    rows = expected_poly_from_gram(inst, gram, j, v)
    return _best_candidate(rows, eps, previous)


def _best_candidate(rows: np.ndarray, eps: float, previous: float) -> tuple[int, float]:
    """The first row of ``rows`` whose :func:`~colsel.poly.smallest_root`
    is the largest, and that root; ``rows`` holds one candidate's
    coefficients per row, as :func:`expected_poly_from_gram` returns them,
    and ``previous`` is the root the previous step certified, or ``-1``.

    The parent's expected polynomial is an average of its children's, and
    they form an interlacing family, so some child's smallest root is at
    least the parent's: the winner's exact root is at least
    ``previous - eps/2``.  At the first step it is at least ``-1``, the
    floor of every root.  So ``y0 = previous - eps`` lies left of it, and
    not so near that the winner's value there is rounding noise.  From
    ``y0`` one Laguerre step on every row
    (:func:`~colsel.poly._laguerre_guesses`) guesses each root, and the
    row with the largest guess is rooted first; its certified root ``R0``
    is the bar.  One row-wise sign test at ``t = R0 - eps`` drops
    every row with a root at or below ``t``: its certified root is within
    ``eps/2`` of its smallest root, so below ``R0`` and neither a win nor
    a tie.  The rows left, the guessed one among them, are scanned in
    ascending order and only a strictly larger root is kept, so a tie goes
    to the first.  The guesses choose only which row is rooted first, so
    the winner and its root do not depend on them or on ``previous``.  A
    row with no real root keeps its sign at ``-inf`` everywhere, so it is
    never dropped, and its :func:`~colsel.poly.smallest_root` call raises
    :class:`NotRealRooted` as in a loop that roots every row.
    """

    def root(i: int) -> float:
        return smallest_root(_wrap(tuple(rows[i].tolist())), eps)

    guess = int(_laguerre_guesses(rows, previous - eps).argmax())
    guess_y = root(guess)
    contenders = ~_roots_at_or_below(rows, guess_y - eps)
    # R0 competes even where the guessed row's own sign contradicts it
    contenders[guess] = True
    best_y, best = -math.inf, -1
    for i in contenders.nonzero()[0].tolist():
        root_y = guess_y if i == guess else root(i)
        if root_y > best_y:
            best_y, best = root_y, i
    return best, best_y


def _check_report(report: SelectionReport, prob: SelectionProblem) -> None:
    """Re-assert the proven guarantees on the computed output; the
    :class:`AlgorithmFailure` it raises carries ``report``."""
    factor = report.bound_factor
    for name, norm_sq, baseline_sq in (
        ("frob_sq", report.frob_sq, report.baseline_frob_sq),
        ("spec_sq", report.spec_sq, report.baseline_spec_sq),
    ):
        if not _within_bound(norm_sq / baseline_sq, factor):
            raise AlgorithmFailure(
                f"selected subset violates the proven norm bound: {name} {norm_sq!r} exceeds "
                f"the cap {factor * (1.0 + _ARITHMETIC_SLACK) * baseline_sq!r} = bound_factor "
                f"{factor!r} * (1 + {_ARITHMETIC_SLACK:g}) * baseline {baseline_sq!r}",
                report=report,
            )
    # Root values may drop by at most eps per step; both reads carry
    # eps approximation error, so 2*eps is the observable slack.
    for step, (prev, cur) in enumerate(zip(report.trace, report.trace[1:]), start=2):
        if cur.lambda_min < prev.lambda_min - 2.0 * prob.eps:
            raise AlgorithmFailure(
                f"trace root values dropped by more than 2*eps = {2.0 * prob.eps:g} at "
                f"step {step}: column {prev.index} had lambda_min {prev.lambda_min!r}, "
                f"column {cur.index} has {cur.lambda_min!r}",
                report=report,
            )


def verify_bound(prob: SelectionProblem, subset: Iterable[int]) -> tuple[bool, float, float]:
    """Check a given subset against the proven bound.

    Returns ``(holds, ratio_frob, ratio_spec)`` where the ratios compare
    the subset's squared pseudoinverse norms to the baseline ``[a b]``
    norms; the bound holds when both are at most ``prob.bound_factor``,
    which includes the ``(1 + 2 k eps)`` factor the approximate
    algorithm is entitled to, up to a float slack of ``1e-7`` relative.

    Raises :class:`InvalidSubset` unless ``subset`` is an iterable of
    ``k`` distinct integer column indices of ``b``, and
    :class:`RankDeficient` when ``[a b_S]`` fails the rank rule or its
    norms overflow.
    """
    subset = _as_indices(subset, prob.m, InvalidSubset)
    if len(subset) != prob.k:
        raise InvalidSubset(f"subset must have size k = {prob.k}, got {len(subset)}")
    frob_sq, spec_sq = _subset_norms_sq(prob, subset)
    baseline_frob_sq, baseline_spec_sq = prob.baseline_norms_sq
    ratio_frob = frob_sq / baseline_frob_sq
    ratio_spec = spec_sq / baseline_spec_sq

    holds = all(_within_bound(r, prob.bound_factor) for r in (ratio_frob, ratio_spec))
    return holds, ratio_frob, ratio_spec


def min_singular_check(inst: IsotropicInstance, subset: Sequence[int]) -> float:
    """Smallest squared singular value of the fixed-plus-selected block of ``y``.

    Test helper for the isotropic guarantee; ``subset`` names distinct
    candidates by their columns of ``b``, as a report's ``subset`` does.
    The eigenvalue is :func:`~colsel.expected_charpoly._psd_eigh`'s, with
    its checks and its clamp of rounding noise to zero.
    """
    gram = _partial_gram(inst, _checked_partial(inst, subset, inst.m))
    return float(_psd_eigh(gram.data)[0][0])
