"""Greedy column selection with a fixed block, plus bound evaluation.

The selection loop works in the isotropic frame obtained from the thin
SVD of ``[A B]``: at each step it evaluates, for every remaining
candidate column, an eps-approximate smallest root of the expected
characteristic polynomial of the extended partial, and keeps the argmax
(ties broken by smallest column index, so results are reproducible and
independent of evaluation order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AlgorithmFailure, InvalidInput, InvalidSubset, RankDeficient
from .expected_charpoly import (
    IsotropicInstance,
    _check_partial,
    _partial_gram,
    expected_poly_from_gram,
)
from .linalg import (
    DenseMatrix,
    SvdFactors,
    columns,
    gram_update,
    hcat,
    thin_svd,
)
from .poly import smallest_root

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

# Slack applied when re-checking the proven bound on computed output;
# covers float arithmetic only, not algorithmic error.
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
    validates its shape by calling it.
    """
    if not (m > k >= n - r >= 0 and m >= n and r >= 0):
        raise InvalidInput(
            f"the bound requires m > k >= n - r >= 0, m >= n and r >= 0; "
            f"got m={m}, n={n}, k={k}, r={r}"
        )
    a = (k + 1) * (m - n + r)
    b = (n - r) * (m - k - 1)
    return (a + b + 2.0 * math.sqrt(a * b)) / (k + 1 - n + r) ** 2


@dataclass(frozen=True)
class SelectionProblem:
    """Fixed block ``a`` (n x l, possibly l = 0), candidates ``b`` (n x m),
    budget ``k`` and root-approximation accuracy ``eps``.

    Construction takes the thin SVDs of ``[a b]`` and of ``a`` once
    (numerical rank as in :func:`~colsel.linalg.thin_svd`) and validates
    that ``[a b]`` has full row rank, that ``k >= 1``, that ``m``, ``n``,
    ``k`` and ``r = rank(a)`` meet the preconditions of :func:`gamma`
    (``m > k >= n - r`` and ``m >= n``), and that ``eps < 1/(2k)``.
    """

    a: DenseMatrix
    b: DenseMatrix
    k: int
    eps: float = 1e-6

    def __post_init__(self) -> None:
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
        a_svd = thin_svd(self.a)
        if self.k < 1:
            raise InvalidInput(f"k must be >= 1, got {self.k}")
        gamma(self.m, n, self.k, a_svd.rank)  # raises unless the bound's preconditions hold
        if not 0.0 < self.eps < 1.0 / (2 * self.k):
            raise InvalidInput(
                f"eps must be in (0, 1/(2k)) = (0, {1.0 / (2 * self.k)}), got {self.eps}"
            )
        object.__setattr__(self, "_a_svd", a_svd)
        object.__setattr__(self, "_stacked", stacked)

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

    @property
    def a_svd(self) -> SvdFactors:
        """Thin SVD of ``a``, computed once at construction."""
        return self._a_svd  # type: ignore[attr-defined]

    @property
    def stacked(self) -> SvdFactors:
        """Thin SVD of ``[a b]`` (rank ``n``), computed once at construction."""
        return self._stacked  # type: ignore[attr-defined]


class TraceStep(NamedTuple):
    """One greedy iteration: chosen column of ``b`` and its root value."""

    index: int
    lambda_min: float


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of a greedy run: the subset, both squared pseudoinverse
    norms, the corresponding baseline norms of ``[a b]``, and the proven
    multiplicative bound factor."""

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

    The right singular vector rows form ``y`` (so ``y y^T = I``); the
    first ``l`` columns carry the fixed block, whose rank is ``prob.r``.
    """
    return IsotropicInstance(y=prob.stacked.vt, l=prob.l, r=prob.r, k=prob.k)


def _pinv_norms_sq(sigma: Sequence[float]) -> tuple[float, float]:
    """``(|q^+|_F^2, |q^+|_2^2) = (sum 1/sigma^2, 1/sigma_min^2)`` from the
    singular values of ``q`` kept by its thin SVD; both are zero when none are."""
    inv_sq = 1.0 / np.asarray(sigma) ** 2
    return float(np.sum(inv_sq)), float(inv_sq.max(initial=0.0))


def _fixed_block_factor(prob: SelectionProblem) -> float:
    """The term ``1 + |a^+ b|_F^2 / (m - n + r)``; equals one when l = 0.

    With ``a = U diag(sigma) V^T``, ``|a^+ b|_F = |diag(1/sigma) U^T b|_F``
    because ``V`` has orthonormal columns.
    """
    f = prob.a_svd
    cross = (f.u.data.T @ prob.b.data) / np.asarray(f.sigma)[:, None]
    return 1.0 + float(np.sum(cross * cross)) / (prob.m - prob.n + prob.r)


def bound_factor(prob: SelectionProblem) -> float:
    """Full multiplicative factor of the approximate greedy guarantee."""
    return (
        gamma(prob.m, prob.n, prob.k, prob.r)
        * _fixed_block_factor(prob)
        * (1.0 + 2.0 * prob.k * prob.eps)
    )


def greedy_select(
    prob: SelectionProblem,
    candidate_order: Callable[[Sequence[int]], Sequence[int]] | None = None,
) -> SelectionReport:
    """Run the deterministic greedy selection and report both norms.

    ``candidate_order`` optionally permutes the evaluation order inside
    one iteration; it exists to demonstrate that the argmax tie-break
    (smallest column index) makes the result order-independent.
    Each candidate is scored by the smallest root of the expected
    polynomial of the extended partial (see
    :func:`~colsel.expected_charpoly.expected_poly_from_gram`).  A
    polynomial with no real root raises :class:`NotRealRooted`; a
    computed subset that breaks the proven guarantees raises
    :class:`AlgorithmFailure`.
    """
    inst = build_isotropic(prob)
    offset = prob.l  # selectable column j of b sits at y column offset + j
    remaining = list(range(prob.m))
    chosen: list[int] = []
    trace: list[TraceStep] = []
    gram = inst.gram_fixed

    for _ in range(prob.k):
        order = list(candidate_order(remaining)) if candidate_order else remaining
        best = (-math.inf, -1, gram)
        for j in order:
            cand_gram = gram_update(gram, inst.y.data[:, offset + j])
            f = expected_poly_from_gram(inst, cand_gram, len(chosen) + 1)
            lam = smallest_root(f, prob.eps)
            if lam > best[0] or (lam == best[0] and j < best[1]):
                best = (lam, j, cand_gram)
        lam, j, gram = best
        chosen.append(j)
        remaining.remove(j)
        trace.append(TraceStep(index=j, lambda_min=lam))

    selected = hcat(prob.a, columns(prob.b, chosen))
    frob_sq, spec_sq = _pinv_norms_sq(thin_svd(selected).sigma)
    baseline_frob_sq, baseline_spec_sq = _pinv_norms_sq(prob.stacked.sigma)
    report = SelectionReport(
        subset=tuple(chosen),
        frob_sq=frob_sq,
        spec_sq=spec_sq,
        baseline_frob_sq=baseline_frob_sq,
        baseline_spec_sq=baseline_spec_sq,
        gamma=gamma(prob.m, prob.n, prob.k, prob.r),
        bound_factor=bound_factor(prob),
        eps=prob.eps,
        trace=tuple(trace),
    )
    _check_report(report, prob)
    return report


def _check_report(report: SelectionReport, prob: SelectionProblem) -> None:
    """Re-assert the proven guarantees on the computed output."""
    cap = report.bound_factor * (1.0 + _ARITHMETIC_SLACK)
    if (
        report.frob_sq > cap * report.baseline_frob_sq
        or report.spec_sq > cap * report.baseline_spec_sq
    ):
        raise AlgorithmFailure(
            "selected subset violates the proven norm bound; "
            f"frob {report.frob_sq:.6g} vs cap {cap * report.baseline_frob_sq:.6g}, "
            f"spec {report.spec_sq:.6g} vs cap {cap * report.baseline_spec_sq:.6g}"
        )
    # Root values may drop by at most eps per step; both reads carry
    # eps approximation error, so 2*eps is the observable slack.
    for prev, cur in zip(report.trace, report.trace[1:]):
        if cur.lambda_min < prev.lambda_min - 2.0 * prob.eps:
            raise AlgorithmFailure(
                f"trace root values dropped by more than 2*eps: "
                f"{prev.lambda_min} -> {cur.lambda_min}"
            )


def verify_bound(prob: SelectionProblem, subset: Sequence[int]) -> tuple[bool, float, float]:
    """Check a given subset against the proven bound.

    Returns ``(holds, ratio_frob, ratio_spec)`` where the ratios compare
    the subset's squared pseudoinverse norms to the baseline ``[a b]``
    norms; the bound holds when both are at most :func:`bound_factor`,
    which includes the ``(1 + 2 k eps)`` factor the approximate
    algorithm is entitled to.
    """
    idx = [int(j) for j in subset]
    if len(idx) != prob.k:
        raise InvalidSubset(f"subset must have size k = {prob.k}, got {len(idx)}")
    selected = thin_svd(hcat(prob.a, columns(prob.b, idx)))
    if selected.rank < prob.n:
        raise RankDeficient("selected columns rank-deficient")

    frob_sq, spec_sq = _pinv_norms_sq(selected.sigma)
    baseline_frob_sq, baseline_spec_sq = _pinv_norms_sq(prob.stacked.sigma)
    ratio_frob = frob_sq / baseline_frob_sq
    ratio_spec = spec_sq / baseline_spec_sq

    cap = bound_factor(prob)
    return (ratio_frob <= cap and ratio_spec <= cap), ratio_frob, ratio_spec


def min_singular_check(inst: IsotropicInstance, subset: Sequence[int]) -> float:
    """Smallest squared singular value of the fixed-plus-selected block of ``y``.

    Test helper for the isotropic guarantee; ``subset`` holds distinct
    selectable column indices of ``inst.y``.
    """
    idx = _check_partial(inst, subset, inst.m)
    return float(np.linalg.eigvalsh(_partial_gram(inst, idx).data)[0])
