"""Greedy selection loop, reduction to the isotropic frame, bounds."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from colsel import expected_charpoly, selector
from colsel.cli import serialize_report
from colsel.errors import AlgorithmFailure, InvalidInput, InvalidSubset, RankDeficient
from colsel.expected_charpoly import _psd_eigenvalues, expected_poly, expected_poly_from_gram
from colsel.linalg import DenseMatrix, _gram_updates, gram_update, norms_sq, pseudoinverse, thin_svd
from colsel.oracle import (
    brute_force,
    companion_smallest_root,
    replay_check,
    replay_steps,
    stacked_expected_polys,
)
from colsel.poly import Polynomial, from_roots, smallest_root
from colsel.selector import (
    SelectionProblem,
    SelectionReport,
    TraceStep,
    bound_factor,
    build_isotropic,
    gamma,
    greedy_select,
    min_singular_check,
    verify_bound,
)
from conftest import (
    harmonic_frame,
    in_call_order,
    in_x,
    random_problem,
    replayed_rows,
    spy,
    valid_budgets,
)

DOUBLED_IDENTITY = DenseMatrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def empty_block(rows: int) -> DenseMatrix:
    return DenseMatrix.zeros(rows, 0)


def test_gamma_values():
    assert gamma(4, 2, 3, 0) == pytest.approx(2.0)
    assert gamma(10, 3, 4, 3) == pytest.approx(2.0)
    assert gamma(2, 1, 1, 0) == pytest.approx(2.0)


def test_gamma_exact_to_two_ulp():
    assert gamma(4, 2, 3, 0) == 2.0
    with localcontext() as ctx:
        ctx.prec = 60
        for m in range(2, 40):
            for n in range(1, min(m, 8) + 1):
                for r in range(n + 1):
                    for k in range(n - r, m):
                        root_in = Decimal((k + 1) * (m - n + r)).sqrt()
                        root_out = Decimal((n - r) * (m - k - 1)).sqrt()
                        exact = Decimal(m * m) / (root_in - root_out) ** 2
                        error = abs(Decimal(gamma(m, n, k, r)) - exact)
                        assert error <= 2 * Decimal(math.ulp(float(exact))), (m, n, k, r)


def test_gamma_validation():
    with pytest.raises(InvalidInput):
        gamma(4, 2, 4, 0)  # k = m
    with pytest.raises(InvalidInput):
        gamma(4, 3, 1, 0)  # k < n - r
    with pytest.raises(InvalidInput):
        gamma(2, 3, 1, 2)  # m < n
    with pytest.raises(InvalidInput, match="r >= 0"):
        gamma(10, 2, 5, -1)  # negative rank
    with pytest.raises(InvalidInput, match="n=2, k=3, r=0"):
        gamma(10**160, 2, 3, 0)  # sqrt(A B) leaves the float range
    assert gamma(np.int64(4), np.int64(2), np.int64(3), np.int64(0)) == 2.0
    for args, name in (
        ((4.5, 2, 3, 0), "m"),
        ((4, 2.0, 3, 0), "n"),
        ((4, 2, 3.0, 0), "k"),
        ((4, 2, 3, 0.5), "r"),
        ((4, 2, 3, False), "r"),
    ):
        with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
            gamma(*args)


def test_problem_validation():
    b = DenseMatrix([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    with pytest.raises(RankDeficient):
        SelectionProblem(a=empty_block(2), b=b, k=2)
    good = DenseMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(InvalidInput):
        SelectionProblem(a=empty_block(2), b=good, k=3)  # k > m - 1
    with pytest.raises(InvalidInput):
        SelectionProblem(a=empty_block(2), b=good, k=1)  # k < n - r
    with pytest.raises(InvalidInput) as err:
        SelectionProblem(a=empty_block(2), b=good, k=2, eps=0.5)
    assert "1/(2k)" in str(err.value)
    # m < n: [a b] has full row rank and n - r <= k <= m - 1, but the bound needs m >= n
    rng = np.random.default_rng(2)
    a, b = (DenseMatrix(rng.standard_normal((3, 2))) for _ in range(2))
    with pytest.raises(InvalidInput, match="m >= n"):
        SelectionProblem(a=a, b=b, k=1)
    with pytest.raises(InvalidInput, match="equal row counts, got 3 and 2"):
        SelectionProblem(a=empty_block(3), b=good, k=2)
    with pytest.raises(InvalidInput, match="k must be >= 1, got 0"):
        SelectionProblem(a=DenseMatrix(np.eye(2)), b=good, k=0)  # n - r = 0


@pytest.mark.parametrize("name", ["a", "b"])
def test_problem_takes_dense_matrices_only(name):
    args = {"a": empty_block(2), "b": DOUBLED_IDENTITY, name: np.eye(2, 4)}
    with pytest.raises(InvalidInput, match=f"{name} must be a DenseMatrix, got ndarray"):
        SelectionProblem(**args, k=2)


def test_build_isotropic_no_fixed_block():
    prob = SelectionProblem(a=empty_block(2), b=DenseMatrix([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]]), k=2)
    inst = build_isotropic(prob)
    assert inst.l == 0
    assert inst.r == 0
    assert np.max(np.abs(inst.gram_fixed.data)) == 0.0


def test_build_isotropic_fixed_block_indices():
    b = DenseMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    a = DenseMatrix([[1.0], [0.0]])
    prob = SelectionProblem(a=a, b=b, k=1)
    inst = build_isotropic(prob)
    assert inst.l == 1
    assert inst.m == 3
    # in the frame of [a b], the fixed block is a and candidate j is column j of b
    u_sigma = prob.stacked.u.data * np.asarray(prob.stacked.sigma)
    assert np.allclose(u_sigma @ inst.fixed, a.data, rtol=0.0, atol=1e-12)
    assert np.allclose(u_sigma @ inst.candidates, b.data, rtol=0.0, atol=1e-12)
    assert inst.r == 1


def test_build_isotropic_reads_the_problem_rank(monkeypatch):
    prob = _rank_one_fixed_block_problem()
    calls = [spy(monkeypatch, module, "thin_svd") for module in (selector, expected_charpoly)]
    inst = build_isotropic(prob)
    assert calls == [[], []]
    assert inst.r == prob.r == 1


def test_build_isotropic_orthonormal_rows():
    rng = np.random.default_rng(83)
    prob = random_problem(rng, n=3, m=8, ell=0, k=4)
    inst = build_isotropic(prob)
    gram = inst.y.data @ inst.y.data.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8


def test_greedy_on_doubled_identity():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    report = greedy_select(prob)
    assert report.frob_sq == pytest.approx(2.0, rel=1e-9)
    assert report.spec_sq == pytest.approx(1.0, rel=1e-9)
    # chosen pair must not duplicate a direction
    i, j = sorted(report.subset)
    assert (j - i) % 4 != 2
    assert report.baseline_frob_sq == pytest.approx(1.0, rel=1e-9)
    assert report.baseline_spec_sq == pytest.approx(0.5, rel=1e-9)


def test_greedy_prefers_larger_leverage():
    prob = SelectionProblem(a=empty_block(1), b=DenseMatrix([[0.6, 0.8]]), k=1)
    report = greedy_select(prob)
    assert report.subset == (1,)
    assert report.frob_sq == pytest.approx(1.0 / 0.64, rel=1e-9)


def test_greedy_bound_at_maximal_budget():
    rng = np.random.default_rng(89)
    prob = random_problem(rng, n=2, m=5, ell=0, k=4)
    report = greedy_select(prob)
    assert report.frob_sq <= report.bound_factor * report.baseline_frob_sq
    assert report.spec_sq <= report.bound_factor * report.baseline_spec_sq


def test_greedy_trace_shape_and_monotonicity():
    rng = np.random.default_rng(97)
    prob = random_problem(rng, n=3, m=9, ell=1, k=5)
    report = greedy_select(prob)
    assert len(report.trace) == 5
    assert [step.index for step in report.trace] == list(report.subset)
    for prev, cur in zip(report.trace, report.trace[1:]):
        assert cur.lambda_min >= prev.lambda_min - 2 * prob.eps


def test_greedy_is_deterministic():
    rng = np.random.default_rng(101)
    a = DenseMatrix(rng.standard_normal((3, 2)))
    b = DenseMatrix(rng.standard_normal((3, 7)))
    first = greedy_select(SelectionProblem(a=a, b=b, k=4))
    second = greedy_select(SelectionProblem(a=a, b=b, k=4))
    assert first == second  # bit-identical floats included


def test_greedy_breaks_ties_by_smallest_column():
    # Columns j and j + 3 of b are equal.  The frame set here, [Y Y] / sqrt(2)
    # with Y the right singular vectors of the first half, is b's exact
    # isotropic frame with bit-identical twins, so a column and its twin get
    # bit-identical expected polynomials at every step: an exact tie, which
    # goes to the smaller column.
    rng = np.random.default_rng(103)
    half = rng.standard_normal((2, 3))
    prob = SelectionProblem(a=empty_block(2), b=DenseMatrix(np.hstack([half, half])), k=3)
    y = thin_svd(DenseMatrix(half)).vt.data / math.sqrt(2.0)
    # build_isotropic reads the frame from the problem's SVD of [a b]
    frame = dataclasses.replace(prob.stacked, vt=DenseMatrix(np.hstack([y, y])))
    object.__setattr__(prob, "stacked", frame)
    report = greedy_select(prob)
    assert report.subset == (2, 1, 0)
    for step, rows, _ in replayed_rows(prob, report.subset):
        twin = step.columns.index(step.columns[step.pick] + 3)
        assert rows[step.pick].tobytes() == rows[twin].tobytes()


def _report(prob: SelectionProblem):
    """The report of ``greedy_select(prob)`` and ``None``, or, where the run
    raises :class:`AlgorithmFailure` carrying the report that broke the
    guarantees, that report and the exception."""
    try:
        return greedy_select(prob), None
    except AlgorithmFailure as exc:
        if exc.report is None:
            raise
        return exc.report, exc


def _full_loop(rows: np.ndarray, eps: float) -> tuple[int, float]:
    """The loop with no screen: one :func:`smallest_root` call per row,
    ascending, keeping a strictly larger root only."""
    best_y, best = -math.inf, -1
    for i, row in enumerate(rows.tolist()):
        root_y = smallest_root(Polynomial(row), eps)
        if root_y > best_y:
            best_y, best = root_y, i
    return best, best_y


def _assert_the_screen_replays_the_full_loop(prob: SelectionProblem) -> None:
    report, _ = _report(prob)
    for step, rows, previous in replayed_rows(prob, report.subset):
        assert selector._best_candidate(rows, prob.eps, previous) == _full_loop(rows, prob.eps)


def _near_tied_problem(seed: int) -> SelectionProblem:
    """(4, 10, 1, 5) with columns 1 and 3 within 1e-9 of columns 0 and 2."""
    rng = np.random.default_rng([4, 10, 1, 5, seed])
    b = rng.standard_normal((4, 10))
    b[:, 1] = b[:, 0] + 1e-9 * rng.standard_normal(4)
    b[:, 3] = b[:, 2] * (1 + 1e-9)
    return SelectionProblem(a=DenseMatrix(rng.standard_normal((4, 1))), b=DenseMatrix(b), k=5)


@pytest.mark.parametrize(
    "n, m, ell, k, seeds",
    [(6, 48, 3, 12, 3), (4, 14, 2, 5, 6), (4, 7, 0, 5, 6), (2, 33, 0, 16, 3), (12, 100, 6, 40, 1)],
)
def test_greedy_replays_the_loop_that_roots_every_candidate(n, m, ell, k, seeds):
    # The screen drops only rows whose roots are certified below the bar, so
    # at every step of a run it picks the full loop's winner, with its root.
    for seed in range(seeds):
        prob = random_problem(np.random.default_rng([n, m, ell, k, seed]), n, m, ell, k)
        _assert_the_screen_replays_the_full_loop(prob)


def test_greedy_replays_the_full_loop_on_near_ties_and_duplicated_columns():
    for seed in range(4):
        _assert_the_screen_replays_the_full_loop(_near_tied_problem(seed))
    for case in ("duplicated", "duplicated, a from b"):
        _assert_the_screen_replays_the_full_loop(_corner_problem(case, 0))


def test_every_row_the_screen_drops_has_its_root_below_the_bar(monkeypatch):
    # A dropped row has a root at or below t = R0 - eps, where R0 is the
    # certified root of the first row rooted; the companion oracle, good to
    # about 1e-8 here, agrees to within eps/4.  The screens are those of
    # every step of four runs.
    runs = []
    for shape in ((6, 48, 3, 12), (4, 14, 2, 5), (4, 7, 0, 5)):
        runs.append(random_problem(np.random.default_rng(list(shape)), *shape))
    runs.append(_near_tied_problem(0))
    runs = [(prob, greedy_select(prob).subset) for prob in runs]
    screens = spy(monkeypatch, selector, "_roots_at_or_below")
    for prob, subset in runs:
        for _, rows, previous in replayed_rows(prob, subset):
            selector._best_candidate(rows, prob.eps, previous)
    assert sum(int(call.result.sum()) for call in screens) > 500
    eps = selector.DEFAULT_EPS  # every problem here has the default eps
    for (rows, t), _, dropped, _ in screens:
        for row in rows[dropped]:
            assert companion_smallest_root(Polynomial(row)) <= t + 0.25 * eps


def test_the_guessed_row_competes_even_where_its_own_sign_drops_it(monkeypatch):
    # The float certificates behind smallest_root can fail (at the minimal
    # budget they do), and then the sign at R0 - eps may contradict R0 on
    # the guessed row itself.  That row still competes, so a step always
    # ends with a winner and its root.
    monkeypatch.setattr(selector, "_roots_at_or_below", lambda rows, t: np.ones(len(rows), bool))
    rows = np.array([from_roots(r).coeffs for r in ([-0.5, -0.1], [-0.2, -0.1], [-0.8, -0.3])])
    best, best_y = selector._best_candidate(rows, 1e-6, -1.0)
    assert best == 1 and best_y == smallest_root(Polynomial(rows[1]), 1e-6)


def test_the_screen_leaves_few_roots_to_certify(monkeypatch):
    # One Laguerre step from the parent's score picks the winner nearly
    # always, and the screen drops every other row: without it each wide
    # step roots all 42.5 candidates left on average.  On the wide shape
    # and at degree 12 a step roots at most 1.1 rows on average, over the
    # steps of runs.
    def roots_per_step(problems) -> float:
        runs = [(prob, greedy_select(prob).subset) for prob in problems]
        with monkeypatch.context() as patch:
            calls = spy(patch, selector, "smallest_root")
            steps = 0
            for prob, subset in runs:
                for _, rows, previous in replayed_rows(prob, subset):
                    selector._best_candidate(rows, prob.eps, previous)
                    steps += 1
        return len(calls) / steps

    wide = [random_problem(np.random.default_rng(seed), 6, 48, 3, 12) for seed in range(10)]
    assert roots_per_step(wide) <= 1.1
    assert roots_per_step([random_problem(np.random.default_rng(0), 12, 100, 0, 40)]) <= 1.1


def test_each_greedy_step_is_one_score_step_through_the_module_bindings(monkeypatch):
    # The loop scores only through _score_step, once per step, on the
    # replayed step's inputs and the root the step before certified; and
    # _score_step reaches the transform and the pick through selector's own
    # bindings, which are what a tracer that wraps module names sees.
    prob = random_problem(np.random.default_rng(5), 6, 48, 3, 12)
    names = ("_score_step", "expected_poly_from_gram", "_best_candidate")
    calls = dict(zip(names, (spy(monkeypatch, selector, name) for name in names)))
    subset = greedy_select(prob).subset
    assert [name for name, _ in in_call_order(**calls)] == list(names) * prob.k
    previous = -1.0
    for call, step in zip(calls["_score_step"], replay_steps(prob, subset)):
        _, gram, j, v, eps, prior = call.args
        assert (j, eps, prior) == (step.j, prob.eps, previous)
        assert np.array_equal(gram, step.gram) and np.array_equal(v, step.v)
        assert call.result[0] == step.pick
        previous = call.result[1]


# Roots of the determinant-lemma transform within this many eps of the
# stacked one's: 10x the largest difference measured on the n <= 6
# replays below, 1.25e-4 at the wide shape.
_REPLAY_ROOT_TOL = 1.3e-3


def _assert_replays(prob: SelectionProblem, root_tol: float | None, steps: int | None = None) -> float:
    """At each step of a replay of ``greedy_select``'s subset, the rows of
    the determinant-lemma transform pick, by the screen, the candidate the
    stacked transform picks (as the loop scored before the lemma: every
    candidate's Gram through the oracle's stacked transform, one ``eigh``
    per Gram, every candidate rooted, the first of a tie), with a root
    within ``root_tol * eps`` of its root (unchecked for ``None``); and the
    stacked Gram of the pick is bit for bit the one the next step starts
    from.  Only the first ``steps`` steps if given.  Returns the largest
    root difference over ``eps``."""
    inst = build_isotropic(prob)
    gaps = []
    replay = replayed_rows(prob, greedy_select(prob).subset)
    for step, rows, previous in itertools.islice(replay, steps):
        grams = _gram_updates(step.gram, step.v)
        scores = [smallest_root(f, prob.eps) for f in stacked_expected_polys(inst, grams, step.j)]
        stacked = max(range(len(scores)), key=scores.__getitem__)  # the first of a tie
        best, best_y = selector._best_candidate(rows, prob.eps, previous)
        assert best == stacked
        picked = step.v[:, step.pick : step.pick + 1]
        assert grams[step.pick].tobytes() == _gram_updates(step.gram, picked)[0].tobytes()
        gaps.append(abs(best_y - scores[stacked]) / prob.eps)
    gap = max(gaps)
    assert root_tol is None or gap <= root_tol
    return gap


@pytest.mark.parametrize(
    "n, m, ell, k, rank_a",
    [
        (6, 48, 3, 12, None),  # the benchmark's wide shape
        (5, 14, 4, 4, 2),  # a rank-deficient fixed block
        (4, 7, 0, 5, None),  # a = m - n - j < 0 from j = 4: exact zeros in the charpoly
        # At j = 1 and 2 some weight ratio w_i / w_n, with w_n > 2**53, comes out
        # different from float(w_i) / float(w_n), which rounds twice.
        (2, 33, 0, 16, None),
        # degree 12 with a fixed block: some contenders take the Sturm fallback
        (12, 100, 6, 40, None),
    ],
)
def test_batched_grams_replay_the_per_candidate_loop_bit_for_bit(n, m, ell, k, rank_a):
    # The determinant-lemma transform against the oracle's stacked one.  At
    # degree 12 a root moves by up to tens of eps under last-bit changes of
    # the coefficients (ROADMAP item 3): the roots of steps 1-38 differ by
    # up to 10.7 eps, and at step 39 (d = k - j = 1) of the first instance
    # the two transforms pick different columns, whose exact scores are
    # 22.5 eps apart.  So only the picks and Grams of the first k - 2
    # steps are pinned there, and no root.
    rng = np.random.default_rng([n, m, ell, k])
    for _ in range(2):
        prob = random_problem(rng, n, m, ell, k, rank_a=rank_a)
        if n == 12:
            _assert_replays(prob, None, steps=k - 2)
        else:
            _assert_replays(prob, _REPLAY_ROOT_TOL)


def test_greedy_replays_near_tied_columns():
    # Columns 1 and 3 are within 1e-9 of columns 0 and 2, so their roots
    # come within eps of the running best, where the screen keeps both.
    for seed in range(4):
        _assert_replays(_near_tied_problem(seed), _REPLAY_ROOT_TOL)


def test_batched_grams_replay_an_eigenvalue_exactly_one():
    # Row 0 of b is zero but in column 0, so every partial Gram holding
    # column 0 has the eigenvalue one exactly.  eigvalsh returns it within
    # rounding on either side of one, where an order by |mu - 1| and the
    # transforms' by descending mu can differ.
    rng = np.random.default_rng([4, 7, 0, 5, 1])
    above_one = 0
    for _ in range(40):
        b = rng.standard_normal((4, 7))
        b[0, 1:] = 0.0
        prob = SelectionProblem(a=empty_block(4), b=DenseMatrix(b), k=5)
        inst = build_isotropic(prob)
        full = gram_update(inst.gram_fixed, inst.candidates[:, 0]).data
        above_one += np.linalg.eigvalsh(full)[-1] > 1.0
        _assert_replays(prob, _REPLAY_ROOT_TOL)
    assert above_one > 0


@pytest.mark.parametrize("n, m, ell, k", [(6, 48, 3, 12), (4, 7, 0, 5)])
def test_greedy_takes_one_eigendecomposition_and_no_candidate_grams_per_step(
    monkeypatch, n, m, ell, k
):
    # The transform decomposes the partial's n x n Gram once per step, on
    # the inputs of every step of a run: no (C, n, n) stack and no
    # eigensolve per candidate.
    prob = random_problem(np.random.default_rng([n, m, ell, k]), n, m, ell, k)
    inst = build_isotropic(prob)
    steps = list(replay_steps(prob, greedy_select(prob).subset))
    eigh, eigvalsh = (spy(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh"))
    for step in steps:
        expected_poly_from_gram(inst, step.gram, step.j, step.v)
    assert ([np.shape(call.args[0]) for call in eigh], eigvalsh) == ([(n, n)] * k, [])


@pytest.mark.parametrize("n, m, ell, k", [(6, 48, 3, 12), (12, 100, 0, 40), (4, 7, 0, 5)])
def test_greedy_grams_have_eigenvalues_in_the_unit_interval(n, m, ell, k):
    # The transform lists r = mu - 1 by ascending |r| as eigh's order
    # reversed, which holds because every mu lies in [0, 1]: so at every
    # step of a run, for every candidate.
    rng = np.random.default_rng([n, m, ell, k])
    prob = random_problem(rng, n, m, ell, k)
    steps = list(replay_steps(prob, greedy_select(prob).subset))
    assert len(steps) == k
    for step in steps:
        eig = _psd_eigenvalues(_gram_updates(step.gram, step.v))
        assert eig.min() >= 0.0 and eig.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("n, m, ell, k", [(6, 48, 3, 12), (4, 14, 2, 5), (4, 7, 0, 5)])
def test_every_score_lies_between_the_candidate_gram_and_the_identity(n, m, ell, k):
    # Every size-k superset T of a partial extended by v has
    # G + v v^T <= G_T <= I, so the average of the det(xI - G_T) has no
    # root outside [mu_min(G + v v^T), 1], and none below x = 0 (y = -1),
    # the floor the greedy loop starts from.  In powers of y = x - 1 each
    # det((y + 1)I - G_T) has roots mu - 1 <= 0, so no negative coefficient.
    # The trace value is within eps of the best score.
    for seed in range(3):
        prob = random_problem(np.random.default_rng([n, m, ell, k, seed]), n, m, ell, k)
        report = greedy_select(prob)
        replay = list(replayed_rows(prob, report.subset))
        assert len(replay) == k
        for traced, (step, rows, _) in zip(report.trace, replay):
            mu_min = np.linalg.eigvalsh(_gram_updates(step.gram, step.v))[:, 0]
            lam = 1.0 + np.array([smallest_root(Polynomial(c), prob.eps) for c in rows])
            assert np.all(mu_min - prob.eps <= lam) and np.all(lam <= 1.0 + prob.eps)
            assert np.all(lam >= -prob.eps)
            assert abs(traced.lambda_min - lam.max()) <= prob.eps
            for c in rows:
                assert c.min() >= -1e-12 * np.abs(c).max()


class _WrongPick(AssertionError):
    """A greedy step picked a column more than 2 eps below the reference argmax."""


def _wrong_pick(reason: str):
    return pytest.mark.xfail(strict=True, raises=_WrongPick, reason=reason)


def _frontier_slice():
    """The n <= 6 cells of the failure-frontier grid: m/n of 2, 4, 8 and
    16, a fixed block of width 0 or n/2 (of rank l, as random_problem's is
    Gaussian), the budgets n - r, min(2n, m - 1) and m/2 without repeats,
    and seeds 0 and 1: 84 cells, every one of which completes today."""
    for n in (4, 6):
        for m in (2 * n, 4 * n, 8 * n, 16 * n):
            for ell in (0, n // 2):
                for k in dict.fromkeys((n - ell, min(2 * n, m - 1), m // 2)):
                    for seed in (0, 1):
                        yield n, m, ell, k, seed


@pytest.mark.parametrize(
    "n, m, ell, k, seed",
    # the frontier slice repeats (6, 48, 3, 12) at seeds 0 and 1
    list(
        dict.fromkeys(
            [
                (n, m, ell, k, seed)
                for n, m, ell, k in ((6, 48, 3, 12), (4, 14, 2, 5), (4, 7, 0, 5), (2, 33, 0, 16))
                for seed in range(3)
            ]
            + list(_frontier_slice())
        )
    )
    + [
        pytest.param(12, 100, 0, 40, 1, marks=_wrong_pick("step 40: column 3 over 56, 1,857 eps")),
        pytest.param(12, 100, 0, 40, 11, marks=_wrong_pick("step 39: column 15 over 93, 44.7 eps")),
        pytest.param(12, 100, 6, 40, 3, marks=_wrong_pick("step 39: column 19 over 22, 3,769 eps")),
        pytest.param(8, 200, 0, 8, 0, marks=_wrong_pick("step 1: column 44 over 94, 99.5 eps")),
        pytest.param(12, 150, 0, 60, 1, marks=_wrong_pick("step 55: column 147 over 129, 479 eps")),
    ],
)
def test_greedy_picks_the_reference_argmax(n, m, ell, k, seed):
    # Every pick is judged from the report alone (oracle.replay_check): a
    # pick more than 2 eps below the reference argmax raises _WrongPick
    # naming both and the margin, then a run that raised re-raises, and
    # every trace value must lie within eps of its pick's reference root,
    # and the subset must pass verify_bound.  Over the frontier slice the
    # worst trace error reads about 0.04 eps.  The reference is exact to
    # far below eps only with a 64-bit mantissa: numpy's longdouble has one
    # on x86-64, and is a plain double elsewhere.
    if np.finfo(np.longdouble).nmant < 63:
        pytest.fail(f"np.longdouble has a {np.finfo(np.longdouble).nmant}-bit mantissa, not 63")
    prob = random_problem(np.random.default_rng(seed), n, m, ell, k)
    report, failure = _report(prob)
    checks = replay_check(prob, report)
    for step, check in enumerate(checks, start=1):
        if check.margin > 2:
            raise _WrongPick(
                f"step {step}: picked column {check.column}, but column {check.best} "
                f"scores {check.margin:.1f} eps higher by the reference"
            )
    if failure is not None:
        raise failure
    drift = [
        f"step {step}: column {check.column}'s trace value is {check.trace_error:.3g} eps off"
        for step, check in enumerate(checks, start=1)
        if check.trace_error > 1
    ]
    assert not drift, drift
    assert len(checks) == k
    assert verify_bound(prob, report.subset)[0]


def _corner_problem(case: str, seed: int) -> SelectionProblem:
    """A problem at (n, m, l, k) = (6, 48, 3, 12) with one of the corner column sets."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 48))
    if case in ("duplicated", "duplicated, a from b"):
        b = np.hstack([b[:, :24], b[:, :24]])
        if case == "duplicated, a from b":
            a = b[:, :3]
    elif case == "zero columns":
        b[:, rng.choice(48, size=8, replace=False)] = 0.0
    else:  # 40 columns within 1e-6 of one direction
        b[:, :40] = b[:, [0]] + 1e-6 * rng.standard_normal((6, 40))
    return SelectionProblem(a=DenseMatrix(a), b=DenseMatrix(b), k=12)


@pytest.mark.parametrize(
    "case", ["duplicated", "duplicated, a from b", "zero columns", "near-parallel"]
)
def test_greedy_holds_the_bound_on_corner_columns(case):
    for seed in range(6):
        prob = _corner_problem(case, seed)
        report = greedy_select(prob)
        assert verify_bound(prob, report.subset)[0], seed


def test_verify_bound_accepts_greedy_output():
    rng = np.random.default_rng(107)
    prob = random_problem(rng, n=3, m=8, ell=2, k=4)
    report = greedy_select(prob)
    holds, ratio_frob, ratio_spec = verify_bound(prob, report.subset)
    assert holds
    assert ratio_frob == pytest.approx(report.frob_sq / report.baseline_frob_sq)
    assert ratio_spec == pytest.approx(report.spec_sq / report.baseline_spec_sq)


def test_verify_bound_doubled_identity_ratios():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    holds, ratio_frob, ratio_spec = verify_bound(prob, (0, 1))
    assert holds
    assert ratio_frob == pytest.approx(2.0, rel=1e-9)
    assert ratio_spec == pytest.approx(2.0, rel=1e-9)


def test_verify_bound_takes_a_subset_of_size_k():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    for subset in ((0,), (0, 1, 2)):
        with pytest.raises(InvalidSubset, match=f"size k = 2, got {len(subset)}"):
            verify_bound(prob, subset)


def test_verify_bound_rejects_rank_deficient_subset():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    with pytest.raises(RankDeficient):
        verify_bound(prob, (0, 2))


def test_problem_takes_an_integer_budget_only():
    assert SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=np.int64(2)).k == 2
    with pytest.raises(InvalidInput, match="k must be an integer"):
        SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2.5)
    # n - r = 1, so k = 1 would be a valid budget here
    with pytest.raises(InvalidInput, match="k must be an integer, got True"):
        SelectionProblem(a=empty_block(1), b=DenseMatrix([[1.0, 2.0, 3.0]]), k=True)


def test_problem_stores_eps_as_a_float():
    # A numpy float runs the greedy and its report serializes.
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2, eps=np.float32(1e-6))
    assert type(prob.eps) is float and prob.eps == float(np.float32(1e-6))
    report = greedy_select(prob)
    assert json.loads(serialize_report(report))["eps"] == prob.eps
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2, eps=np.float64(0.1))
    assert type(prob.eps) is float and prob.eps == 0.1


@pytest.mark.parametrize(
    "eps",
    ["1e-6", None, True, np.bool_(True), 1e-6j],
    ids=["str", "none", "bool", "numpy_bool", "complex"],
)
def test_problem_takes_a_real_eps_only(eps):
    with pytest.raises(InvalidInput, match="eps must be a real number"):
        SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2, eps=eps)


def test_verify_bound_takes_integer_indices_only():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    assert verify_bound(prob, (np.int64(0), np.int64(1))) == verify_bound(prob, (0, 1))
    with pytest.raises(InvalidSubset, match="must be an integer"):
        verify_bound(prob, [0.9, 1.9])
    with pytest.raises(InvalidSubset, match="must be an integer, got True"):
        verify_bound(prob, (True, False))
    # any iterable of k columns, an iterator too; a value that is none is refused
    assert verify_bound(prob, iter((0, 1))) == verify_bound(prob, (0, 1))
    for bad in (5, None):
        with pytest.raises(InvalidSubset, match="must be an iterable of integers"):
            verify_bound(prob, bad)


# Inputs at the edges of the rank rule and of the float range: on each,
# greedy_select and verify_bound of the subset (0, 1) raise the same error.
EDGE_INPUTS = {
    # [a b] passes the rank rule (sigma ratio 1.27e-12), every 2-subset fails it (0.9e-12)
    "subsets_rank_deficient": ([[1.0, 0.0, 0.0], [0.0, 9e-13, 9e-13]], RankDeficient),
    # sigma^2 overflows, so the baseline norms are 0
    "baseline_underflows": ([[1e200, 0.0, 1e200], [0.0, 1e200, 1e200]], InvalidInput),
    # sigma^2 underflows, so the baseline norms are inf
    "baseline_overflows": ([[1e-170, 0.0, 1e-170], [0.0, 1e-170, 1e-170]], InvalidInput),
}


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_select_and_verify_fail_alike_at_the_edges(name):
    data, error = EDGE_INPUTS[name]

    def problem():
        return SelectionProblem(a=empty_block(2), b=DenseMatrix(data), k=2)

    with pytest.raises(error) as selected:
        greedy_select(problem())
    with pytest.raises(error) as verified:
        verify_bound(problem(), (0, 1))
    assert str(selected.value) == str(verified.value)


@pytest.mark.parametrize(
    "data, subset",
    [
        # sigma_min of [a b_S] is 1e-155: |[a b_S]^+|^2 overflows while the baseline is finite
        ([[1e-150, 0.0, 1e-150], [0.0, 1e-155, 1e-150]], (0, 1)),
        # both norms are finite, but their ratio to the baseline (2e-300) is not
        ([[1e150, 0.0, 1e-150, 0.0], [0.0, 1e150, 0.0, 1e-150]], (2, 3)),
    ],
)
def test_verify_bound_refuses_norms_that_overflow(data, subset):
    prob = SelectionProblem(a=empty_block(2), b=DenseMatrix(data), k=2)
    with pytest.raises(RankDeficient, match="overflow"):
        verify_bound(prob, subset)


def test_verify_bound_shares_the_slack_of_the_greedy_check():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    _, ratio_frob, ratio_spec = verify_bound(prob, (0, 1))
    worst = max(ratio_frob, ratio_spec)
    object.__setattr__(prob, "bound_factor", worst / (1.0 + 5e-8))
    assert verify_bound(prob, (0, 1))[0]
    object.__setattr__(prob, "bound_factor", worst / (1.0 + 2e-7))
    assert not verify_bound(prob, (0, 1))[0]


def test_problem_refuses_a_bound_factor_that_overflows():
    # [a b] is well conditioned, but |a^+ b|_F^2 = 2e400 leaves the float range
    with pytest.raises(InvalidInput, match="bound factor .* must be a finite float, got inf"):
        SelectionProblem(a=DenseMatrix([[1e-200]]), b=DenseMatrix([[1.0, 1.0]]), k=1)


def _hand_built_report(**changes) -> SelectionReport:
    fields = dict(
        subset=(3, 1),
        frob_sq=2.0,
        spec_sq=1.0,
        baseline_frob_sq=1.0,
        baseline_spec_sq=0.5,
        gamma=2.0,
        bound_factor=2.5,
        eps=1e-6,
        trace=(TraceStep(index=3, lambda_min=0.25), TraceStep(index=1, lambda_min=0.5)),
    )
    fields.update(changes)
    return SelectionReport(**fields)


def test_check_report_names_the_norm_that_breaks_the_bound():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    selector._check_report(_hand_built_report(), prob)
    with pytest.raises(AlgorithmFailure) as err:
        selector._check_report(_hand_built_report(spec_sq=1.5), prob)
    message = str(err.value)
    assert "spec_sq 1.5 exceeds the cap" in message
    assert "bound_factor 2.5" in message and "baseline 0.5" in message
    assert "frob_sq" not in message


def test_check_report_names_the_step_that_breaks_the_trace():
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    trace = (TraceStep(index=3, lambda_min=0.5), TraceStep(index=1, lambda_min=0.25))
    with pytest.raises(AlgorithmFailure) as err:
        selector._check_report(_hand_built_report(trace=trace), prob)
    message = str(err.value)
    assert "step 2" in message
    assert "column 3 had lambda_min 0.5" in message
    assert "column 1 has 0.25" in message


def test_an_algorithm_failure_carries_the_report_check_report_rejected():
    # The very report, for a bound breach and for a trace drop, beside an
    # unchanged message; and a greedy run that raises carries the report it
    # built, which fails the check again with the same message.
    prob = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    trace = (TraceStep(index=3, lambda_min=0.5), TraceStep(index=1, lambda_min=0.25))
    for report in (_hand_built_report(spec_sq=1.5), _hand_built_report(trace=trace)):
        with pytest.raises(AlgorithmFailure) as err:
            selector._check_report(report, prob)
        assert err.value.report is report
        assert err.value.args == (str(err.value),)
    prob = random_problem(np.random.default_rng(0), 8, 200, 0, 8)
    with pytest.raises(AlgorithmFailure) as err:
        greedy_select(prob)
    report = err.value.report
    assert len(report.subset) == prob.k and len(report.trace) == prob.k
    with pytest.raises(AlgorithmFailure) as again:
        selector._check_report(report, prob)
    assert str(again.value) == str(err.value)


def test_min_singular_check_values():
    rng = np.random.default_rng(109)
    prob = random_problem(rng, n=2, m=6, ell=0, k=3)
    inst = build_isotropic(prob)
    report = greedy_select(prob)
    value = min_singular_check(inst, report.subset)
    # with no fixed block the guarantee reduces to 1/gamma
    assert value >= 1.0 / gamma(prob.m, prob.n, prob.k, 0) - 10 * prob.eps
    # rank-deficient selection has near-zero smallest singular value
    dup = SelectionProblem(a=empty_block(2), b=DOUBLED_IDENTITY, k=2)
    dup_inst = build_isotropic(dup)
    assert min_singular_check(dup_inst, (0, 2)) < 1e-10
    with pytest.raises(InvalidInput):
        min_singular_check(dup_inst, (0, 0))  # duplicate index
    # a repeated column in the isotropic frame: the eigensolver's rounding
    # noise below zero is clamped, so the value is never negative
    b = rng.standard_normal((3, 8))
    b[:, 4:] = b[:, :4]
    twins = build_isotropic(SelectionProblem(a=empty_block(3), b=DenseMatrix(b), k=4))
    for j in range(4):
        assert 0.0 <= min_singular_check(twins, (j, j + 4)) < 1e-10


def test_greedy_fixed_block_wider_than_rows():
    rng = np.random.default_rng(55)
    a = DenseMatrix(rng.standard_normal((2, 5)))
    b = DenseMatrix(rng.standard_normal((2, 7)))
    report = greedy_select(SelectionProblem(a=a, b=b, k=3))
    assert report.frob_sq <= report.bound_factor * report.baseline_frob_sq


def _rank_one_fixed_block_problem() -> SelectionProblem:
    rng = np.random.default_rng(56)
    col = rng.standard_normal((3, 1))
    a = DenseMatrix(np.hstack([col, col]))  # rank 1
    return SelectionProblem(a=a, b=DenseMatrix(rng.standard_normal((3, 8))), k=4)


def test_greedy_rank_deficient_fixed_block():
    prob = _rank_one_fixed_block_problem()
    assert prob.r == 1
    report = greedy_select(prob)
    assert report.frob_sq <= report.bound_factor * report.baseline_frob_sq
    assert report.spec_sq <= report.bound_factor * report.baseline_spec_sq


@pytest.mark.parametrize("case", ["no fixed block", "full-rank a", "rank-1 a"])
def test_bound_factor_matches_closed_form(case):
    rng = np.random.default_rng(58)
    if case == "no fixed block":
        prob = random_problem(rng, 4, 10, 0, 5)
    elif case == "full-rank a":
        prob = random_problem(rng, 4, 10, 2, 3)
    else:
        prob = _rank_one_fixed_block_problem()
    a, b = prob.a.data, prob.b.data
    cross = np.linalg.pinv(a, rcond=1e-12) @ b
    expected = (
        gamma(prob.m, prob.n, prob.k, prob.r)
        * (1.0 + np.sum(cross * cross) / (prob.m - prob.n + prob.r))
        * (1.0 + 2.0 * prob.k * prob.eps)
    )
    assert bound_factor(prob) == pytest.approx(expected, rel=1e-12)
    # computed once, at construction, and read from there
    assert prob.gamma == gamma(prob.m, prob.n, prob.k, prob.r)
    assert prob.bound_factor == bound_factor(prob)
    report = greedy_select(prob)
    assert (report.gamma, report.bound_factor) == (prob.gamma, prob.bound_factor)

    # verify_bound's ratios against numpy's pseudoinverse norms
    subset = report.subset
    _, ratio_frob, ratio_spec = verify_bound(prob, subset)
    sel_pinv = np.linalg.pinv(np.hstack([a, b[:, list(subset)]]))
    base_pinv = np.linalg.pinv(np.hstack([a, b]))
    assert ratio_frob == pytest.approx(
        np.sum(sel_pinv**2) / np.sum(base_pinv**2), rel=1e-12
    )
    assert ratio_spec == pytest.approx(
        (np.linalg.norm(sel_pinv, 2) / np.linalg.norm(base_pinv, 2)) ** 2, rel=1e-12
    )


def test_greedy_minimal_budget_with_fixed_block():
    # k = n - rank(a), the smallest admissible budget
    rng = np.random.default_rng(57)
    a = DenseMatrix(rng.standard_normal((3, 1)))
    b = DenseMatrix(rng.standard_normal((3, 6)))
    report = greedy_select(SelectionProblem(a=a, b=b, k=2))
    assert len(report.subset) == 2
    assert report.frob_sq <= report.bound_factor * report.baseline_frob_sq


def test_isotropic_guarantee_with_fixed_block():
    # sigma_min^2 of the fixed-plus-selected block meets the barrier bound
    rng = np.random.default_rng(111)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 2, 11))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        prob = random_problem(rng, n, m, ell, k)
        inst = build_isotropic(prob)
        report = greedy_select(prob)
        value = min_singular_check(inst, report.subset)
        fixed = DenseMatrix(inst.fixed)
        m_pinv_frob_sq, _ = norms_sq(pseudoinverse(fixed))
        lower = (m - n + inst.r) / (
            (m - n + m_pinv_frob_sq) * gamma(m, n, k, inst.r)
        )
        assert value >= lower - 10 * prob.eps


def test_tree_root_lower_bound():
    # smallest root of the tree root polynomial obeys the barrier bound
    rng = np.random.default_rng(113)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 2, 11))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        prob = random_problem(rng, n, m, ell, k)
        inst = build_isotropic(prob)
        f = in_x(expected_poly(inst, ()))
        lam = smallest_root(f, prob.eps)
        fixed = DenseMatrix(inst.fixed)
        m_pinv_frob_sq, _ = norms_sq(pseudoinverse(fixed))
        lower = (m - n + inst.r) / (
            (m - n + m_pinv_frob_sq) * gamma(m, n, k, inst.r)
        )
        assert lam >= lower - prob.eps


def test_gamma_dominates_sqrt_ratio_bound_spot():
    for m, n, k in [(10, 2, 5), (20, 3, 8), (50, 10, 30)]:
        cap = (1 + (m / k) ** 0.5) ** 2 / (1 - (n / k) ** 0.5) ** 2
        assert gamma(m, n, k, 0) < cap


def _still_fails(reason: str):
    return pytest.mark.xfail(strict=True, raises=AlgorithmFailure, reason=reason)


@pytest.mark.parametrize(
    "n, m, ell, k, seed",
    [
        (12, 100, 0, 40, 0),
        (12, 100, 6, 40, 0),
        (3, 60, 0, 3, 0),
        (10, 60, 0, 30, 0),
        (8, 60, 0, 8, 0),
        (8, 150, 4, 20, 0),
        (6, 100, 0, 6, 0),
        (12, 40, 0, 12, 0),
        pytest.param(
            12, 150, 0, 60, 1,
            marks=_still_fails(
                "degree 12: float Sturm counts and signs miss 521 of 7230 root certificates, "
                "and the trace guard fires"
            ),
        ),
        pytest.param(
            12, 150, 0, 12, 0,
            marks=_still_fails("minimal budget k = n - r with large m/n; fails with companion roots too"),
        ),
    ],
)
def test_greedy_size_grid(n, m, ell, k, seed):
    # Shapes well past the small test sizes, inside the paper's preconditions.
    prob = random_problem(np.random.default_rng(seed), n, m, ell, k)
    report = greedy_select(prob)
    holds, _, _ = verify_bound(prob, report.subset)
    assert holds


_CORNERS = {
    # b's columns spread over twelve orders of magnitude
    "scaled columns": (8, 60, 0, 20),
    "m = n + 1": (6, 7, 0, 6),
    "k = m - 1": (6, 48, 0, 47),
    "full-rank a, k = 1": (6, 48, 8, 1),
    "rank-2 a of width 5": (6, 48, 5, 4),
    "minimal budget k = n": (8, 200, 0, 8),
    "minimal budget k = n - r": (8, 200, 4, 4),
}


def _corner_of_the_preconditions(case: str, seed: int) -> SelectionProblem:
    n, m, ell, k = _CORNERS[case]
    rng = np.random.default_rng(seed)
    if case == "scaled columns":
        prob = random_problem(rng, n, m, ell, k)
        return SelectionProblem(a=prob.a, b=DenseMatrix(prob.b.data * np.logspace(-6, 6, m)), k=k)
    return random_problem(rng, n, m, ell, k, rank_a=2 if case == "rank-2 a of width 5" else None)


_MINIMAL_BUDGET_FAILS = _still_fails(
    "minimal budget k = n - r with m/n = 25: the trace guard fires, or at (8, 200, 0, 8) "
    "seed 0 the spectral bound breaks; open until scores come from eigenvalues (ROADMAP item 3)"
)


@pytest.mark.parametrize(
    "case, seed",
    [
        (case, seed)
        for case in ("scaled columns", "m = n + 1", "k = m - 1", "full-rank a, k = 1",
                     "rank-2 a of width 5")
        for seed in range(6)
    ]
    + [
        pytest.param(case, seed, marks=_MINIMAL_BUDGET_FAILS)
        for case in ("minimal budget k = n", "minimal budget k = n - r")
        for seed in range(3)
        # Passes by luck, not by accuracy: at steps 1, 2 and 4 the argmax
        # differs from the exact one of the float eigenvalues, by 10, 140
        # and 1,080 eps, with every score off by 3e4 to 6e4 eps.
        if (case, seed) != ("minimal budget k = n - r", 1)
    ]
    + [("minimal budget k = n - r", 1)],
)
def test_greedy_corners(case, seed):
    # The corners of the paper's preconditions: extreme column scales, the
    # smallest m, the largest k, a full-rank or rank-deficient fixed block,
    # and the minimal budget with many candidates per row.
    prob = _corner_of_the_preconditions(case, seed)
    report = greedy_select(prob)
    assert verify_bound(prob, report.subset)[0]


def test_tight_frames_meet_the_floor_the_bound_approaches():
    # The paper's tightness claim: with unit columns and B B^T = (m/n) I and
    # no fixed block, every k-subset has |B_S^+|_F^2 >= n^2/k and
    # |B_S^+|_2^2 >= n/k, as tr(M^-1) >= n^2/tr(M) and lambda_min(M) <= tr(M)/n,
    # so both ratios to the baseline are at least m/k, and the bound factor
    # approaches m/k as m grows at a fixed k/m.  n = 12 is left out:
    # (12, 400, k) raises, and from n = 10 outcomes change with the BLAS kernel.
    for n, m, k in [(4, 14, 5), (4, 14, 8), (6, 48, 12), (6, 200, 50), (6, 200, 100)]:
        prob = SelectionProblem(a=empty_block(n), b=DenseMatrix(harmonic_frame(n, m)), k=k)
        report = greedy_select(prob)
        frob = report.frob_sq / report.baseline_frob_sq
        spec = report.spec_sq / report.baseline_spec_sq
        for ratio in (frob, spec):
            assert m / k <= ratio <= prob.bound_factor, (n, m, k, frob, spec)
        if m == 200:
            # greedy came within 0.3% of the floor (4.012 and 2.0012)
            assert frob <= 1.01 * m / k, (n, m, k, frob)
        if m == 14:
            best = brute_force(prob)
            assert best.best_frob_sq / report.baseline_frob_sq >= m / k, (n, m, k)
            assert best.best_spec_sq / report.baseline_spec_sq >= m / k, (n, m, k)
