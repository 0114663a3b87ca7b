"""Brute-force enumeration, barrier checks, companion-root cross-oracle."""
from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from colsel import oracle
from colsel.errors import AlgorithmFailure, InvalidInput, TooLarge
from colsel.linalg import DEFAULT_RANK_TOL, DenseMatrix, _gram_updates
from colsel.oracle import (
    barrier,
    barrier_descent_check,
    brute_force,
    companion_smallest_root,
    interlacing_check,
    reference_scores,
    replay_check,
    replay_steps,
)
from colsel.poly import Polynomial, derivative, from_roots, smallest_root
from colsel.selector import SelectionProblem, TraceStep, build_isotropic, greedy_select
from conftest import in_call_order, random_isotropic, random_problem, random_real_rooted, spy

DOUBLED_IDENTITY = DenseMatrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def test_brute_force_doubled_identity():
    prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DOUBLED_IDENTITY, k=2)
    result = brute_force(prob)
    assert len(result.all_values) == 6
    infeasible = [s for s, (f, _) in result.all_values.items() if math.isinf(f)]
    assert sorted(infeasible) == [(0, 2), (1, 3)]
    assert result.best_frob_sq == pytest.approx(2.0, rel=1e-9)
    assert result.best_spec_sq == pytest.approx(1.0, rel=1e-9)


def test_brute_force_norms_match_numpy_pinv():
    # fixed block plus a repeated candidate column, so some subsets are rank-deficient
    rng = np.random.default_rng(129)
    for _ in range(5):
        a = rng.standard_normal((3, 1))
        b = rng.standard_normal((3, 5))
        b = np.hstack([b, b[:, :1]])
        prob = SelectionProblem(a=DenseMatrix(a), b=DenseMatrix(b), k=2)
        result = brute_force(prob)
        assert math.isinf(result.all_values[(0, 5)][0])
        finite = 0
        for subset, (frob_sq, spec_sq) in result.all_values.items():
            sel = np.hstack([a, b[:, list(subset)]])
            if np.linalg.matrix_rank(sel) < 3:
                assert math.isinf(frob_sq) and math.isinf(spec_sq)
                continue
            pinv = np.linalg.pinv(sel)
            assert frob_sq == pytest.approx(np.sum(pinv**2), rel=1e-12)
            assert spec_sq == pytest.approx(np.linalg.norm(pinv, 2) ** 2, rel=1e-12)
            finite += 1
        assert finite > 0


@pytest.mark.parametrize(
    "data, subset",
    [
        # sigma_min of [a b_S] is 1e-155: |[a b_S]^+|_F^2 overflows
        ([[1e-150, 0.0, 1e-150], [0.0, 1e-155, 1e-150]], (0, 1)),
        # sigma_min^2 = 1e-326 underflows to 0
        ([[1.0, 0.0, 1e-163, 0.0], [0.0, 1.0, 0.0, 1e-163]], (2, 3)),
        # sigma_min = 1e-310 is subnormal, so 1/sigma_min overflows too
        ([[1.0, 0.0, 1e-310, 0.0], [0.0, 1.0, 0.0, 1e-310]], (2, 3)),
    ],
)
def test_brute_force_records_overflowing_norms_as_infeasible(data, subset):
    prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DenseMatrix(data), k=2)
    result = brute_force(prob)
    s = np.linalg.svd(np.asarray(data)[:, list(subset)], compute_uv=False)
    assert s[-1] > 1e-12 * s[0]  # full rank under the rank rule
    assert result.all_values[subset] == (math.inf, math.inf)
    assert result.best_frob_sq < math.inf and subset != result.best_subset_frob


def _selected(prob, subset):
    return np.hstack([prob.a.data, prob.b.data[:, list(subset)]])


def _first_passes(calls):
    """``(batch, frob, spec, decided, lower)`` of each call a spy on
    ``oracle._first_pass`` saw."""
    return [(call.args[1], *call.result) for call in calls]


def test_brute_force_sends_the_svd_only_what_the_gram_cannot_decide(monkeypatch):
    rng = np.random.default_rng(151)
    b = rng.standard_normal((4, 11))
    # l + k = n, and the last column repeats the first, so the subsets
    # holding both are rank-deficient
    b = DenseMatrix(np.hstack([b, b[:, :1]]))
    prob = SelectionProblem(a=DenseMatrix.zeros(4, 0), b=b, k=4)
    monkeypatch.setattr(oracle, "ENUMERATION_BATCH", 256)  # C(12, 4) = 495: two batches
    svd, eigvalsh = (spy(monkeypatch, np.linalg, name) for name in ("svd", "eigvalsh"))
    first_passes = spy(monkeypatch, oracle, "_first_pass")
    result = brute_force(prob)
    passes = _first_passes(first_passes)
    calls = [(kind, call.args[0]) for kind, call in in_call_order(svd=svd, eigvalsh=eigvalsh)]
    subsets = list(combinations(range(prob.m), prob.k))
    # the first pass takes the batches in combinations order
    assert [len(batch) for batch, *_ in passes] == [256, 239]
    assert [tuple(s) for batch, *_ in passes for s in batch.tolist()] == subsets
    decided = np.concatenate([d for *_, d, _ in passes])
    # the svd takes, in one call per batch and before that batch's eigensolves,
    # exactly the batch's undecided subsets, bit for bit
    undecided = [[s for s, d in zip(subsets[i : i + 256], decided[i : i + 256]) if not d]
                 for i in (0, 256)]
    assert all(undecided)
    kinds = [kind for kind, _ in calls]
    second = kinds.index("svd", 1)
    assert kinds[0] == "svd" and set(kinds[1:second]) == set(kinds[second + 1 :]) == {"eigvalsh"}
    for (_, stack), batch in zip([calls[0], calls[second]], undecided):
        assert stack.shape == (len(batch), 4, 4)
        for row, subset in zip(stack, batch):
            assert row.tobytes() == _selected(prob, subset).tobytes(), subset
    # the gate: kappa(G) <= tr(G) tr(G^-1) <= 400, here from each subset's singular values
    for subset, d in zip(subsets, decided):
        s = np.linalg.svd(_selected(prob, subset), compute_uv=False)
        if s[-1] <= DEFAULT_RANK_TOL * s[0]:
            assert not d, subset
            continue
        product = np.sum(s * s) * np.sum(1.0 / (s * s))
        if product <= 400 * (1 - 1e-9) or product >= 400 * (1 + 1e-9):
            assert d == (product < 400), subset
    assert 0 < decided.sum() < 495
    # a subset its Cholesky factor decides is feasible
    assert all(math.isfinite(result.all_values[s][0]) for s, d in zip(subsets, decided) if d)


def test_the_lower_bound_is_below_every_spectral_norm(monkeypatch):
    # max(row and column norms of L^-1)^2 <= |L^-1|_2^2 = 1/lambda_min(G)
    for n, m, ell, k in [(4, 14, 2, 5), (5, 10, 1, 4), (3, 9, 0, 4)]:
        rng = np.random.default_rng([199, n, m])
        prob = random_problem(rng, n, m, ell, k)
        with monkeypatch.context() as patch:
            first_passes = spy(patch, oracle, "_first_pass")
            result = brute_force(prob)
        passes = _first_passes(first_passes)
        decided = np.concatenate([d for *_, d, _ in passes])
        lower = np.concatenate([lb for *_, lb in passes])
        spec = np.array([v for _, v in result.all_values.values()])
        assert decided.sum() >= len(decided) / 4
        assert np.all(lower[decided] <= spec[decided] * (1 + 1e-12))
        # the bound is not vacuous: a few subsets come close to it, most stay far below
        assert np.median(lower[decided] / spec[decided]) > 0.5


def _batch_problems():
    """Enumerations of 4 to 8 batches of 256: rank-deficient subsets,
    overflowing norms, exact ties across batches, a fixed block, and no
    feasible subset."""
    rng = np.random.default_rng(167)
    e1, e2 = np.eye(2)
    tiny = [1e-163 * e1, 1e-163 * e2, 1e-310 * e1, 1e-310 * e2, [1e-150, 0.0], [0.0, 1e-155]]
    # unit columns, then columns of norm below 1, which no subset beats them with
    c = np.column_stack([e1, e2, *rng.uniform(-0.1, 0.1, (12, 2)), *tiny])
    c4 = np.hstack([np.eye(4), rng.uniform(-0.1, 0.1, (4, 3))])
    return {
        # b = [c c]: (i, i + 20) repeats a column, the tiny pairs overflow, and
        # the optimum (0, 1) = [e_1 e_2] recurs as (20, 21) in a later batch
        "overflow_twins": SelectionProblem(
            a=DenseMatrix.zeros(2, 0), b=DenseMatrix(np.hstack([c, c])), k=2
        ),
        # a repeated column makes a subset rank-deficient; (0, 1, 2, 3) = I recurs as (7, 8, 9, 10)
        "rank_deficient_twins": SelectionProblem(
            a=DenseMatrix.zeros(4, 0), b=DenseMatrix(np.hstack([c4, c4])), k=4
        ),
        "fixed_block": random_problem(rng, n=4, m=14, ell=2, k=5),
        # e_1 and 39 multiples of e_2 below 1e-12: [a b] has full rank, no pair does
        "no_feasible": SelectionProblem(
            a=DenseMatrix.zeros(2, 0),
            b=DenseMatrix(np.vstack([np.eye(40)[0], np.r_[0.0, rng.uniform(3e-13, 9e-13, 39)]])),
            k=2,
        ),
    }


def _enumeration_bits(result):
    """Everything a result holds, with the norms as bytes: insertion order included."""
    return (
        list(result.all_values),
        np.array(list(result.all_values.values())).tobytes(),
        result.best_subset_frob,
        result.best_subset_spec,
        np.array([result.best_frob_sq, result.best_spec_sq]).tobytes(),
    )


@pytest.mark.parametrize("name", list(_batch_problems()))
def test_brute_force_is_bit_identical_on_every_batch_size(monkeypatch, name):
    prob = _batch_problems()[name]
    count = math.comb(prob.m, prob.k)
    assert 4 <= math.ceil(count / 256) <= 8 and count <= oracle.ENUMERATION_BATCH
    passes = spy(monkeypatch, oracle, "_first_pass")
    results, bits = {}, {}
    for size in (1, 7, 256, oracle.ENUMERATION_BATCH):
        monkeypatch.setattr(oracle, "ENUMERATION_BATCH", size)
        batches = [min(size, count - start) for start in range(0, count, size)]
        passes.clear()
        results[size] = brute_force(prob)
        # one first pass per batch, and none more for the table, built when read
        assert [len(batch) for batch, *_ in _first_passes(passes)] == batches
        bits[size] = _enumeration_bits(results[size])
        assert [len(batch) for batch, *_ in _first_passes(passes)] == batches
    result = results[size]
    for other in bits.values():
        assert other == bits[size]

    order = list(combinations(range(prob.m), prob.k))
    assert list(result.all_values) == order
    frob = np.array([f for f, _ in result.all_values.values()])
    if name == "no_feasible":
        assert result.best_subset_frob == result.best_subset_spec == ()
        assert result.best_frob_sq == result.best_spec_sq == math.inf
        return
    assert np.isfinite(frob).any()
    if name == "overflow_twins":
        # full rank under the rank rule, yet the norms overflow
        for subset in [(14, 15), (16, 17), (18, 19), (34, 35), (14, 35)]:
            assert result.all_values[subset] == (math.inf, math.inf)
    if name.endswith("twins"):
        assert np.isinf(frob).any()
        assert result.best_subset_frob == result.best_subset_spec == order[0]
        for norm, best_sq in enumerate([result.best_frob_sq, result.best_spec_sq]):
            reaching = [i for i, v in enumerate(result.all_values.values()) if v[norm] == best_sq]
            assert reaching[0] == 0 and reaching[-1] >= 512  # a tie across batches of 256


def test_brute_force_forms_each_gram_once_and_the_table_reads_its_norms(monkeypatch):
    monkeypatch.setattr(oracle, "ENUMERATION_BATCH", 256)
    prob = random_problem(np.random.default_rng(211), n=4, m=14, ell=2, k=5)
    grams, first_passes, svd, eigvalsh = (
        spy(monkeypatch, owner, name)
        for owner, name in [(oracle, "_grams"), (oracle, "_first_pass"),
                            (np.linalg, "svd"), (np.linalg, "eigvalsh")]
    )
    result = brute_force(prob)
    passes = _first_passes(first_passes)
    # one Gram build and one first pass per batch of C(14, 5) = 2002, on the same subsets
    assert [len(call.args[1]) for call in grams] == [256] * 7 + [210]
    assert [batch.tobytes() for batch, *_ in passes] == [c.args[1].tobytes() for c in grams]
    # each first pass took its batch's Grams, and factored a copy of them
    for built, taken in zip(grams, first_passes):
        assert taken.args[2].tobytes() == built.result.tobytes()
    stack = np.concatenate([call.result for call in grams], axis=2)
    decided = np.concatenate([d for *_, d, _ in passes])
    pruned = np.flatnonzero(decided & np.isinf(result._spec_sq))
    assert len(pruned) > 256  # the table takes more than one chunk

    for calls in (grams, first_passes, svd, eigvalsh):
        calls.clear()
    values = list(result.all_values.values())
    assert not first_passes and not svd
    chunks = [len(pruned[i : i + 256]) for i in range(0, len(pruned), 256)]
    assert [len(call.args[1]) for call in grams] == [len(call.args[0]) for call in eigvalsh] == chunks
    # eigvalsh took exactly the Grams of the subsets the pass left without a spectral norm
    taken = np.concatenate([call.args[0] for call in eigvalsh])
    assert taken.tobytes() == np.ascontiguousarray(stack[..., pruned].transpose(2, 0, 1)).tobytes()
    spec = np.array([s for _, s in values])
    assert np.isfinite(spec[pruned]).all()
    assert np.delete(spec, pruned).tobytes() == np.delete(result._spec_sq, pruned).tobytes()


def test_brute_force_keeps_the_callers_error_state():
    # columns 38 and 39 are 1e-150 apart by an angle of 1e-10: only the last
    # subset, (38, 39), underflows in sigma_min^2.  The Gram of a subset
    # holding either is below the 1e-290 floor, so the rank rule takes it.
    rng = np.random.default_rng(173)
    head = rng.standard_normal((2, 38))
    tail = 1e-150 * np.array([[1.0, 1.0], [0.0, 1e-10]])
    prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DenseMatrix(np.hstack([head, tail])), k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(brute_force(prob).all_values) == 780
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        brute_force(prob)
    # the floating-point errors ignored while forming and solving the Grams stay there
    head_prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DenseMatrix(head), k=2)
    with np.errstate(all="raise"):
        assert len(brute_force(head_prob).all_values) == 703


def _per_subset_values(prob):
    """The enumeration with one SVD per subset: ``|.^+|_F^2 = sum sigma^-2``."""
    values = {}
    for subset in combinations(range(prob.m), prob.k):
        s = np.linalg.svd(_selected(prob, subset), compute_uv=False)
        sigma_min_sq = float(s[-1]) ** 2
        frob_sq = spec_sq = math.inf
        if s[-1] > DEFAULT_RANK_TOL * s[0] and sigma_min_sq > 0.0:
            with np.errstate(over="ignore"):
                frob = float(np.sum(1.0 / (s * s)))
            if frob < math.inf:
                frob_sq, spec_sq = frob, min(1.0 / sigma_min_sq, frob)
        values[subset] = (frob_sq, spec_sq)
    return values


def _rank_rule_run(monkeypatch, prob):
    """``brute_force(prob)``, and the subsets that its first pass did not
    decide by their Cholesky factors, which take the rank rule."""
    with monkeypatch.context() as patch:
        passes = spy(patch, oracle, "_first_pass")
        result = brute_force(prob)
    passes = _first_passes(passes)
    return result, {tuple(s) for batch, *_, decided, _ in passes for s in batch[~decided].tolist()}


def _assert_matches_the_per_subset_svd(result, rank_rule, expected):
    """The rank rule's Frobenius values equal the per-subset loop's bit for
    bit, and its spectral ones to ``1e-15``; the Cholesky-decided ones agree
    with them to the cross-tree tolerance ``1e-12``."""
    assert list(result.all_values) == list(expected)
    for subset, values in result.all_values.items():
        assert type(values[0]) is float and type(values[1]) is float
        if subset in rank_rule:
            assert values[0] == expected[subset][0], subset
            assert values[1] == pytest.approx(expected[subset][1], rel=1e-15, abs=0.0), subset
        else:
            assert values == pytest.approx(expected[subset], rel=1e-12, abs=0.0), subset


@pytest.mark.parametrize("n, m, ell, k", [(3, 14, 0, 3), (4, 14, 1, 3), (4, 13, 0, 4)])
def test_brute_force_matches_the_per_subset_loop(monkeypatch, n, m, ell, k):
    # l + k = n, and the last column of b repeats the first, so the subsets
    # holding both are rank-deficient
    rng = np.random.default_rng([157, n, m])
    for _ in range(3):
        a = rng.standard_normal((n, ell))
        b = rng.standard_normal((n, m - 1))
        b = np.hstack([b, b[:, :1]])
        prob = SelectionProblem(a=DenseMatrix(a), b=DenseMatrix(b), k=k)
        result, rank_rule = _rank_rule_run(monkeypatch, prob)
        expected = _per_subset_values(prob)
        _assert_matches_the_per_subset_svd(result, rank_rule, expected)
        feasible = {s for s, (f, _) in expected.items() if math.isfinite(f)}
        assert {s for s, (f, _) in result.all_values.items() if math.isfinite(f)} == feasible
        assert 0 < len(feasible) < len(expected)
        # both paths decide feasible subsets
        assert feasible & rank_rule and feasible - rank_rule
        pinv_feasible = set()
        for subset in expected:
            frob_sq, spec_sq = result.all_values[subset]
            # the explicit pseudoinverse, which drops sigma <= DEFAULT_RANK_TOL * sigma_max:
            # its rank is the trace of the projector selected @ pinv
            selected = _selected(prob, subset)
            pinv = np.linalg.pinv(selected, DEFAULT_RANK_TOL)
            if round(float(np.trace(selected @ pinv))) == n:
                pinv_feasible.add(subset)
                assert frob_sq == pytest.approx(np.sum(pinv * pinv), rel=1e-12, abs=0.0)
                assert spec_sq == pytest.approx(np.linalg.norm(pinv, 2) ** 2, rel=1e-12, abs=0.0)
        assert pinv_feasible == feasible


# tools/compare_trees.py's brute-force shapes, (n, m, l, k, rank of the
# fixed block or None for a Gaussian block)
COMPARE_TREES_SHAPES = [
    (4, 14, 2, 5, None), (3, 9, 0, 4, None), (4, 12, 2, 6, None), (5, 10, 1, 4, None),
    (4, 12, 3, 5, 1), (5, 14, 4, 4, 2),
]


@pytest.mark.parametrize("n, m, ell, k, rank_a", COMPARE_TREES_SHAPES)
def test_gram_decided_norms_match_the_per_subset_svd(monkeypatch, n, m, ell, k, rank_a):
    for seed in range(2):
        rng = np.random.default_rng([191, n, m, ell, k, seed])
        prob = random_problem(rng, n, m, ell, k, rank_a=rank_a)
        result, rank_rule = _rank_rule_run(monkeypatch, prob)
        assert len(rank_rule) < len(result.all_values)
        _assert_matches_the_per_subset_svd(result, rank_rule, _per_subset_values(prob))


def test_gate_edge_spectral_norms_match_the_per_subset_svd(monkeypatch):
    # The Cholesky gate lets through kappa(G) <= tr(G) tr(G^-1) <= 400, and
    # eigvalsh alone then takes spec_sq, with an error bound that grows with
    # kappa(G): the subsets with kappa(G) in (100, 400] are held to 1e-12.
    edge = 0
    for shape in COMPARE_TREES_SHAPES:
        for seed in range(2):
            prob = random_problem(np.random.default_rng([191, *shape[:4], seed]), *shape[:4],
                                  rank_a=shape[4])
            result, rank_rule = _rank_rule_run(monkeypatch, prob)
            decided = [subset for subset in result.all_values if subset not in rank_rule]
            s = np.linalg.svd(np.array([_selected(prob, d) for d in decided]), compute_uv=False)
            kappa = (s[:, 0] / s[:, -1]) ** 2
            assert kappa.max() <= 400 * (1 + 1e-12)
            for subset, sigma in zip(np.array(decided)[kappa > 100], s[kappa > 100]):
                expected = min(sigma[-1] ** -2.0, float(np.sum(sigma**-2.0)))
                spec_sq = result.all_values[tuple(subset.tolist())][1]
                assert spec_sq == pytest.approx(expected, rel=1e-12, abs=0.0), (shape, seed, subset)
                edge += 1
    # hundreds of them, on most shapes
    assert edge >= 500


def test_built_grams_are_symmetric_and_within_the_forming_bound():
    # each entry of G = M M^T, M = [a b_S], is a sum of l + k rounded
    # products: |fl(G) - G| <= gamma_{l+k} |M| |M|^T entrywise (Higham, section 3.5)
    u = Fraction(1, 2**53)
    worst = Fraction(0)
    for shape in COMPARE_TREES_SHAPES:
        for seed in range(2):
            prob = random_problem(np.random.default_rng([191, *shape[:4], seed]), *shape[:4],
                                  rank_a=shape[4])
            index = oracle._subset_index(prob.m, prob.k)
            rng = np.random.default_rng([223, *shape[:4], seed])
            batch = index[np.sort(rng.choice(len(index), 24, replace=False))]
            grams = oracle._grams(prob, batch)
            assert grams.shape == (prob.a.rows, prob.a.rows, len(batch))
            assert np.array_equal(grams, grams.transpose(1, 0, 2))
            width = prob.a.cols + prob.k
            gamma = width * u / (1 - width * u)
            for subset, gram in zip(batch, grams.transpose(2, 0, 1)):
                rows = [list(map(Fraction, row)) for row in _selected(prob, subset).tolist()]
                # the lower triangle: the upper one is its mirror, bit for bit
                for p in range(len(rows)):
                    for q in range(p + 1):
                        products = [x * y for x, y in zip(rows[p], rows[q])]
                        error = abs(Fraction(gram[p, q]) - sum(products))
                        bound = gamma * sum(map(abs, products))
                        assert error <= bound, (shape, seed, subset.tolist(), p, q)
                        worst = max(worst, error / bound)
    # rounding did occur, so the bound was tested, and it stays well inside it
    assert 0 < worst < 1


@pytest.mark.parametrize(
    "prob",
    [
        *_batch_problems().values(),
        *(
            random_problem(np.random.default_rng([191, *shape[:4], 0]), *shape[:4], rank_a=shape[4])
            for shape in COMPARE_TREES_SHAPES
        ),
    ],
    ids=[*_batch_problems(), *("-".join(map(str, shape)) for shape in COMPARE_TREES_SHAPES)],
)
def test_the_optima_are_the_first_minima_of_the_table(prob):
    # brute_force takes the spectral optimum from the subsets its lower bound
    # keeps; the table, built afterwards, holds every subset's norms
    result = brute_force(prob)
    assert "all_values" not in vars(result)
    order = list(result.all_values)
    assert len(order) == result.num_subsets
    values = np.array(list(result.all_values.values()))
    assert np.count_nonzero(np.isfinite(values[:, 0])) == result.num_feasible
    for norm, best, best_sq in [
        (0, result.best_subset_frob, result.best_frob_sq),
        (1, result.best_subset_spec, result.best_spec_sq),
    ]:
        i = int(np.argmin(values[:, norm]))  # the first minimum
        assert np.float64(best_sq).tobytes() == values[i, norm].tobytes()
        assert best == (order[i] if result.num_feasible else ())


@pytest.mark.parametrize("seed", range(10))
def test_eigvalsh_sees_few_subsets_while_the_table_is_unread(monkeypatch, seed):
    prob = random_problem(np.random.default_rng(seed), n=4, m=14, ell=2, k=5)
    eigvalsh = spy(monkeypatch, np.linalg, "eigvalsh")
    result = brute_force(prob)
    assert "all_values" not in vars(result)
    assert 0 < sum(len(call.args[0]) for call in eigvalsh) <= 0.1 * result.num_subsets
    assert result.num_subsets == 2002
    spec = [v for _, v in result.all_values.values()]
    assert list(result.all_values)[int(np.argmin(spec))] == result.best_subset_spec


def test_only_the_rank_rule_gathers_the_selected_columns(monkeypatch):
    # the Cholesky pass and eigvalsh take their Grams from the per-column
    # outer products: [a b_S] is gathered only for the singular values
    gathered, ranked = (spy(monkeypatch, oracle, name) for name in ("_gather", "_rank_rule_norms"))

    def rows():
        """The subsets gathered, and those given the rank rule, so far."""
        return sum(len(c.args[1]) for c in gathered), sum(len(c.args[0]) for c in ranked)

    for seed in range(10):
        prob = random_problem(np.random.default_rng(seed), n=4, m=14, ell=2, k=5)
        result = brute_force(prob)
        assert rows()[0] == rows()[1], seed
        # and so does the table, built when read
        assert len(result.all_values) == 2002
        assert rows()[0] == rows()[1], seed
    assert 0 < rows()[1] < 2002


@pytest.mark.parametrize("scale", [1e-150, 1e-160])
def test_tiny_columns_take_the_rank_rule(monkeypatch, scale):
    # at 1e-150 a subset of three tiny columns is feasible, but its Gram's
    # Cholesky pivots are below the 1e-290 floor; at 1e-160 its Gram underflows
    rng = np.random.default_rng(193)
    b = np.hstack([rng.standard_normal((3, 6)), scale * rng.standard_normal((3, 5))])
    prob = SelectionProblem(a=DenseMatrix.zeros(3, 0), b=DenseMatrix(b), k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, rank_rule = _rank_rule_run(monkeypatch, prob)
    tiny = {s for s in result.all_values if s[-1] >= 6}
    assert len(tiny) == 145 and tiny <= rank_rule
    expected = _per_subset_values(prob)
    _assert_matches_the_per_subset_svd(result, rank_rule, expected)
    assert all(result.all_values[s] == expected[s] for s in tiny)  # bit for bit
    assert math.isfinite(result.all_values[(6, 7, 8)][0]) == (scale == 1e-150)


def test_non_finite_grams_take_the_rank_rule():
    # SelectionProblem refuses columns whose Gram overflows (its baseline
    # norms leave the normal range), so the data is swapped in afterwards.
    # Columns 4 and 5 have norms about 1e160: every Gram holding one
    # overflows, and the rank rule finds (4, 5) feasible, with sigma_min^2
    # about 5e299, and all the others rank-deficient.
    rng = np.random.default_rng(197)
    prob = random_problem(rng, n=2, m=6, ell=0, k=2)
    huge = np.hstack([rng.standard_normal((2, 4)), [[1e160, 1e160], [0.0, 1e150]]])
    object.__setattr__(prob, "b", DenseMatrix(huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = brute_force(prob)
        values = result.all_values
    expected = _per_subset_values(prob)
    overflowing = [s for s in values if s[-1] >= 4]
    with np.errstate(over="ignore"):
        for subset in overflowing:
            selected = _selected(prob, subset)
            assert not np.isfinite(selected @ selected.T).all(), subset
    assert len(overflowing) == 9
    for subset in overflowing:
        assert np.array(values[subset]).tobytes() == np.array(expected[subset]).tobytes(), subset
    assert math.isfinite(values[(4, 5)][0]) and math.isinf(values[(0, 4)][0])
    # the feasible subset of tiny norms is both optima
    assert result.best_subset_frob == result.best_subset_spec == (4, 5)
    assert result.best_frob_sq == values[(4, 5)][0]


def test_reference_newton_raises_when_out_of_steps(monkeypatch):
    inst = random_isotropic(np.random.default_rng(211), n=3, m=8, ell=0, k=4)
    gram, v = np.zeros((3, 3)), inst.candidates
    eps = 1e-6
    scores = oracle.reference_scores(gram, v, inst.m, inst.k, 0, eps)
    assert scores.shape == (8,)
    monkeypatch.setattr(oracle, "REFERENCE_NEWTON_STEPS", 1)
    with pytest.raises(AlgorithmFailure, match="in 1 steps at partial size 0"):
        oracle.reference_scores(gram, v, inst.m, inst.k, 0, eps)


def test_a_reference_failure_carries_no_report(monkeypatch):
    # Only a report that breaks the guarantees rides on AlgorithmFailure.
    inst = random_isotropic(np.random.default_rng(211), n=3, m=8, ell=0, k=4)
    monkeypatch.setattr(oracle, "REFERENCE_NEWTON_STEPS", 1)
    with pytest.raises(AlgorithmFailure) as err:
        oracle.reference_scores(np.zeros((3, 3)), inst.candidates, inst.m, inst.k, 0, 1e-6)
    assert err.value.report is None


def _exact_reference_poly(mu: np.ndarray, m: int, k: int, j: int, y: Decimal) -> Decimal:
    """``T(y) = P^(d)(y) / (d! y^B)`` of :func:`reference_scores`, in 60-digit
    ``Decimal`` from the float eigenvalues ``mu`` of one candidate's Gram."""
    n = len(mu)
    a, d = m - n - j, k - j
    big_a = max(a, 0)
    deg = m - k - max(big_a - d, 0)
    rho = [Decimal(float(x)) - 1 for x in sorted(mu)[: n - max(-a, 0)]]
    e = [Decimal(1)] + [Decimal(0)] * len(rho)
    for r in rho:
        for t in range(len(rho), 0, -1):
            e[t] += (y - r) * e[t - 1]
    return sum(math.comb(big_a, m - k - t) * y ** (deg - t) * e[t] for t in range(deg + 1))


def test_reference_newton_finishes_where_rounding_stalls_it():
    # At (64, 400, 0, 128), step 1, rounding keeps many candidates' Newton
    # steps above 1e-6 eps: stopped by that test alone, the reference raised
    # after its 200 steps, and it needed 879 to finish.  A step that no
    # longer shrinks stops it after about 30.  Each of the three best
    # scores then brackets a root of T, by 60-digit signs at 1e-3 eps on
    # either side, the left one T's sign at min rho, where Newton started.
    prob = random_problem(np.random.default_rng(0), 64, 400, 0, 128)
    inst = build_isotropic(prob)
    gram, v = inst.gram_fixed.data, inst.candidates
    scores = reference_scores(gram, v, prob.m, prob.k, 1, prob.eps)
    mu = np.linalg.eigvalsh(_gram_updates(gram, v))
    delta = Decimal(1e-3 * prob.eps)
    with localcontext() as ctx:
        ctx.prec = 60
        for c in np.argsort(scores)[-3:].tolist():
            y = Decimal(float(scores[c]))
            left = _exact_reference_poly(mu[c], prob.m, prob.k, 1, y - delta)
            right = _exact_reference_poly(mu[c], prob.m, prob.k, 1, y + delta)
            start = _exact_reference_poly(mu[c], prob.m, prob.k, 1, Decimal(float(mu[c, 0])) - 1)
            assert (left > 0) == (start > 0) != (right > 0), c


def _wide_report():
    prob = random_problem(np.random.default_rng(0), 6, 48, 3, 12)
    return prob, greedy_select(prob)


def test_replay_check_reads_every_pick_of_a_greedy_run():
    prob, report = _wide_report()
    checks = replay_check(prob, report)
    assert [c.column for c in checks] == list(report.subset)
    assert all(c.best == c.column and c.margin == 0.0 for c in checks)
    assert max(c.trace_error for c in checks) < 1e-3
    steps = list(replay_steps(prob, report.subset))
    assert [s.j for s in steps] == list(range(1, 13))
    assert [s.columns[s.pick] for s in steps] == list(report.subset)
    assert all(s.v.shape == (6, 48 - i) for i, s in enumerate(steps))


def test_replay_check_reads_a_planted_wrong_pick():
    # Step 4's pick is swapped for the remaining candidate the reference
    # scores lowest; the later steps keep their columns, the swapped-in one
    # replaced by the old pick where it comes again.
    prob, report = _wide_report()
    step = list(replay_steps(prob, report.subset))[3]
    ref = reference_scores(step.gram, step.v, prob.m, prob.k, step.j, prob.eps)
    worst = step.columns[int(np.argmin(ref))]
    assert (ref.max() - ref.min()) / prob.eps > 2
    old = report.subset[3]
    subset = report.subset[:3] + (worst,) + tuple(
        old if c == worst else c for c in report.subset[4:]
    )
    trace = tuple(TraceStep(c, t.lambda_min) for c, t in zip(subset, report.trace))
    checks = replay_check(prob, dataclasses.replace(report, subset=subset, trace=trace))
    assert [c.margin > 2 for c in checks[:4]] == [False, False, False, True]
    assert checks[3].column == worst and checks[3].best == old


def test_replay_check_reads_a_planted_trace_error():
    prob, report = _wide_report()
    trace = list(report.trace)
    trace[5] = TraceStep(trace[5].index, trace[5].lambda_min + 2 * prob.eps)
    checks = replay_check(prob, dataclasses.replace(report, trace=tuple(trace)))
    assert [c.trace_error > 1 for c in checks] == [i == 5 for i in range(12)]
    assert all(c.margin == 0.0 for c in checks)


def test_replay_check_refuses_a_report_it_cannot_replay():
    prob, report = _wide_report()
    with pytest.raises(InvalidInput, match="does not name its subset"):
        replay_check(prob, dataclasses.replace(report, trace=report.trace[::-1]))
    twice = report.subset[:1] * 2
    with pytest.raises(InvalidInput, match="duplicate"):
        list(replay_steps(prob, twice))
    with pytest.raises(InvalidInput, match="at most k = 12"):
        list(replay_steps(prob, range(13)))
    for bad in (5, None):
        with pytest.raises(InvalidInput, match="must be an iterable of integers"):
            list(replay_steps(prob, bad))


@pytest.mark.parametrize("seed", [0, 5, 10, 12, 17, 23, 30])
def test_the_lower_bound_slack_keeps_a_near_tie(monkeypatch, seed):
    # S, the spectral optimum, is not the Frobenius one.  Column 14 repeats
    # S's last column scaled by 1 + 1e-12, so O, S with that copy in its
    # place, scores just below S, and O comes later in combinations order.
    prob = random_problem(np.random.default_rng(seed), n=4, m=14, ell=2, k=5)
    before = brute_force(prob)
    s_best = before.best_subset_spec
    assert s_best != before.best_subset_frob
    b = prob.b.data
    b = np.hstack([b, b[:, s_best[-1:]] * (1 + 1e-12)])
    prob = SelectionProblem(a=prob.a, b=DenseMatrix(b), k=5, eps=prob.eps)
    o_best = s_best[:-1] + (14,)
    values = brute_force(prob).all_values
    spec_s = values[s_best][1]
    assert values[o_best][1] < spec_s and values[o_best][0] > min(f for f, _ in values.values())
    # O's lower bound now reads spec_S (1 + 1e-10): S, the subset of least
    # lower bound, makes spec_S the bar, and only LOWER_BOUND_SLACK keeps O
    first_pass, least = oracle._first_pass, []

    def raised(prob, batch, grams):
        frob, spec, decided, lower = first_pass(prob, batch, grams)
        lower = lower.copy()
        lower[(batch == o_best).all(axis=1)] = spec_s * (1 + 1e-10)
        least.append(tuple(batch[np.argmin(np.where(decided, lower, math.inf))].tolist()))
        return frob, spec, decided, lower

    monkeypatch.setattr(oracle, "_first_pass", raised)
    assert brute_force(prob).best_subset_spec == o_best
    assert least == [s_best]


def test_brute_force_ties_go_to_the_first_subset_across_batches(monkeypatch):
    monkeypatch.setattr(oracle, "ENUMERATION_BATCH", 256)
    # b = [c c]: a subset of one half and its twin in the other gather the same [a b_S]
    rng = np.random.default_rng(163)
    order = list(combinations(range(12), 4))
    across = [0, 0]  # draws whose minimum is reached in both batches, per norm
    for _ in range(40):
        c = rng.standard_normal((3, 6))
        prob = SelectionProblem(a=DenseMatrix.zeros(3, 0), b=DenseMatrix(np.hstack([c, c])), k=4)
        result = brute_force(prob)
        assert list(result.all_values) == order
        for s in combinations(range(6), 4):
            assert result.all_values[tuple(j + 6 for j in s)] == result.all_values[s]
        for norm, best, best_sq in [
            (0, result.best_subset_frob, result.best_frob_sq),
            (1, result.best_subset_spec, result.best_spec_sq),
        ]:
            reaching = [i for i, s in enumerate(order) if result.all_values[s][norm] == best_sq]
            assert best == order[reaching[0]]
            across[norm] += reaching[0] < 256 <= reaching[-1]
    # the exact copies that reach the minimum fall in different batches of 256
    assert min(across) > 0


@pytest.mark.parametrize("v", [5, 6])
def test_spanning_trees_of_the_complete_graph(v):
    # The incidence matrix of K_v has one column per edge (i, j), i < j, with
    # 1 in row i and -1 in row j; grounding vertex 0 drops its row.  A set of
    # v - 1 edges gives a nonsingular b_S iff it is a spanning tree, and then
    # |b_S^-1|_F^2 is the sum of the tree's vertex depths below vertex 0.
    # The first v - 1 edges are the star at vertex 0, where b_S = -I: the
    # only tree of depth 1, so both norms' unique optimum.
    edges = list(combinations(range(v), 2))
    incidence = np.zeros((v, len(edges)))
    for e, (i, j) in enumerate(edges):
        incidence[i, e], incidence[j, e] = 1.0, -1.0
    prob = SelectionProblem(a=DenseMatrix.zeros(v - 1, 0), b=DenseMatrix(incidence[1:]), k=v - 1)
    result = brute_force(prob)
    assert result.num_subsets == math.comb(len(edges), v - 1)
    assert result.num_feasible == v ** (v - 2)  # Cayley's formula
    assert result.best_subset_frob == result.best_subset_spec == tuple(range(v - 1))
    assert result.best_frob_sq == v - 1 and result.best_spec_sq == 1.0


def test_the_subset_index_is_the_combinations_array():
    for m in range(1, 15):
        for k in range(1, m + 1):
            expected = np.array(list(combinations(range(m), k)), np.intp)
            index = oracle._subset_index(m, k)
            assert index.dtype == expected.dtype and np.array_equal(index, expected), (m, k)


def test_the_subset_index_is_built_in_under_twice_its_own_memory():
    # Besides the result, the build holds its prefix levels, each smaller
    # than it but the last, whose parent rows are one column's worth: about
    # 1.5 times the result here.  A build that keeps every level's full
    # prefix rows reads about 2.5 times.
    tracemalloc.start()
    try:
        index = oracle._subset_index(40, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.shape == (658008, 5)
    assert peak <= 2 * index.nbytes


def test_brute_force_guard():
    rng = np.random.default_rng(127)
    prob = random_problem(rng, n=2, m=45, ell=0, k=20)
    with pytest.raises(TooLarge):
        brute_force(prob)


def test_oracle_sandwich():
    rng = np.random.default_rng(131)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 2, 9))
        k = int(rng.integers(n, m))
        prob = random_problem(rng, n, m, 0, k)
        report = greedy_select(prob)
        enum = brute_force(prob)
        assert enum.best_frob_sq <= report.frob_sq * (1 + 1e-12)
        assert enum.best_spec_sq <= report.spec_sq * (1 + 1e-12)
        assert report.frob_sq <= report.bound_factor * report.baseline_frob_sq
        assert report.spec_sq <= report.bound_factor * report.baseline_spec_sq


def test_barrier_values():
    # roots +-1, evaluated at -3: 1/2 + 1/4
    assert barrier(Polynomial([-1.0, 0.0, 1.0]), -3.0) == pytest.approx(0.75)
    assert barrier(Polynomial([-1.0, 1.0]), 0.0) == pytest.approx(1.0)
    assert barrier(from_roots([2.0, 2.0]), 0.0) == pytest.approx(1.0)


def test_barrier_requires_x_below_smallest_root():
    p = Polynomial([-1.0, 0.0, 1.0])
    with pytest.raises(InvalidInput):
        barrier(p, -1.0)
    with pytest.raises(InvalidInput):
        barrier(p, 0.0)


def test_barrier_descent_basic():
    rng = np.random.default_rng(137)
    for _ in range(40):
        p, _ = random_real_rooted(rng, max_degree=10)
        b = -float(rng.uniform(0.1, 2.0))
        delta = 1.0 / barrier(p, b)
        assert barrier_descent_check(p, b, delta)


def test_barrier_descent_boundary_delta():
    p = Polynomial([-1.0, 0.0, 1.0])
    b = -3.0
    assert barrier_descent_check(p, b, 1.0 / barrier(p, b))


def test_barrier_descent_degree_one_vacuous():
    assert barrier_descent_check(Polynomial([-1.0, 1.0]), 0.0, 0.5)


def test_barrier_descent_validates_preconditions():
    p = Polynomial([-1.0, 0.0, 1.0])
    with pytest.raises(InvalidInput):
        barrier_descent_check(p, -3.0, 100.0)  # barrier > 1/delta
    with pytest.raises(InvalidInput):
        barrier_descent_check(p, -3.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", True])
def test_barrier_checks_refuse_a_non_finite_point(bad):
    # NaN and -inf pass the comparison with the smallest root, and there the
    # ratio -p'(x)/p(x) is NaN: barrier returned NaN and the descent check
    # False.  A point that is not a real number, a bool among them, is
    # refused by the shared rule.
    p = from_roots([0.3, 0.7])
    got = re.escape(repr(bad))
    with pytest.raises(
        InvalidInput,
        match=rf"barrier('s x must be a real number other than NaN| needs a finite x), got {got}",
    ):
        barrier(p, bad)
    for name, args in (("b", (bad, 0.1)), ("delta", (0.0, bad))):
        with pytest.raises(
            InvalidInput,
            match=rf"barrier_descent_check('s {name} must be a real number other than NaN"
            rf"| needs a finite {name}), got {got}",
        ):
            barrier_descent_check(p, *args)


def test_companion_smallest_root_examples():
    assert companion_smallest_root(from_roots([1.0, 3.0])) == pytest.approx(1.0, abs=1e-8)
    assert companion_smallest_root(Polynomial([-0.25, 1.0])) == pytest.approx(0.25)
    with pytest.raises(InvalidInput):
        companion_smallest_root(Polynomial([2.0]))


def test_cross_oracle_agreement():
    rng = np.random.default_rng(139)
    for eps in (1e-4, 1e-6):
        for _ in range(60):
            p, _ = random_real_rooted(rng)
            assert abs(smallest_root(p, eps) - companion_smallest_root(p)) <= eps + 1e-8


def test_interlacing_check():
    f = from_roots([1.0, 3.0])
    assert interlacing_check(f, Polynomial([-2.0, 1.0]))
    assert not interlacing_check(f, Polynomial([-5.0, 1.0]))
    with pytest.raises(InvalidInput):
        interlacing_check(f, f)


def test_derivative_interlaces():
    rng = np.random.default_rng(149)
    for _ in range(30):
        p, _ = random_real_rooted(rng, max_degree=10)
        if p.degree < 2:
            continue
        assert interlacing_check(p, derivative(p))
