"""Brute-force enumeration, barrier checks, companion-root cross-oracle."""
from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from itertools import combinations

import numpy as np
import pytest

from colsel import oracle
from colsel.errors import InvalidInput, TooLarge
from colsel.linalg import DEFAULT_RANK_TOL, DenseMatrix
from colsel.oracle import (
    barrier,
    barrier_descent_check,
    brute_force,
    companion_smallest_root,
    interlacing_check,
)
from colsel.poly import Polynomial, derivative, from_roots, smallest_root
from colsel.selector import SelectionProblem, greedy_select
from conftest import random_problem, random_real_rooted

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


def test_brute_force_batches_its_svds(monkeypatch):
    rng = np.random.default_rng(151)
    prob = random_problem(rng, n=3, m=12, ell=1, k=4)  # C(12, 4) = 495 subsets
    svd = np.linalg.svd
    stacks = []
    lock = threading.Lock()

    def capturing_svd(a, *args, **kwargs):
        with lock:  # the batches may run on several threads, in any order
            stacks.append(a.copy())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", capturing_svd)
    result = brute_force(prob)
    assert len(result.all_values) == 495
    assert len(stacks) == math.ceil(495 / 256) == 2
    subsets = list(combinations(range(prob.m), prob.k))
    assert list(result.all_values) == subsets

    def selected(subset):
        return np.hstack([prob.a.data, prob.b.data[:, list(subset)]])

    # match each stack to its batch by content: the batch whose first subset gives its first row
    first_rows = {selected(subsets[i]).tobytes(): i // 256 for i in range(0, 495, 256)}
    batch_of = [first_rows[stack[0].tobytes()] for stack in stacks]
    assert sorted(batch_of) == [0, 1]
    stacks = [stacks[batch_of.index(i)] for i in range(2)]
    assert [stack.shape for stack in stacks] == [(256, 3, 5), (239, 3, 5)]
    # each row is [a b_S] of the next subset in combinations order, bit for bit
    rows = [row for stack in stacks for row in stack]
    for row, subset in zip(rows, subsets):
        assert row.tobytes() == selected(subset).tobytes(), subset
    assert all(math.isfinite(f) for f, _ in result.all_values.values())


def _slot_problems():
    """Enumerations of 4 to 8 batches: rank-deficient subsets, overflowing
    norms, exact ties across batches, a fixed block, and no feasible subset."""
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


@pytest.mark.parametrize("name", list(_slot_problems()))
def test_brute_force_is_bit_identical_on_every_slot_count(monkeypatch, name):
    prob = _slot_problems()[name]
    batches = math.ceil(math.comb(prob.m, prob.k) / 256)
    assert 4 <= batches <= 8
    svd = np.linalg.svd
    threads = set()

    def recording_svd(a, *args, **kwargs):
        threads.add(threading.current_thread())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for slots in (1, 2, 3):
            monkeypatch.setattr(oracle, "_available_cpus", lambda: slots)
            threads.clear()
            results[slots] = brute_force(prob)
            # slot 0 is the calling thread; each other slot is its own helper
            assert threading.current_thread() in threads and len(threads) == slots
    finally:
        sys.setswitchinterval(interval)
    assert _enumeration_bits(results[2]) == _enumeration_bits(results[1])
    assert _enumeration_bits(results[3]) == _enumeration_bits(results[1])

    result = results[1]
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
            assert reaching[0] == 0 and reaching[-1] >= 512  # a tie across batches


def test_brute_force_keeps_the_callers_error_state_on_every_slot(monkeypatch):
    # columns 38 and 39 are 1e-150 apart by an angle of 1e-10: only the last
    # subset, (38, 39), underflows in sigma_min^2, and its batch is the fourth
    rng = np.random.default_rng(173)
    tail = 1e-150 * np.array([[1.0, 1.0], [0.0, 1e-10]])
    b = np.hstack([rng.standard_normal((2, 38)), tail])
    prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DenseMatrix(b), k=2)
    for slots in (1, 2, 3, 4):
        monkeypatch.setattr(oracle, "_available_cpus", lambda: slots)
        assert len(brute_force(prob).all_values) == 780
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            brute_force(prob)


def _colsel_codes():
    """The code of every function bound in a ``colsel`` module, methods and
    property getters of its classes included."""
    codes = set()
    for name, module in list(sys.modules.items()):
        if name != "colsel" and not name.startswith("colsel."):
            continue
        for value in vars(module).values():
            members = [value]
            if inspect.isclass(value) and value.__module__.startswith("colsel"):
                members = list(vars(value).values())
            for member in members:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    codes.add(member.__code__)
    return codes


def test_brute_force_helpers_call_no_colsel_function(monkeypatch):
    # the benchmark's tracer wraps module-level colsel functions, and its spans
    # assume one thread: a helper thread may run numpy only
    monkeypatch.setattr(oracle, "_available_cpus", lambda: 2)
    prob = _slot_problems()["fixed_block"]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    threading.setprofile(profile)  # threads started from now on, not this one
    try:
        result = brute_force(prob)
    finally:
        threading.setprofile(None)
    assert len(result.all_values) == 2002
    names = {code.co_name for code in calls}
    assert {"run", "norms", "svd"} <= names  # a helper ran the batches
    codes = _colsel_codes()
    assert oracle.brute_force.__code__ in codes and len(codes) > 100
    assert [code for code in calls if code in codes] == []


def test_a_helpers_error_is_raised_and_every_helper_joined(monkeypatch):
    monkeypatch.setattr(oracle, "_available_cpus", lambda: 3)
    prob = _slot_problems()["fixed_block"]  # 8 batches: the calling thread has 0, 3 and 6
    expected = _enumeration_bits(brute_force(prob))
    svd = np.linalg.svd
    caller = threading.current_thread()
    raised, failed, caller_calls = [], [], []
    lock = threading.Lock()

    def failing_svd(a, *args, **kwargs):
        thread = threading.current_thread()
        with lock:  # exactly one helper batch fails
            fail = thread is not caller and not raised
            if fail:
                raised.append(np.linalg.LinAlgError("SVD did not converge"))
                failed.append(thread)
        if fail:
            raise raised[0]
        if thread is caller:
            caller_calls.append(a.shape)
            # hold the first batch until the failed helper has exited
            deadline = time.monotonic() + 10.0
            while not (failed and not failed[0].is_alive()) and time.monotonic() < deadline:
                time.sleep(1e-3)
        return svd(a, *args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(np.linalg.LinAlgError) as info:
        brute_force(prob)
    assert info.value is raised[0]
    assert not failed[0].is_alive()
    # the failure stopped the calling thread before its next batch; it may
    # even have come before the first
    assert len(caller_calls) <= 1
    assert threading.active_count() == before
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert _enumeration_bits(brute_force(prob)) == expected
    assert threading.active_count() == before


def _per_subset_values(prob):
    """The enumeration with one SVD per subset: ``|.^+|_F^2 = sum sigma^-2``."""
    values = {}
    for subset in combinations(range(prob.m), prob.k):
        selected = np.hstack([prob.a.data, prob.b.data[:, list(subset)]])
        s = np.linalg.svd(selected, compute_uv=False)
        sigma_min_sq = float(s[-1]) ** 2
        frob_sq = spec_sq = math.inf
        if s[-1] > DEFAULT_RANK_TOL * s[0] and sigma_min_sq > 0.0:
            with np.errstate(over="ignore"):
                frob = float(np.sum(1.0 / (s * s)))
            if frob < math.inf:
                frob_sq, spec_sq = frob, min(1.0 / sigma_min_sq, frob)
        values[subset] = (frob_sq, spec_sq)
    return values


@pytest.mark.parametrize("n, m, ell, k", [(3, 14, 0, 3), (4, 14, 1, 3), (4, 13, 0, 4)])
def test_brute_force_matches_the_per_subset_loop(n, m, ell, k):
    # l + k = n, and the last column of b repeats the first, so the subsets
    # holding both are rank-deficient
    rng = np.random.default_rng([157, n, m])
    for _ in range(3):
        a = rng.standard_normal((n, ell))
        b = rng.standard_normal((n, m - 1))
        b = np.hstack([b, b[:, :1]])
        prob = SelectionProblem(a=DenseMatrix(a), b=DenseMatrix(b), k=k)
        assert math.comb(m, k) > 256  # several batches
        result = brute_force(prob)
        expected = _per_subset_values(prob)
        assert list(result.all_values) == list(expected)
        feasible = {s for s, (f, _) in expected.items() if math.isfinite(f)}
        assert {s for s, (f, _) in result.all_values.items() if math.isfinite(f)} == feasible
        assert 0 < len(feasible) < len(expected)
        pinv_feasible = set()
        for subset in expected:
            frob_sq, spec_sq = result.all_values[subset]
            assert type(frob_sq) is float and type(spec_sq) is float
            assert frob_sq == expected[subset][0]
            if subset in feasible:
                assert spec_sq == pytest.approx(expected[subset][1], rel=1e-15, abs=0.0)
            else:
                assert spec_sq == math.inf
            # the explicit pseudoinverse, which drops sigma <= DEFAULT_RANK_TOL * sigma_max:
            # its rank is the trace of the projector selected @ pinv
            selected = np.hstack([a, b[:, list(subset)]])
            pinv = np.linalg.pinv(selected, DEFAULT_RANK_TOL)
            if round(float(np.trace(selected @ pinv))) == n:
                pinv_feasible.add(subset)
                assert frob_sq == pytest.approx(np.sum(pinv * pinv), rel=1e-12, abs=0.0)
                assert spec_sq == pytest.approx(np.linalg.norm(pinv, 2) ** 2, rel=1e-12, abs=0.0)
        assert pinv_feasible == feasible


def test_brute_force_ties_go_to_the_first_subset_across_batches():
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
