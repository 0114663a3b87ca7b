"""Brute-force enumeration, barrier checks, companion-root cross-oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from colsel.errors import InvalidInput, TooLarge
from colsel.linalg import DenseMatrix
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


def test_brute_force_takes_one_svd_per_subset(monkeypatch):
    rng = np.random.default_rng(151)
    prob = random_problem(rng, n=3, m=7, ell=1, k=3)
    svd = np.linalg.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    result = brute_force(prob)
    assert len(calls) == len(result.all_values) == math.comb(7, 3)
    assert all(math.isfinite(f) for f, _ in result.all_values.values())


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
