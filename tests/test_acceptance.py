"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``criterion NN ... PASS`` line (visible under
``pytest -s`` or in captured output) so the run doubles as a checklist.
"""
from __future__ import annotations

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from colsel.cli import main
from colsel.expected_charpoly import charpoly_psd, expected_poly, root_sum_identity_check
from colsel.linalg import DenseMatrix, norms_sq, pseudoinverse
from colsel.oracle import barrier, barrier_descent_check, companion_smallest_root
from colsel.poly import Polynomial, is_real_rooted, smallest_root
from colsel.selector import SelectionProblem, gamma, greedy_select
from conftest import in_x, random_isotropic, random_problem, random_real_rooted, valid_budgets

EPS = 1e-6


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:02d} ({name}): PASS [{detail}]")


def greedy_runs():
    """Seeded pool covering n in {2,3,4}, l in {0,1,2}, m <= 12, all valid k."""
    seed = 0
    for n in (2, 3, 4):
        for ell in (0, 1, 2):
            for m in range(n + 2, 13, 2):
                for k in valid_budgets(n, ell, m):
                    seed += 1
                    rng = np.random.default_rng(1000 + seed)
                    yield random_problem(rng, n, m, ell, k, eps=EPS)


def test_criterion_01_greedy_bound_holds():
    started = time.perf_counter()
    runs = 0
    worst = 0.0
    for prob in greedy_runs():
        report = greedy_select(prob)
        cap = report.bound_factor * (1.0 + 1e-7)
        ratio_frob = report.frob_sq / (cap * report.baseline_frob_sq)
        ratio_spec = report.spec_sq / (cap * report.baseline_spec_sq)
        assert ratio_frob <= 1.0, (prob.n, prob.m, prob.l, prob.k)
        assert ratio_spec <= 1.0, (prob.n, prob.m, prob.l, prob.k)
        worst = max(worst, ratio_frob, ratio_spec)
        runs += 1
    elapsed = time.perf_counter() - started
    assert runs >= 200
    assert elapsed < 60.0
    _report(1, "greedy norm bound", f"{runs} runs, worst ratio {worst:.3f}, {elapsed:.1f}s")


def test_criterion_02_two_column_equality_case():
    # m=2, n=1, k=1, no fixed block: the root polynomial is x - 1/2 and
    # the barrier lower bound 1/gamma(2,1,1,0) meets it exactly.
    inst = random_isotropic(np.random.default_rng(2), n=1, m=2, ell=0, k=1)
    f = in_x(expected_poly(inst, ()))
    assert np.asarray(f.coeffs) == pytest.approx((-0.5, 1.0), abs=1e-9)
    lam = smallest_root(f, 1e-10)
    bound = 1.0 / gamma(2, 1, 1, 0)
    assert abs(lam - 0.5) <= 1e-9
    assert abs(bound - 0.5) <= 1e-9
    assert abs(companion_smallest_root(f) - 0.5) <= 1e-9
    _report(2, "equality case", f"root {lam!r}, bound {bound!r}")


def test_criterion_03_summation_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 1, 11))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        t = int(rng.integers(0, m))
        subset = tuple(int(v) for v in rng.choice(inst.m, size=t, replace=False))
        residual = root_sum_identity_check(inst, subset)
        assert residual < 1e-8, (n, m, ell, t)
        worst = max(worst, residual)
    _report(3, "summation identity", f"100 pairs, worst residual {worst:.2e}")


def test_criterion_04_expectation_consistency():
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    for n in (1, 2, 3):
        for ell in (0, 1, 2):
            for m in range(n + 1, 9):
                for k in valid_budgets(n, ell, m):
                    inst = random_isotropic(rng, n, m, ell, k)
                    f = np.asarray(in_x(expected_poly(inst, ())).coeffs)
                    acc = np.zeros(n + 1)
                    count = 0
                    for subset in combinations(range(inst.m), k):
                        g = inst.gram_fixed.data.copy()
                        for s in subset:
                            v = inst.candidates[:, s]
                            g += np.outer(v, v)
                        acc += np.asarray(charpoly_psd(DenseMatrix(g)).coeffs)
                        count += 1
                    diff = float(np.max(np.abs(acc / count - f)))
                    assert diff < 1e-8, (n, m, ell, k)
                    worst = max(worst, diff)
                    checked += 1
    _report(4, "expectation consistency", f"{checked} instances (m <= 8), worst {worst:.2e}")


def test_criterion_05_interlacing_family():
    rng = np.random.default_rng(5)
    # 500 random convex combinations of sibling polynomials stay real-rooted
    for trial in range(500):
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 2, 10))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        j = int(rng.integers(0, k))
        partial = tuple(int(v) for v in rng.choice(inst.m, size=j, replace=False))
        rest = [i for i in range(inst.m) if i not in partial]
        i1, i2 = (int(v) for v in rng.choice(rest, size=2, replace=False))
        mu = float(rng.uniform())
        f1 = np.asarray(expected_poly(inst, partial + (i1,)).coeffs)
        f2 = np.asarray(expected_poly(inst, partial + (i2,)).coeffs)
        assert is_real_rooted(Polynomial(mu * f1 + (1.0 - mu) * f2)), trial

    # some leaf's smallest root reaches the tree root's smallest root
    enumerable = 0
    for trial in range(30):
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 1, 9))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        best_leaf = -math.inf
        for subset in combinations(range(inst.m), k):
            g = inst.gram_fixed.data.copy()
            for s in subset:
                v = inst.candidates[:, s]
                g += np.outer(v, v)
            best_leaf = max(best_leaf, float(np.linalg.eigvalsh(g)[0]))
        tree_root = smallest_root(in_x(expected_poly(inst, ())), 1e-9)
        assert best_leaf >= tree_root - 1e-8, trial
        enumerable += 1
    _report(5, "interlacing family", f"500 convex combos, {enumerable} enumerable instances")


def test_criterion_06_cross_oracle_roots():
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(500):
        p, _ = random_real_rooted(rng)
        reference = companion_smallest_root(p)
        for eps in (1e-4, 1e-6):
            gap = abs(smallest_root(p, eps) - reference)
            assert gap <= eps + 1e-8, (trial, eps)
            worst = max(worst, gap / (eps + 1e-8))
    _report(6, "cross-oracle roots", f"500 polynomials x 2 accuracies, worst {worst:.3f} of budget")


def test_criterion_07_gamma_inequality():
    started = time.perf_counter()
    checked = 0
    for m in range(3, 51):
        for k in range(2, m):
            for n in range(1, k):
                cap = (1.0 + math.sqrt(m / k)) ** 2 / (1.0 - math.sqrt(n / k)) ** 2
                assert gamma(m, n, k, 0) < cap, (m, n, k)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(7, "gamma inequality", f"{checked} triples with m <= 50, {elapsed:.2f}s")


def test_criterion_08_pseudoinverse_identities():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = DenseMatrix(rng.standard_normal((6, 4)))
        q = DenseMatrix(rng.standard_normal((4, 5)))
        lhs = pseudoinverse(DenseMatrix(p.data @ q.data)).data
        rhs = pseudoinverse(q).data @ pseudoinverse(p).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
    for _ in range(200):
        p = rng.standard_normal((4, 4))
        q = DenseMatrix(rng.standard_normal((4, 6)))
        lhs_sq, _ = norms_sq(pseudoinverse(DenseMatrix(p @ q.data)))
        rhs_sq, _ = norms_sq(DenseMatrix(pseudoinverse(q).data @ np.linalg.inv(p)))
        assert math.sqrt(lhs_sq) <= math.sqrt(rhs_sq) + 1e-9
    _report(8, "pseudoinverse identities", "200 product pairs + 200 prefactor pairs")


def test_criterion_09_barrier_descent():
    rng = np.random.default_rng(9)
    for trial in range(500):
        p, _ = random_real_rooted(rng, max_degree=10)
        b = -float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.1, 1.0)) / barrier(p, b)
        assert barrier_descent_check(p, b, delta), trial
    _report(9, "barrier descent", "500 admissible triples")


def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(10)
    b_data = np.hstack([np.eye(2), np.eye(2), rng.standard_normal((2, 2))])
    csv = "\n".join(",".join(repr(float(v)) for v in row) for row in b_data) + "\n"
    path_b = tmp_path / "b.csv"
    path_b.write_text(csv)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["select", "--b", str(path_b), "-k", "3", "--out", str(out1)]) == 0
    assert main(["select", "--b", str(path_b), "-k", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    prob = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=DenseMatrix(b_data), k=3)
    baseline = greedy_select(prob)
    assert baseline.subset == tuple(json.loads(out1.read_text())["subset"])
    # columns 2 and 3 repeat columns 0 and 1, so picking 0 or 1 met an exact tie
    # with its copy; each tie went to the smaller column
    assert {0, 1} <= set(baseline.subset) and not {2, 3} & set(baseline.subset)
    _report(10, "determinism", "byte-identical reruns, ties to the smallest column")
