"""Expected characteristic polynomials: pipeline, identities, interlacing."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from colsel.errors import InvalidInput
from colsel.expected_charpoly import (
    IsotropicInstance,
    _psd_eigenvalues,
    charpoly_psd,
    expected_poly,
    expected_poly_from_gram,
    root_sum_identity_check,
)
from colsel.linalg import DenseMatrix, gram_update, thin_svd
from colsel.oracle import shifted_pipeline
from colsel.poly import Polynomial, from_roots, is_real_rooted, smallest_root
from conftest import in_x, random_isotropic, valid_budgets


def leaf_charpoly(inst: IsotropicInstance, subset) -> Polynomial:
    g = inst.gram_fixed.data.copy()
    for s in subset:
        v = inst.candidates[:, s]
        g += np.outer(v, v)
    return charpoly_psd(DenseMatrix(g))


def leaf_average(inst: IsotropicInstance, partial=()) -> np.ndarray:
    rest = [i for i in range(inst.m) if i not in set(partial)]
    acc = np.zeros(inst.n + 1)
    count = 0
    for extra in combinations(rest, inst.k - len(partial)):
        acc += np.asarray(leaf_charpoly(inst, tuple(partial) + extra).coeffs)
        count += 1
    return acc / count


def test_charpoly_psd_examples():
    assert charpoly_psd(DenseMatrix.zeros(2, 2)).coeffs == (0.0, 0.0, 1.0)
    assert charpoly_psd(DenseMatrix.identity(2)).coeffs == pytest.approx((1.0, -2.0, 1.0))
    got = charpoly_psd(DenseMatrix([[0.5, 0.5], [0.5, 0.5]]))
    assert got.coeffs == pytest.approx((0.0, -1.0, 1.0), abs=1e-12)


def test_charpoly_psd_rejects_asymmetry():
    with pytest.raises(InvalidInput):
        charpoly_psd(DenseMatrix([[1.0, 0.5], [0.0, 1.0]]))


def test_instance_validation():
    y = thin_svd(DenseMatrix(np.random.default_rng(0).standard_normal((2, 5)))).vt
    with pytest.raises(InvalidInput):
        IsotropicInstance.from_y(y, 0, k=5)  # k > m - 1
    with pytest.raises(InvalidInput):
        IsotropicInstance.from_y(y, 0, k=1)  # k < n - r = 2
    bad = DenseMatrix(np.random.default_rng(0).standard_normal((2, 5)))
    with pytest.raises(InvalidInput):
        IsotropicInstance.from_y(bad, 0, k=3)  # rows not orthonormal
    for ell in (-1, 6):  # fixed block wider than y, or of negative width
        with pytest.raises(InvalidInput, match="fixed block width"):
            IsotropicInstance(y, l=ell, r=0, k=2)
    # the fixed block's rank lies in [0, min(n, l)]
    for ell, r, k in ((0, 5, 0), (0, 5, 2), (1, 2, 2), (3, 3, 2), (2, -1, 2)):
        with pytest.raises(InvalidInput, match="fixed block rank"):
            IsotropicInstance(y, l=ell, r=r, k=k)
    # k >= 1 even where the fixed block has full rank, n - r = 0
    with pytest.raises(InvalidInput, match="selection budget"):
        IsotropicInstance(y, l=2, r=2, k=0)
    assert IsotropicInstance(y, l=2, r=2, k=1).k == 1


def test_instance_takes_a_dense_matrix_only():
    with pytest.raises(InvalidInput, match="y must be a DenseMatrix, got ndarray"):
        IsotropicInstance(np.eye(2, 4), 0, 0, 2)


def test_instance_takes_integers_only():
    y = thin_svd(DenseMatrix(np.random.default_rng(0).standard_normal((2, 5)))).vt
    inst = IsotropicInstance.from_y(y, np.int64(1), np.int64(2))
    assert (type(inst.l), type(inst.r), type(inst.k)) == (int, int, int)
    with pytest.raises(InvalidInput, match="k must be an integer, got 2.9"):
        IsotropicInstance.from_y(y, 1, 2.9)
    with pytest.raises(InvalidInput, match="l must be an integer, got 1.5"):
        IsotropicInstance.from_y(y, 1.5, 2)
    for bad, name in ((dict(k=2.9), "k"), (dict(l=True), "l"), (dict(r=1.0), "r")):
        with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
            IsotropicInstance(y, **{"l": 1, "r": 1, "k": 2, **bad})


def test_instance_prefix_layout():
    rng = np.random.default_rng(37)
    for ell in (0, 1, 3):
        inst = random_isotropic(rng, n=3, m=6, ell=ell, k=4)
        assert inst.m == 6
        assert inst.fixed.shape == (3, ell) and inst.candidates.shape == (3, 6)
        assert np.array_equal(inst.candidates, inst.y.data[:, ell:])
        block = inst.y.data[:, :ell]
        assert np.array_equal(inst.gram_fixed.data, block @ block.T)


def test_expected_poly_two_column_average():
    # one row, two unit-norm columns: the root polynomial is x - 1/2
    inst = IsotropicInstance.from_y(DenseMatrix([[0.6, 0.8]]), 0, k=1)
    assert in_x(expected_poly(inst, ())).coeffs == pytest.approx((-0.5, 1.0))


def test_expected_poly_full_partial_is_leaf():
    rng = np.random.default_rng(41)
    inst = random_isotropic(rng, n=2, m=5, ell=1, k=3)
    partial = (0, 1, 2)
    f = in_x(expected_poly(inst, partial))
    leaf = leaf_charpoly(inst, partial)
    assert np.asarray(f.coeffs) == pytest.approx(np.asarray(leaf.coeffs), abs=1e-10)


def test_expected_poly_empty_partial_matches_enumeration():
    rng = np.random.default_rng(43)
    inst = random_isotropic(rng, n=2, m=3, ell=0, k=2)
    f = in_x(expected_poly(inst, ()))
    assert np.asarray(f.coeffs) == pytest.approx(leaf_average(inst), abs=1e-8)


def test_expected_poly_matches_enumeration_at_all_depths():
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 1, 9))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        j = int(rng.integers(0, k + 1))
        partial = tuple(
            int(v) for v in rng.choice(inst.m, size=j, replace=False)
        )
        f = in_x(expected_poly(inst, partial))
        assert np.asarray(f.coeffs) == pytest.approx(leaf_average(inst, partial), abs=1e-8)


def test_expected_poly_closed_form_at_empty_partial():
    # Closed form at the empty partial, then agreement with the
    # monomial-basis reference pipeline at a random partial of every size,
    # including j > m - n, where the y-basis transform drops exact zeros.
    rng = np.random.default_rng(53)
    beyond = 0
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ell = int(rng.integers(0, 4))
        m = int(rng.integers(n + 1, 10))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        fixed_cols = DenseMatrix(inst.fixed)
        sigma = thin_svd(fixed_cols).sigma
        seed = from_roots([0.0] * (n - inst.r) + [s * s for s in sigma])
        expect = shifted_pipeline(seed, m - n, k)
        got = in_x(expected_poly(inst, ()))
        assert np.asarray(got.coeffs) == pytest.approx(np.asarray(expect.coeffs), abs=1e-8)

        for j in range(k + 1):
            partial = rng.choice(inst.m, size=j, replace=False)
            gram = DenseMatrix(
                inst.gram_fixed.data + inst.candidates[:, partial] @ inst.candidates[:, partial].T
            )
            want = np.asarray(shifted_pipeline(charpoly_psd(gram), m - n - j, k - j).coeffs)
            have = np.asarray(in_x(expected_poly_from_gram(inst, gram.data[None], j)[0]).coeffs)
            assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want))
            beyond += j > m - n
    assert beyond > 0


def test_expected_poly_real_rooted_everywhere():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 2, 9))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        for j in range(k + 1):
            partial = tuple(range(j))
            assert is_real_rooted(expected_poly(inst, partial))


def test_expected_poly_input_validation():
    rng = np.random.default_rng(61)
    inst = random_isotropic(rng, n=2, m=4, ell=1, k=2)
    for outside in (-1, inst.m):  # candidates are columns 0..m-1 of b
        with pytest.raises(InvalidInput, match="out of range"):
            expected_poly(inst, (outside,))
    with pytest.raises(InvalidInput):
        expected_poly(inst, (0, 1, 0))  # duplicate
    with pytest.raises(InvalidInput):
        expected_poly(inst, (0, 1, 2))  # larger than k
    assert expected_poly(inst, (np.int64(0),)) == expected_poly(inst, (0,))
    with pytest.raises(InvalidInput, match="must be an integer"):
        expected_poly(inst, (0.0,))
    grams = inst.gram_fixed.data[None]
    for j in (True, 1.0):
        with pytest.raises(InvalidInput, match="partial size must be an integer"):
            expected_poly_from_gram(inst, grams, j)
    for j in (-1, inst.k + 1):
        with pytest.raises(InvalidInput, match=rf"partial size {j} outside \[0, k=2\]"):
            expected_poly_from_gram(inst, grams, j)
    assert expected_poly_from_gram(inst, grams, np.int64(0)) == [expected_poly(inst, ())]


def _candidate_grams(inst: IsotropicInstance) -> np.ndarray:
    return np.stack(
        [gram_update(inst.gram_fixed, inst.candidates[:, j]).data for j in range(inst.m)]
    )


def test_gram_stack_checks_name_the_failing_position():
    rng = np.random.default_rng(63)
    inst = random_isotropic(rng, n=3, m=6, ell=2, k=3)
    grams = _candidate_grams(inst)
    assert len(expected_poly_from_gram(inst, grams, 1)) == inst.m

    asymmetric = grams.copy()
    asymmetric[2, 0, 1] += 1e-6
    with pytest.raises(InvalidInput, match="matrix 2 of the stack is not symmetric"):
        expected_poly_from_gram(inst, asymmetric, 1)

    for bad in (np.nan, np.inf):
        nonfinite = grams.copy()
        nonfinite[4, 1, 1] = bad
        with pytest.raises(InvalidInput, match="matrix 4 of the stack has a non-finite entry"):
            expected_poly_from_gram(inst, nonfinite, 1)

    with pytest.raises(InvalidInput, match="must have shape"):
        expected_poly_from_gram(inst, grams[0], 1)  # one Gram, not a stack


def test_gram_stack_names_a_matrix_whose_eigenvalues_do_not_converge(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def fails_on_sevens(a):
        if np.any(a == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_sevens)
    stack = np.stack([np.eye(2), 7.0 * np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInput, match="eigenvalues of matrix 1 of the stack did not converge"):
        _psd_eigenvalues(stack)


def test_gram_stack_clamps_against_each_matrix_own_scale():
    # Diagonal, so eigvalsh returns the diagonal exactly; each matrix's
    # clamp is 1e-12 * max(1, max|G|) of that matrix alone.
    stack = np.stack([
        np.diag([-1e-14 * 5.0, 2.0, 5.0]),  # clamped to exactly 0.0
        np.diag([-1e-11, 1.0, 1000.0]),  # clamped: its scale is 1000
        np.diag([-1e-11, 1.0, 1.0]),  # kept: its scale is 1
        np.diag([-2e-12 * 5.0, 2.0, 5.0]),  # kept: twice the clamp
    ])
    eig = _psd_eigenvalues(stack)
    assert [math.copysign(1.0, v) for v in eig[:2, 0]] == [1.0, 1.0]
    assert eig[:, 0].tolist() == [0.0, 0.0, -1e-11, -2e-12 * 5.0]
    assert charpoly_psd(DenseMatrix(stack[0])).coeffs[0] == 0.0


def test_expected_poly_names_a_candidate_by_its_column_of_b():
    rng = np.random.default_rng(62)
    inst = random_isotropic(rng, n=3, m=6, ell=2, k=3)
    for j in range(inst.m):
        gram = gram_update(inst.gram_fixed, inst.candidates[:, j])
        assert expected_poly(inst, (j,)) == expected_poly_from_gram(inst, gram.data[None], 1)[0]


def test_root_sum_identity_tiny_case():
    inst = IsotropicInstance.from_y(DenseMatrix([[0.6, 0.8]]), 0, k=1)
    assert root_sum_identity_check(inst, ()) < 1e-9


def test_root_sum_identity_random():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        ell = int(rng.integers(0, 3))
        m = int(rng.integers(n + 1, 10))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        t = int(rng.integers(0, m))
        s = tuple(int(v) for v in rng.choice(inst.m, size=t, replace=False))
        assert root_sum_identity_check(inst, s) < 1e-8


def test_root_sum_identity_single_child():
    rng = np.random.default_rng(71)
    inst = random_isotropic(rng, n=2, m=4, ell=0, k=2)
    s = tuple(range(inst.m - 1))
    assert root_sum_identity_check(inst, s) < 1e-8


def test_sibling_convex_combinations_real_rooted():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(0, 2))
        m = int(rng.integers(n + 2, 8))
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
        combo = Polynomial(mu * f1 + (1.0 - mu) * f2)
        assert is_real_rooted(combo)


def test_root_comparison_interlacing_family():
    # min over leaves <= root of tree <= max over leaves, at the smallest root
    rng = np.random.default_rng(79)
    eps = 1e-9
    for _ in range(10):
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(0, 2))
        m = int(rng.integers(n + 2, 8))
        budgets = valid_budgets(n, ell, m)
        k = int(rng.integers(budgets.start, budgets.stop))
        inst = random_isotropic(rng, n, m, ell, k)
        leaf_roots = [
            float(np.linalg.eigvalsh(inst.gram_fixed.data + sum(
                np.outer(inst.candidates[:, s], inst.candidates[:, s]) for s in subset
            ))[0])
            for subset in combinations(range(inst.m), k)
        ]
        tree_root = smallest_root(in_x(expected_poly(inst, ())), eps)
        assert min(leaf_roots) <= tree_root + 1e-6
        assert tree_root <= max(leaf_roots) + 1e-6
