"""Expected characteristic polynomials: pipeline, identities, interlacing."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from colsel.errors import InvalidInput
from colsel.expected_charpoly import (
    IsotropicInstance,
    _candidate_charpolys,
    _psd_eigenvalues,
    _psd_eigh,
    charpoly_psd,
    expected_poly,
    expected_poly_from_gram,
    root_sum_identity_check,
)
from colsel.linalg import DenseMatrix, _gram_updates, thin_svd
from colsel.oracle import shifted_pipeline, stacked_charpolys
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
            # the transform takes the Gram of all but the last pick, and the last as a column
            head = inst.gram_fixed.data + inst.candidates[:, partial[:-1]] @ inst.candidates[:, partial[:-1]].T
            last = inst.candidates[:, partial[-1:]] if j else np.zeros((n, 1))
            have = np.asarray(in_x(Polynomial(expected_poly_from_gram(inst, head, j, last)[0])).coeffs)
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
    with pytest.raises(InvalidInput, match="must be an iterable of integers"):
        expected_poly(inst, None)
    gram, zero = inst.gram_fixed.data, np.zeros((inst.n, 1))
    for j in (True, 1.0):
        with pytest.raises(InvalidInput, match="partial size must be an integer"):
            expected_poly_from_gram(inst, gram, j, inst.candidates)
    for j in (-1, inst.k + 1):
        with pytest.raises(InvalidInput, match=rf"partial size {j} outside \[0, k=2\]"):
            expected_poly_from_gram(inst, gram, j, inst.candidates)
    rows = expected_poly_from_gram(inst, gram, np.int64(0), zero)
    assert rows.shape == (1, inst.n + 1)
    assert tuple(rows[0].tolist()) == expected_poly(inst, ()).coeffs


def test_gram_stack_checks_name_the_failing_position():
    # One Gram and the candidate columns: a failing Gram is named as such,
    # a non-finite column by its position.
    rng = np.random.default_rng(63)
    inst = random_isotropic(rng, n=3, m=6, ell=2, k=3)
    gram, v = inst.gram_fixed.data, inst.candidates
    assert expected_poly_from_gram(inst, gram, 1, v).shape == (inst.m, inst.n + 1)

    asymmetric = gram.copy()
    asymmetric[0, 1] += 1e-6
    with pytest.raises(InvalidInput, match="gram is not symmetric"):
        expected_poly_from_gram(inst, asymmetric, 1, v)

    for bad in (np.nan, np.inf):
        nonfinite = gram.copy()
        nonfinite[1, 1] = bad
        with pytest.raises(InvalidInput, match="gram has a non-finite entry"):
            expected_poly_from_gram(inst, nonfinite, 1, v)
        column = v.copy()
        column[1, 4] = bad
        with pytest.raises(InvalidInput, match="column 4 of v has a non-finite entry"):
            expected_poly_from_gram(inst, gram, 1, column)

    huge = v.copy()
    huge[:, 2] *= 1e200  # finite, but its weight (Q^T v)^2 overflows
    with pytest.raises(InvalidInput, match="polynomial of column 2 of v has a non-finite"):
        expected_poly_from_gram(inst, gram, 1, huge)

    with pytest.raises(InvalidInput, match="gram must have shape"):
        expected_poly_from_gram(inst, gram[None], 1, v)  # a stack, not one Gram
    with pytest.raises(InvalidInput, match="candidate columns v must have shape"):
        expected_poly_from_gram(inst, gram, 1, v[:, 0])  # one column as a vector


def test_the_gram_names_itself_when_its_eigenvalues_do_not_converge(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    rng = np.random.default_rng(63)
    inst = random_isotropic(rng, n=3, m=6, ell=2, k=3)
    with pytest.raises(InvalidInput, match="eigenvalues of gram did not converge"):
        expected_poly_from_gram(inst, inst.gram_fixed.data, 1, inst.candidates)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.diag([1.0, np.nan]), "matrix 1 of the stack has a non-finite entry"),
        (np.array([[1.0, 1e-6], [0.0, 1.0]]), "matrix 1 of the stack is not symmetric"),
        (7.0 * np.eye(2), "eigenvalues of matrix 1 of the stack did not converge"),
    ],
    ids=["non-finite", "asymmetric", "non-converging"],
)
def test_gram_stack_names_a_matrix_whose_eigenvalues_do_not_converge(
    monkeypatch, matrix, message
):
    # Every check of the stack names the failing matrix by its position;
    # the solver fails only on a matrix holding a 7.
    eigh = np.linalg.eigh

    def fails_on_sevens(a):
        if np.any(a == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_sevens)
    stack = np.stack([np.eye(2), matrix, np.eye(2)])
    with pytest.raises(InvalidInput, match=message):
        _psd_eigenvalues(stack)


def test_gram_stack_clamps_against_each_matrix_own_scale():
    # Diagonal, so eigh returns the diagonal exactly; each matrix's
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


def test_psd_eigh_returns_eighs_spectrum_as_it_is_without_a_negative_eigenvalue():
    # A full-rank Gram, and the rank-deficient Gram y_F y_F^T of a fixed
    # block with l = 2 < n = 4 supported on the first two coordinates, so
    # that its zero eigenvalues come back exactly zero, not rounded below.
    rng = np.random.default_rng(64)
    inst = random_isotropic(rng, n=4, m=8, ell=5, k=4)
    y_f = np.zeros((4, 2))
    y_f[:2] = rng.standard_normal((2, 2))
    for gram in (inst.gram_fixed.data, y_f @ y_f.T):
        mu, q = np.linalg.eigh(gram)
        assert mu[0] >= 0.0
        got_mu, got_q = _psd_eigh(gram)
        assert (got_mu.tobytes(), got_q.tobytes()) == (mu.tobytes(), q.tobytes())
    assert np.linalg.eigh(y_f @ y_f.T)[0][:2].tolist() == [0.0, 0.0]
    assert _psd_eigh(np.zeros((0, 0)))[0].shape == (0,)  # an empty spectrum has no first value


@pytest.mark.parametrize("at", [(0, 1), (1, 0)], ids=["above", "below"])
def test_psd_eigh_finds_an_asymmetry_on_either_side_of_the_diagonal(at):
    rng = np.random.default_rng(65)
    gram = random_isotropic(rng, n=4, m=8, ell=5, k=4).gram_fixed.data.copy()
    _psd_eigh(gram)
    gram[at] += 1e-6
    with pytest.raises(InvalidInput, match="gram is not symmetric to 1e-10"):
        _psd_eigh(gram)


def test_expected_poly_names_a_candidate_by_its_column_of_b():
    rng = np.random.default_rng(62)
    inst = random_isotropic(rng, n=3, m=6, ell=2, k=3)
    gram, v = inst.gram_fixed.data, inst.candidates
    rows = expected_poly_from_gram(inst, gram, 1, v)
    for j in range(inst.m):
        alone = expected_poly_from_gram(inst, gram, 1, v[:, [j]])[0]
        assert expected_poly(inst, (j,)).coeffs == tuple(alone.tolist())
        # a matrix product over more columns may round its last bits differently
        assert expected_poly(inst, (j,)).coeffs == pytest.approx(rows[j].tolist(), rel=1e-14)


def _exact_shifted_charpoly(mat: np.ndarray) -> list[Fraction]:
    """Coefficients of ``det[(y + 1)I - mat]`` in powers of ``y``, ascending,
    exact in fractions for the float entries of ``mat``: Faddeev-LeVerrier
    for the polynomial in ``x``, then the exact shift ``x = y + 1``."""
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat.tolist()]
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for t in range(1, n + 1):
        # M_t = A M_{t-1} + c_{n-t+1} I, and c_{n-t} = -tr(A M_t) / t
        m = [
            [sum(a[i][l] * m[l][q] for l in range(n)) + (c[n - t + 1] if i == q else 0)
             for q in range(n)]
            for i in range(n)
        ]
        c[n - t] = -sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / t
    return [sum(c[i] * math.comb(i, t) for i in range(t, n + 1)) for t in range(n + 1)]


# A root r = mu - 1 carries the eigensolver's absolute error, about u, so
# a coefficient's relative error scales as u / min|r| (each coefficient
# is an elementary symmetric function of the |r_i|, and d e_s / d|r_i|
# <= e_s / |r_i|).  Bound on the relative error times min|r| over the
# roots not set to zero: 10x the largest measured below (1.7e-15, on the
# stacked rows; 1.1e-15 on the determinant-lemma rows).  Without that
# factor it reached 2.4e-10, on a candidate with mu = 1 - 4.96e-7.
_EXACT_RTOL = 2e-14


def test_both_transforms_match_the_exact_charpoly_of_the_float_candidate_gram():
    # For every step of random partials: the determinant-lemma rows (one
    # eigendecomposition of G) and the oracle's stacked rows (one eigh
    # per G + v v^T) against the exact characteristic polynomial of the
    # float matrix G + v v^T.  Shapes include a = m - n - j < 0, where both
    # set the first -a coefficients to zero and the exact ones are rounding
    # noise, and a rank-deficient fixed block.
    rng = np.random.default_rng(79)
    shapes = [(2, 5, 1, 3), (3, 6, 2, 4), (4, 6, 0, 5), (4, 9, 2, 4), (3, 4, 1, 3), (4, 5, 3, 4)]
    worst, negative_a = 0.0, 0
    for n, m, ell, k in shapes:
        for rank_a in (None, 1):
            a = rng.standard_normal((n, ell))
            if rank_a is not None and ell > 1:
                a = rng.standard_normal((n, 1)) @ rng.standard_normal((1, ell))
            y = thin_svd(DenseMatrix(np.hstack([a, rng.standard_normal((n, m))]))).vt
            inst = IsotropicInstance.from_y(y, ell, min(k, m - 1))
            order = [int(c) for c in rng.permutation(m)]
            gram = inst.gram_fixed.data
            for j in range(1, inst.k + 1):
                shift = m - n - j
                v = inst.candidates[:, order[j - 1 :]]
                rows = (_candidate_charpolys(gram, v, shift),
                        stacked_charpolys(_gram_updates(gram, v), shift))
                for c, cand in enumerate(_gram_updates(gram, v)):
                    exact = _exact_shifted_charpoly(cand)
                    zeros = max(-shift, 0)
                    min_r = np.sort(np.abs(np.linalg.eigvalsh(cand) - 1.0))[zeros]
                    for got in rows:
                        assert got[c, :zeros].tolist() == [0.0] * zeros
                        assert all(abs(e) < 1e-12 for e in exact[:zeros])
                        for g, e in zip(got[c, zeros:].tolist(), exact[zeros:]):
                            assert e != 0
                            worst = max(worst, float(abs(Fraction(g) - e) / abs(e)) * min_r)
                negative_a += shift < 0
                gram = _gram_updates(gram, inst.candidates[:, order[j - 1 : j]])[0]
    assert negative_a > 0
    assert worst <= _EXACT_RTOL


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
