"""Matrix substrate: SVD, pseudoinverse, norms, slicing, Gram updates."""
from __future__ import annotations

import enum
import math

import numpy as np
import pytest

from colsel.errors import DimensionMismatch, InvalidInput, InvalidSubset
from colsel.linalg import (
    DenseMatrix,
    columns,
    gram_update,
    hcat,
    norms_sq,
    pseudoinverse,
    thin_svd,
)
from colsel.selector import SelectionProblem


def test_dense_matrix_rejects_non_finite():
    with pytest.raises(InvalidInput):
        DenseMatrix([[1.0, float("nan")]])
    with pytest.raises(InvalidInput):
        DenseMatrix([[float("inf")], [0.0]])


@pytest.mark.parametrize("data", [np.array([[1 + 2j, 3]]), [[1 + 2j, 3.0]], np.array([[1 + 0j]])])
def test_dense_matrix_rejects_complex_entries(data):
    with pytest.raises(InvalidInput, match="must be real"):
        DenseMatrix(data)


def test_dense_matrix_rejects_data_that_is_not_2d():
    for data in ([1.0, 2.0], np.zeros((1, 1, 1))):
        with pytest.raises(InvalidInput, match="must be 2-dimensional"):
            DenseMatrix(data)


def test_dense_matrix_is_immutable():
    q = DenseMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        q.data[0, 0] = 5.0
    with pytest.raises(AttributeError, match="DenseMatrix is immutable"):
        q.data = np.zeros((1, 2))
    assert q == DenseMatrix([[1.0, 2.0]])


def test_dense_matrix_equal_across_signed_zeros_hashes_alike():
    a, b = DenseMatrix([[0.0, 1.0]]), DenseMatrix([[-0.0, 1.0]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    c = DenseMatrix([[2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    problems = {
        SelectionProblem(a=DenseMatrix([[zero], [1.0]]), b=c, k=2) for zero in (0.0, -0.0)
    }
    assert len(problems) == 1


def test_thin_svd_diagonal():
    f = thin_svd(DenseMatrix([[3.0, 0.0], [0.0, 2.0]]))
    assert f.rank == 2
    assert f.sigma == pytest.approx((3.0, 2.0))


def test_thin_svd_wide_matrix():
    # eigenvalues of B B^T = [[2,1],[1,2]] are 3 and 1
    f = thin_svd(DenseMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert f.sigma == pytest.approx((math.sqrt(3.0), 1.0))


def test_thin_svd_zero_matrix():
    f = thin_svd(DenseMatrix.zeros(2, 2))
    assert f.rank == 0
    assert f.sigma == ()


def test_thin_svd_factor_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, cols = rng.integers(1, 7, size=2)
        q = DenseMatrix(rng.standard_normal((rows, cols)))
        f = thin_svd(q)
        assert all(s > 0 for s in f.sigma)
        assert list(f.sigma) == sorted(f.sigma, reverse=True)
        u, vt = f.u.data, f.vt.data
        n = q.rows
        assert np.max(np.abs(u.T @ u - np.eye(f.rank))) <= 1e-10 * n
        assert np.max(np.abs(vt @ vt.T - np.eye(f.rank))) <= 1e-10 * n
        recon = u @ np.diag(f.sigma) @ vt
        denom = max(np.linalg.norm(q.data), 1e-300)
        assert np.linalg.norm(recon - q.data) / denom <= 1e-10


def test_pseudoinverse_identity():
    assert pseudoinverse(DenseMatrix.identity(3)) == DenseMatrix.identity(3)


def test_pseudoinverse_rank_deficient_diagonal():
    got = pseudoinverse(DenseMatrix([[2.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(got.data, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)


def test_pseudoinverse_penrose_identity_wide():
    q = DenseMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    qp = pseudoinverse(q)
    assert qp.shape == (3, 2)
    assert np.max(np.abs(q.data @ qp.data @ q.data - q.data)) < 1e-9


def test_pseudoinverse_zero_matrix_convention():
    assert pseudoinverse(DenseMatrix.zeros(2, 3)) == DenseMatrix.zeros(3, 2)


def test_penrose_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = DenseMatrix(rng.standard_normal((4, 6)))
        qp = pseudoinverse(q)
        assert np.max(np.abs(q.data @ qp.data @ q.data - q.data)) <= 1e-9
        assert np.max(np.abs(qp.data @ q.data @ qp.data - qp.data)) <= 1e-9
        assert np.max(np.abs((q.data @ qp.data).T - q.data @ qp.data)) <= 1e-9
        assert np.max(np.abs((qp.data @ q.data).T - qp.data @ q.data)) <= 1e-9


def test_pseudoinverse_product_rule_full_rank():
    # (PQ)^+ = Q^+ P^+ when P has full column rank and Q full row rank
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = DenseMatrix(rng.standard_normal((6, 4)))
        q = DenseMatrix(rng.standard_normal((4, 5)))
        lhs = pseudoinverse(DenseMatrix(p.data @ q.data))
        rhs = pseudoinverse(q).data @ pseudoinverse(p).data
        assert np.max(np.abs(lhs.data - rhs)) <= 1e-8


def test_pseudoinverse_invertible_prefactor_inequality():
    # |(PQ)^+|_F <= |Q^+ P^-1|_F for invertible P
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.standard_normal((4, 4))
        q = DenseMatrix(rng.standard_normal((4, 6)))
        lhs, _ = norms_sq(pseudoinverse(DenseMatrix(p @ q.data)))
        rhs, _ = norms_sq(DenseMatrix(pseudoinverse(q).data @ np.linalg.inv(p)))
        assert math.sqrt(lhs) <= math.sqrt(rhs) + 1e-9


def test_norms_sq_examples():
    assert norms_sq(DenseMatrix.identity(2)) == pytest.approx((2.0, 1.0))
    assert norms_sq(DenseMatrix([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx((25.0, 16.0))
    assert norms_sq(DenseMatrix([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx((4.0, 4.0))


def test_norms_sq_ordering_and_sigma_consistency():
    rng = np.random.default_rng(19)
    for _ in range(30):
        q = DenseMatrix(rng.standard_normal((3, 5)))
        frob_sq, spec_sq = norms_sq(q)
        assert frob_sq >= spec_sq >= 0.0
        sigma_sum = sum(s * s for s in thin_svd(q).sigma)
        assert frob_sq == pytest.approx(sigma_sum, rel=1e-10)


def test_columns_basic():
    q = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert columns(q, [0, 2]) == DenseMatrix([[1.0, 3.0], [4.0, 6.0]])
    assert columns(q, [0, 1, 2]) == q
    assert columns(q, []) == DenseMatrix.zeros(2, 0)


def test_columns_returns_a_read_only_copy():
    q = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    for s in ([0, 2], [2, 1, 0], [1], []):
        data = columns(q, s).data
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert not data.flags.writeable
        assert not np.shares_memory(data, q.data)
        with pytest.raises(ValueError):
            data[...] = 0.0
    assert q == DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_columns_error_cases():
    q = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InvalidSubset):
        columns(q, [0, 2])
    with pytest.raises(InvalidSubset):
        columns(q, [-1])
    with pytest.raises(InvalidSubset):
        columns(q, [1, 1])
    with pytest.raises(InvalidSubset):
        columns(q, [np.int64(1), 1])


class _Column(enum.IntEnum):
    LAST = 2


def test_columns_takes_integer_indices_only():
    q = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert columns(q, [np.int64(2)]) == DenseMatrix([[3.0], [6.0]])
    assert columns(q, [_Column.LAST, 0]) == DenseMatrix([[3.0, 1.0], [6.0, 4.0]])
    for bad in (2.7, 1.0, True, np.True_):
        with pytest.raises(InvalidSubset, match="must be an integer"):
            columns(q, [bad])
    with pytest.raises(InvalidSubset, match="must be an integer, got False"):
        columns(q, [False, True])


def test_hcat():
    eye = DenseMatrix.identity(2)
    assert hcat(eye, eye) == DenseMatrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    assert hcat(DenseMatrix.zeros(2, 0), eye) == eye
    with pytest.raises(DimensionMismatch):
        hcat(DenseMatrix.zeros(2, 1), DenseMatrix.zeros(3, 1))


def test_gram_update_basic():
    g = gram_update(DenseMatrix.zeros(2, 2), [1.0, 0.0])
    assert g == DenseMatrix([[1.0, 0.0], [0.0, 0.0]])
    assert gram_update(g, [0.0, 0.0]) == g
    with pytest.raises(DimensionMismatch):
        gram_update(g, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch, match="must be square, got 2x3"):
        gram_update(DenseMatrix.zeros(2, 3), [1.0, 0.0])


def test_gram_update_accumulates_to_identity():
    rng = np.random.default_rng(23)
    y = thin_svd(DenseMatrix(rng.standard_normal((3, 8)))).vt
    g = DenseMatrix.zeros(3, 3)
    for j in range(y.cols):
        g = gram_update(g, y.data[:, j])
    assert np.max(np.abs(g.data - np.eye(3))) <= 1e-10
