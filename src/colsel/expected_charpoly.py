"""Expected characteristic polynomials over size-k column subsets.

Given an isotropic instance (orthonormal-row ``y``, fixed block Gram
``gram_fixed``), the polynomial attached to a partial selection of size
``j`` is the average of ``det[xI - gram(S)]`` over all size-``k``
supersets ``S`` of the partial.  It is computed without enumeration from
the partial's characteristic polynomial, written in the basis
``y = x - 1`` as ``sum c_i y^i``.  There the operator "multiply by
``y^a``, differentiate ``d`` times, divide by ``y^(a-d)``" (with
``a = m - n - j`` and ``d = k - j``) is one weight per coefficient:

    f_i = c_i * prod_{t<d} (i+a-t) / (n+a-t)

and the result is already monic of degree ``n``.  It is returned in the
monomial ``x`` basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .linalg import DenseMatrix, _as_indices, gram_update, thin_svd
from .poly import Polynomial, from_roots

__all__ = [
    "IsotropicInstance",
    "charpoly_psd",
    "expected_poly",
    "expected_poly_from_gram",
    "root_sum_identity_check",
]

_SYMMETRY_TOL = 1e-10
_EIGENVALUE_CLAMP_TOL = 1e-12
_ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class IsotropicInstance:
    """Selection instance in the isotropic frame ``y y^T = I``.

    ``y`` is ``n x (l + m)``: the fixed block, then the ``m`` candidates.
    Only this class knows that layout; the rest of the package reads the
    views :attr:`fixed` and :attr:`candidates` and names candidate ``j``
    by its column ``j`` of ``b``.  ``r`` is the rank of the fixed block,
    decided by the caller (``from_y`` takes it with
    :func:`~colsel.linalg.thin_svd`), and ``k`` is the selection budget
    with ``n - r <= k <= m - 1``.
    """

    y: DenseMatrix
    l: int
    r: int
    k: int

    def __post_init__(self) -> None:
        n = self.y.rows
        if not 0 <= self.l <= self.y.cols:
            raise InvalidInput(f"fixed block width l={self.l} outside [0, {self.y.cols}]")
        gram = self.y.data @ self.y.data.T
        if np.max(np.abs(gram - np.eye(n))) > _ORTHONORMALITY_TOL:
            raise InvalidInput("rows of y are not orthonormal: y y^T != I to 1e-8")
        if not n - self.r <= self.k <= self.m - 1:
            raise InvalidInput(
                f"selection budget k={self.k} outside [n - r, m - 1] = "
                f"[{n - self.r}, {self.m - 1}]"
            )

    @classmethod
    def from_y(cls, y: DenseMatrix, l: int, k: int) -> "IsotropicInstance":
        """Build an instance from ``y`` alone, taking ``r`` as the numerical
        rank of its first ``l`` columns."""
        r = thin_svd(DenseMatrix(y.data[:, :l])).rank
        return cls(y=y, l=int(l), r=r, k=int(k))

    @property
    def n(self) -> int:
        return self.y.rows

    @property
    def m(self) -> int:
        return self.y.cols - self.l

    @property
    def fixed(self) -> np.ndarray:
        """The fixed block, a read-only ``n x l`` view of ``y``."""
        return self.y.data[:, : self.l]

    @property
    def candidates(self) -> np.ndarray:
        """The candidates, a read-only ``n x m`` view of ``y``: column ``j`` carries ``b``'s."""
        return self.y.data[:, self.l :]

    @cached_property
    def gram_fixed(self) -> DenseMatrix:
        """Gram matrix ``y_F y_F^T`` of the fixed block (``n x n``)."""
        return DenseMatrix(self.fixed @ self.fixed.T)


def _psd_eigenvalues(g: DenseMatrix) -> list[float]:
    """Eigenvalues of a symmetric PSD matrix, with mildly negative ones
    (rounding noise) clamped to zero."""
    if g.rows != g.cols:
        raise InvalidInput(f"matrix must be square, got {g.rows}x{g.cols}")
    a = g.data
    # ufunc reductions run at C level; initial=0.0 covers the empty matrix.
    scale = max(1.0, float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0)))
    if np.maximum.reduce(np.abs(a - a.T), axis=None, initial=0.0) > _SYMMETRY_TOL * scale:
        raise InvalidInput("matrix is not symmetric to 1e-10")
    eig = np.linalg.eigvalsh(a).tolist()
    clamp = _EIGENVALUE_CLAMP_TOL * scale
    return [0.0 if -clamp <= v < 0.0 else v for v in eig]


def charpoly_psd(g: DenseMatrix) -> Polynomial:
    """Monic characteristic polynomial of a symmetric PSD matrix.

    Eigenvalues are computed with a symmetric solver and mildly negative
    ones (rounding noise) are clamped to zero before the root expansion.
    """
    return from_roots(_psd_eigenvalues(g))


def _shifted_charpoly(gram: DenseMatrix, a: int) -> list[float]:
    """Coefficients ``c_i`` of ``det[(y + 1)I - gram]`` in powers of ``y = x - 1``.

    For ``a < 0`` the ``-a`` roots of smallest magnitude are set to exactly
    zero.  They are zero in exact arithmetic: with ``a = m - n - j``, the
    identity minus the Gram of a size-``j`` partial is a sum of ``m - j``
    rank-one terms, so the Gram has eigenvalue one with multiplicity at
    least ``-a``.  ``IsotropicInstance`` checks ``y y^T = I`` to 1e-8.
    """
    roots = sorted((mu - 1.0 for mu in _psd_eigenvalues(gram)), key=abs)
    exact_zeros = max(-a, 0)
    roots[:exact_zeros] = [0.0] * exact_zeros
    return list(from_roots(roots).coeffs)


def _falling_weights(n: int, a: int, d: int) -> list[int]:
    """``prod_{t<d} (i+a-t)`` for ``i = 0..n``: the factor that multiplying
    by ``y^a``, differentiating ``d`` times and dividing by ``y^(a-d)``
    puts on ``y^i``.  Where ``i + a < 0`` the coefficient ``c_i`` is zero
    (see :func:`_shifted_charpoly`), so the weight is too."""
    return [math.perm(i + a, d) if i + a >= 0 else 0 for i in range(n + 1)]


def _from_shifted(f: Sequence[float]) -> Polynomial:
    """Expand ``sum f_i (x - 1)^i`` into monomial coefficients (Horner)."""
    coeffs = [f[-1]]
    for c in reversed(f[:-1]):
        # coeffs <- coeffs * (x - 1) + c
        coeffs.append(coeffs[-1])
        for i in range(len(coeffs) - 2, 0, -1):
            coeffs[i] = coeffs[i - 1] - coeffs[i]
        coeffs[0] = c - coeffs[0]
    return Polynomial(coeffs)


def expected_poly_from_gram(
    inst: IsotropicInstance, gram: DenseMatrix, j: int
) -> Polynomial:
    """Expected polynomial for a size-``j`` partial whose
    selected-plus-fixed Gram matrix is ``gram``; monic of degree ``n``."""
    if not 0 <= j <= inst.k:
        raise InvalidInput(f"partial size {j} outside [0, k={inst.k}]")
    n, a, d = inst.n, inst.m - inst.n - j, inst.k - j
    c = _shifted_charpoly(gram, a)
    w = _falling_weights(n, a, d)
    return _from_shifted([ci * (wi / w[n]) for ci, wi in zip(c, w)])


def _partial_gram(
    inst: IsotropicInstance, partial: Sequence[int], max_size: int
) -> tuple[list[int], DenseMatrix]:
    """The candidates ``partial``, checked, and the Gram matrix of the fixed block plus them."""
    idx = _as_indices(partial, inst.m, InvalidInput)
    if len(idx) > max_size:
        raise InvalidInput(f"partial selection of size {len(idx)} exceeds {max_size}")
    g = inst.gram_fixed
    for j in idx:
        g = gram_update(g, inst.candidates[:, j])
    return idx, g


def expected_poly(inst: IsotropicInstance, partial: Sequence[int]) -> Polynomial:
    """Expected characteristic polynomial over size-``k`` supersets of ``partial``.

    ``partial`` holds distinct candidates, each named by its column of
    ``b`` (column ``j`` of ``inst.candidates``); the result is monic of
    degree ``n``.
    """
    idx, gram = _partial_gram(inst, partial, inst.k)
    return expected_poly_from_gram(inst, gram, len(idx))


def root_sum_identity_check(inst: IsotropicInstance, s: Sequence[int]) -> float:
    """Residual of the one-step summation identity at subset ``s``, which
    names at most ``m - 1`` candidates by their columns of ``b``.

    Compares the sum of the child characteristic polynomials of ``s``
    against the one-derivative weights (``d = 1``, not normalised)
    applied to the polynomial of ``s`` itself; both sides have the number
    of children as leading coefficient, and the residual is scaled by
    it.  Test helper.
    """
    idx, gram = _partial_gram(inst, s, inst.m - 1)
    n, m = inst.n, inst.m

    children = [j for j in range(m) if j not in idx]
    lhs = np.zeros(n + 1)
    for j in children:
        lhs += np.asarray(charpoly_psd(gram_update(gram, inst.candidates[:, j])).coeffs)

    a = m - n - len(idx)
    c = _shifted_charpoly(gram, a)
    rhs = np.asarray(
        _from_shifted([ci * wi for ci, wi in zip(c, _falling_weights(n, a, 1))]).coeffs
    )

    return float(np.max(np.abs(lhs - rhs)) / len(children))
