"""Shared generators for seeded random test instances, and :func:`spy`."""
from __future__ import annotations

import itertools
from typing import Any, NamedTuple

import numpy as np

from colsel.expected_charpoly import IsotropicInstance, expected_poly_from_gram
from colsel.linalg import DenseMatrix, thin_svd
from colsel.oracle import replay_steps
from colsel.poly import Polynomial, from_roots, smallest_root
from colsel.selector import SelectionProblem, build_isotropic


def random_isotropic(
    rng: np.random.Generator, n: int, m: int, ell: int, k: int
) -> IsotropicInstance:
    """Instance with orthonormal-row y (right singular vectors of a
    Gaussian matrix) whose first ``ell`` columns form the fixed block."""
    y = thin_svd(DenseMatrix(rng.standard_normal((n, m + ell)))).vt
    return IsotropicInstance.from_y(y, ell, k)


def random_problem(
    rng: np.random.Generator, n: int, m: int, ell: int, k: int, eps: float = 1e-6
) -> SelectionProblem:
    a = DenseMatrix(rng.standard_normal((n, ell)))
    b = DenseMatrix(rng.standard_normal((n, m)))
    return SelectionProblem(a=a, b=b, k=k, eps=eps)


def valid_budgets(n: int, ell: int, m: int) -> range:
    """All selection budgets for a generic-rank fixed block of width ell."""
    r = min(n, ell)
    return range(max(1, n - r), m)


def in_x(p: Polynomial) -> Polynomial:
    """``p``, given in powers of ``y = x - 1`` as expected polynomials are, in
    powers of ``x``: numpy's composition with ``x - 1``, no package code."""
    x_minus_1 = np.polynomial.Polynomial([-1.0, 1.0])
    return Polynomial(np.polynomial.Polynomial(p.coeffs)(x_minus_1).coef)


def random_real_rooted(
    rng: np.random.Generator, max_degree: int = 12, low: float = 0.0, high: float = 1.0
) -> tuple[Polynomial, np.ndarray]:
    """Polynomial with roots drawn uniformly from [low, high]."""
    degree = int(rng.integers(1, max_degree + 1))
    roots = np.sort(rng.uniform(low, high, size=degree))
    return from_roots(list(roots)), roots


def replayed_rows(prob: SelectionProblem, subset):
    """Each step of a greedy run that picked ``subset``, from
    :func:`~colsel.oracle.replay_steps`, with the coefficient rows
    :func:`~colsel.expected_charpoly.expected_poly_from_gram` gives its
    candidates and the root the step before certified: the smallest root
    of the pick's row, or ``-1``.  So a test of the coefficient path reads
    a run's inputs, however the run scored its candidates."""
    inst = build_isotropic(prob)
    previous = -1.0
    for step in replay_steps(prob, subset):
        rows = expected_poly_from_gram(inst, step.gram, step.j, step.v)
        yield step, rows, previous
        previous = smallest_root(Polynomial(rows[step.pick]), prob.eps)


class Call(NamedTuple):
    """One call a :func:`spy` saw: its arguments, with every array argument
    copied as it was at the call, its result, and its place in the order of
    the calls every spy saw."""

    args: tuple
    kwargs: dict
    result: Any
    order: int


_CALL_ORDER = itertools.count()


def spy(patch, owner, name: str) -> list[Call]:
    """Rebind ``owner.name`` with ``patch`` (pytest's ``monkeypatch`` or one
    of its contexts) to a function that calls the original unchanged and
    appends a :class:`Call` to the returned list once it returns."""
    real = getattr(owner, name)
    calls: list[Call] = []

    def spied(*args, **kwargs):
        order = next(_CALL_ORDER)
        copied = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        result = real(*args, **kwargs)
        calls.append(Call(copied, kwargs, result, order))
        return result

    patch.setattr(owner, name, spied)
    return calls


def in_call_order(**spies: list[Call]) -> list[tuple[str, Call]]:
    """Every call the named :func:`spy` lists hold, as ``(name, call)``, in
    the order the calls were made."""
    named = [(name, call) for name, calls in spies.items() for call in calls]
    return sorted(named, key=lambda item: item[1].order)
