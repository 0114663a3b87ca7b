"""Polynomial arithmetic, Sturm chains, and root isolation."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from colsel import poly, selector
from colsel.errors import DeflationFailure, InvalidInput, NotRealRooted
from colsel.oracle import companion_smallest_root, deflate_shifted_power, mul_shifted_power
from colsel.poly import (
    Polynomial,
    count_roots_leq,
    derivative,
    evaluate,
    from_roots,
    is_real_rooted,
    smallest_root,
    sturm_chain,
)
from conftest import random_problem, random_real_rooted, replayed_rows, spy


def coeffs_close(p: Polynomial, expected, tol=1e-12):
    got = np.zeros(max(len(p.coeffs), len(expected)))
    want = got.copy()
    got[: len(p.coeffs)] = p.coeffs
    want[: len(expected)] = expected
    return np.max(np.abs(got - want)) <= tol


def test_polynomial_normalization():
    assert Polynomial([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)
    assert Polynomial([0.0, 0.0]).is_zero
    assert Polynomial([]).degree == -1
    with pytest.raises(InvalidInput):
        Polynomial([float("nan")])


@pytest.mark.parametrize(
    "coeffs",
    [
        [1j, 1.0],
        5.0,
        [np.complex128(1 + 2j), 1.0],
        (1.0, np.complex64(0.5j)),
        np.array([1 + 2j, 1.0], dtype=np.complex64),
    ],
)
def test_polynomial_takes_real_coefficients_only(coeffs):
    # float() of a NumPy complex scalar keeps its real part with only a
    # ComplexWarning, which raises where warnings are errors.
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(InvalidInput, match="coeffs must be an iterable of real numbers"):
                Polynomial(coeffs)


def test_polynomial_converts_real_numbers_of_any_type():
    # Fraction(1, 3) is not equal to its float, so the complex scan runs too.
    assert Polynomial([np.float32(0.5), np.float64(2.0), 3, Fraction(1, 3)]).coeffs == (
        0.5, 2.0, 3.0, 1 / 3)


def test_from_roots_matches_the_row_expansion_and_rejects_roots_that_are_not_real():
    # The one-row case of the stacked expansion, on the roots by |root|;
    # in the order given, these roots expand to other last bits.
    roots = [2.5, 0.7, -0.3, 0.1, 1e-8]
    rows = poly._from_roots_rows(np.array([sorted(roots, key=abs), roots]))
    assert from_roots(roots).coeffs == tuple(rows[0].tolist()) != tuple(rows[1].tolist())
    assert from_roots([]).coeffs == (1.0,)
    assert from_roots([Fraction(1, 2), 2]).coeffs == (1.0, -2.5, 1.0)
    # A non-finite or complex root is InvalidInput, never a numpy warning.
    for bad in ([math.inf], [1.0, math.nan], [1e300] * 3, [1j], np.array([0.5, 1j])):
        with pytest.raises(InvalidInput):
            from_roots(bad)
    # A root that is not a number is InvalidInput too, not the sort's TypeError.
    for bad in (["1"], [None]):
        with pytest.raises(InvalidInput, match="roots must be real numbers"):
            from_roots(bad)


def _scalar_expansion(roots: list[float]) -> list[float]:
    """The ascending coefficients of ``prod (y - r_t)`` in Python floats:
    ``c[s] <- c[s-1] - r_t * c[s]`` one factor at a time, in the order
    given, with ``c[0]`` the zero below the constant."""
    c = [0.0, 1.0] + [0.0] * len(roots)
    for t, r in enumerate(roots):
        for s in range(t + 2, 0, -1):  # downwards, so c[s - 1] is still the old value
            c[s] = c[s - 1] - r * c[s]
    return c[1:]


def test_from_roots_rows_is_the_scalar_expansion_bit_for_bit():
    # The transform's pattern (row 0 holds every root, row i + 1 has root i
    # set to zero), mixed-sign rows across magnitudes, and empty shapes.
    rng = np.random.default_rng(40)
    cases = [np.empty((1, 0)), np.empty((0, 3))]
    for n in range(1, 13):
        pattern = np.empty((n + 1, n))
        pattern[:] = rng.uniform(-1.0, 0.0, n)
        pattern[1:].flat[:: n + 1] = 0.0
        mixed = rng.uniform(-2.0, 2.0, (3, n)) * 10.0 ** rng.integers(-3, 4, (3, n))
        cases += [pattern, mixed]
    for roots in cases:
        got = poly._from_roots_rows(roots)
        want = np.array([_scalar_expansion(row) for row in roots.tolist()])
        assert got.dtype == np.float64
        assert got.shape == (roots.shape[0], roots.shape[1] + 1)
        assert np.ascontiguousarray(got).tobytes() == want.reshape(got.shape).tobytes()


def test_derivative():
    assert derivative(Polynomial([-1.0, 0.0, 1.0])).coeffs == (0.0, 2.0)
    assert derivative(Polynomial([0.0, 0.0, 0.0, 1.0]), times=3).coeffs == (6.0,)
    assert derivative(Polynomial([5.0])).is_zero
    with pytest.raises(InvalidInput):
        derivative(Polynomial([1.0]), times=-1)


def test_derivative_takes_an_integer_count_only():
    p = Polynomial([0.0, 0.0, 1.0])
    assert derivative(p, np.int64(2)).coeffs == (2.0,)
    for times in (True, 1.5):
        with pytest.raises(InvalidInput, match=f"times must be an integer, got {times}"):
            derivative(p, times)


def test_mul_shifted_power():
    assert mul_shifted_power(Polynomial([1.0]), 2).coeffs == (1.0, -2.0, 1.0)
    assert mul_shifted_power(Polynomial([0.0, 1.0]), 0).coeffs == (0.0, 1.0)
    assert mul_shifted_power(Polynomial([1.0, 1.0]), 1).coeffs == (-1.0, 0.0, 1.0)


def test_deflate_shifted_power():
    assert deflate_shifted_power(Polynomial([1.0, -2.0, 1.0]), 2).coeffs == (1.0,)
    assert deflate_shifted_power(Polynomial([-1.0, 0.0, 1.0]), 1).coeffs == (1.0, 1.0)
    with pytest.raises(DeflationFailure):
        deflate_shifted_power(Polynomial([0.0, 0.0, 1.0]), 1)  # x^2 has remainder 1 at x=1


def test_mul_deflate_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        degree = int(rng.integers(0, 9))
        p = Polynomial(rng.uniform(-2.0, 2.0, size=degree + 1))
        if p.is_zero:
            continue
        power = int(rng.integers(0, 7))
        back = deflate_shifted_power(mul_shifted_power(p, power), power)
        scale = max(abs(c) for c in p.coeffs)
        assert coeffs_close(back, p.coeffs, tol=1e-9 * scale)


def test_sturm_chain_textbook():
    chain = sturm_chain(Polynomial([-1.0, 0.0, 1.0]))
    assert [len(q) - 1 for q in chain] == [2, 1, 0]
    assert chain[0] == (-1.0, 0.0, 1.0)
    assert chain[1] == (0.0, 2.0)
    assert chain[2][-1] > 0.0  # +1 up to positive scaling


def test_sturm_chain_linear():
    chain = sturm_chain(Polynomial([-3.0, 1.0]))
    assert [len(q) - 1 for q in chain] == [1, 0]


def test_sturm_chain_detects_gcd():
    # (x-1)^2: remainder vanishes, chain ends at the gcd x - 1
    chain = sturm_chain(from_roots([1.0, 1.0]))
    assert len(chain) == 2
    assert len(chain[-1]) - 1 == 1


def test_sturm_chain_rejects_zero():
    with pytest.raises(InvalidInput):
        sturm_chain(Polynomial([]))


def test_sturm_chain_strips_an_exactly_cancelled_lead():
    # x^4 - 1 divided by 4x^3 leaves -1: the x^3, x^2 and x terms cancel exactly
    chain = sturm_chain(Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0]))
    assert [len(q) - 1 for q in chain] == [4, 3, 0]
    assert count_roots_leq(chain, 0.0) == 1
    assert count_roots_leq(chain, 2.0) == 2


def test_sturm_chain_rejects_a_remainder_that_overflows():
    # p' = (1e-300, 2e200, 3e-300) is finite; the remainder of p by p' is not
    p = Polynomial([1e-300, 1e-300, 1e200, 1e-300])
    with pytest.raises(InvalidInput):
        sturm_chain(p)
    # The Cauchy radius overflows too, and smallest_root refuses that
    # before it builds a chain.
    for q in (p, Polynomial(-c for c in p.coeffs)):
        with pytest.raises(InvalidInput):
            smallest_root(q, 1e-6)


def _fourier_sequence(p: Polynomial) -> tuple[tuple[float, ...], ...]:
    """The Fourier sequence ``p, p', ..., p^(n)``, as :func:`count_roots_leq` takes a sequence."""
    return tuple(derivative(p, r).coeffs for r in range(p.degree + 1))


def test_sturm_chain_variations_at_minus_inf_match_the_signs_far_left():
    # Left of every entry's Cauchy bound, each entry has its sign at -inf,
    # so the count there, on the Sturm chain and on the Fourier sequence, is 0.
    rng = np.random.default_rng(37)
    polys = [Polynomial(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 14)))) for _ in range(100)]
    polys += [random_real_rooted(rng, low=-1.0)[0] for _ in range(100)]
    for p in polys:
        for seq in (sturm_chain(p), _fourier_sequence(p)):
            x = -2.0 * max(1.0 + max(map(abs, q)) / abs(q[-1]) for q in seq)
            assert count_roots_leq(seq, x) == 0


def test_count_roots_leq():
    chain = sturm_chain(Polynomial([-1.0, 0.0, 1.0]))
    assert count_roots_leq(chain, 0.0) == 1
    assert count_roots_leq(chain, 2.0) == 2
    no_real = sturm_chain(Polynomial([1.0, 0.0, 1.0]))
    for x in (-5.0, 0.0, 5.0):
        assert count_roots_leq(no_real, x) == 0


def test_count_roots_leq_refuses_a_non_finite_point():
    # Horner at +-inf or NaN gives NaN for every entry, which would read as
    # "both roots at or below -inf".
    p = from_roots([0.3, 0.7])
    for seq in (sturm_chain(p), _fourier_sequence(p)):
        for x in (-math.inf, math.inf, math.nan):
            with pytest.raises(InvalidInput, match="finite"):
                count_roots_leq(seq, x)


def test_count_roots_monotone_and_total():
    rng = np.random.default_rng(29)
    for _ in range(25):
        p, roots = random_real_rooted(rng)
        chain = sturm_chain(p)
        grid = np.linspace(-1.5, 2.5, 41)
        counts = [count_roots_leq(chain, x) for x in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == len(np.unique(roots.round(decimals=14)))


def test_smallest_root_examples():
    assert smallest_root(from_roots([1.0, 2.0, 3.0]), 1e-6) == pytest.approx(1.0, abs=1e-6)
    assert smallest_root(Polynomial([1.0, -2.0, 1.0]), 1e-6) == pytest.approx(1.0, abs=1e-6)
    assert smallest_root(Polynomial([-0.5, 1.0]), 1e-9) == pytest.approx(0.5, abs=1e-9)
    # eps below the float spacing at the root: stops at float resolution
    assert smallest_root(Polynomial([-0.5, 1.0]), 1e-300) == pytest.approx(0.5, abs=1e-15)
    # eps wider than the Cauchy bracket [-7, 7]: its midpoint
    assert smallest_root(from_roots([1.0, 2.0, 3.0]), float("inf")) == 0.0


def test_smallest_root_validation():
    with pytest.raises(InvalidInput):
        smallest_root(Polynomial([-1.0, 1.0]), 0.0)
    with pytest.raises(InvalidInput):
        smallest_root(from_roots([0.3, 0.7]), float("nan"))
    # x^2 + 1: no sign shows a root at or below an upper end, so the Sturm
    # count at the Cauchy end runs and finds no root, also when eps is
    # wider than the bracket.
    for eps in (1e-6, float("inf")):
        with pytest.raises(NotRealRooted):
            smallest_root(Polynomial([1.0, 0.0, 1.0]), eps)
    with pytest.raises(NotRealRooted):
        smallest_root(Polynomial([3.0]), 1e-6)
    # eps must be a real number; a bool is not
    p = from_roots([0.3, 0.7])
    for eps in (True, "1e-6", None, 1e-6 + 0j):
        with pytest.raises(InvalidInput, match="eps"):
            smallest_root(p, eps)


def test_smallest_root_refuses_an_overflowing_cauchy_bound():
    # The root 1 / 5e-324 is not a float: the Cauchy radius is inf, Newton
    # would start at -inf and bisect [-inf, inf], whose midpoint is NaN.
    with pytest.raises(InvalidInput, match="Cauchy"):
        smallest_root(Polynomial([-1.0, 5e-324]), 1e-6)


def test_smallest_root_accuracy_random():
    rng = np.random.default_rng(31)
    for eps in (1e-4, 1e-6, 1e-8):
        for _ in range(40):
            p, roots = random_real_rooted(rng)
            assert abs(smallest_root(p, eps) - roots[0]) <= eps


def test_smallest_root_certifies_wide_shape_roots(monkeypatch):
    # The benchmark's wide shape (n, m, l, k) = (6, 48, 3, 12).  Every root
    # the screen asks for, on the inputs of every step of a greedy run, is
    # settled by Laguerre and the two one-sided tests: one plain Horner
    # sign that clears its error bound shows a root at or below the upper
    # end, after two compensated Newton steps, and one lower-end
    # certificate, a zero Budan-Fourier count, shows no root at or below
    # the lower end.  So it takes two compensated evaluations, one
    # certificate and no Sturm count, nothing is bisected, and no Sturm
    # chain is built.  The screen's row-wise signs all clear their bound
    # too: no compensated evaluation outside a root.
    prob = random_problem(np.random.default_rng(3), 6, 48, 3, 12)
    replay = list(replayed_rows(prob, selector.greedy_select(prob).subset))
    certificates, counts, values, chains = (
        spy(monkeypatch, poly, name)
        for name in ("_left_of_every_root", "count_roots_leq", "_compensated_value", "sturm_chain")
    )
    costs = []
    real_smallest_root = selector.smallest_root

    def counted_smallest_root(p, eps):
        before = len(certificates), len(counts), len(values)
        root = real_smallest_root(p, eps)
        after = len(certificates), len(counts), len(values)
        costs.append(tuple(a - b for a, b in zip(after, before)))
        return root

    monkeypatch.setattr(selector, "smallest_root", counted_smallest_root)
    for _, rows, previous in replay:
        selector._best_candidate(rows, prob.eps, previous)
    assert 12 <= len(costs) <= 24
    assert set(costs) == {(1, 0, 2)}
    assert len(values) == 2 * len(costs)
    assert len(chains) == 0


def _exact_value(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _exact_sturm_chain(p: Polynomial) -> list[list[Fraction]]:
    """Sturm chain of ``p``, its float coefficients read as exact rationals."""

    def remainder(num, den):
        num = list(num)
        while len(num) >= len(den):
            f = num[-1] / den[-1]
            shift = len(num) - len(den)
            for i, d in enumerate(den):
                num[shift + i] -= f * d
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return num

    coeffs = [Fraction(c) for c in p.coeffs]
    chain = [coeffs, [i * c for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem = remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _exact_variations(chain, t: Fraction) -> int:
    signs = [v > 0 for v in (_exact_value(q, t) for q in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _exact_smallest_root(p: Polynomial, x: float, radius: float, tol: Fraction) -> Fraction:
    """Smallest root of ``p``, its float coefficients read as exact rationals.

    An exact Sturm chain checks that ``(x - radius, x + radius]`` holds the
    smallest root and no other; bisection on the exact sign of ``p`` then
    narrows that interval to ``tol``.
    """
    chain = _exact_sturm_chain(p)
    coeffs = chain[0]
    bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    lo, hi = Fraction(x) - Fraction(radius), Fraction(x) + Fraction(radius)
    at_lo = _exact_variations(chain, lo)
    assert _exact_variations(chain, -bound) - at_lo == 0  # no root at or below lo
    assert at_lo - _exact_variations(chain, hi) == 1  # exactly one in (lo, hi]
    lo_positive = _exact_value(coeffs, lo) > 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if (_exact_value(coeffs, mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_smallest_root_exact_on_criterion_06_trial_157():
    # Criterion 06's trial 157 (degree 12, clustered roots): plain-Horner
    # Newton stops 3.3e-7 off the root, the companion oracle is 9.6e-7 off
    # in the other direction, and together they overrun the eps = 1e-6
    # budget.  The compensated last Newton steps land within 1e-16 of the
    # exact root of the float polynomial.
    rng = np.random.default_rng(6)
    for _ in range(158):
        p, _ = random_real_rooted(rng)
    assert p.degree == 12
    got = smallest_root(p, 1e-6)
    exact = _exact_smallest_root(p, got, 1e-4, Fraction(1, 10**16))
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**12)


def _cauchy_bracket(p: Polynomial) -> tuple[float, float]:
    radius = poly._cauchy_radius(p)
    return -1.0 - radius, 1.0 + radius


def test_laguerre_stops_just_left_of_the_exact_smallest_root(monkeypatch):
    # From the Laguerre-Samuelson start, Laguerre climbs to the smallest
    # root of a real-rooted p and stops within eps/4 left of it, or right
    # of it by less than plain Horner can resolve there: its error bound
    # 4 (n+1) u mu over the slope (21 ulps at most here, the bound at least
    # 39).  It takes at most 9 Horner passes here, so a cap of 10 holds it;
    # Newton's step needs up to 29 on the same polynomials.
    monkeypatch.setattr(poly, "_LAGUERRE_MAX_STEPS", 10)
    rng = np.random.default_rng(5)
    for degree in range(2, 13):
        for _ in range(2):
            p = from_roots(list(np.sort(rng.uniform(0.0, 1.0, degree))))
            lo, hi = _cauchy_bracket(p)
            for eps in (1e-4, 1e-6):
                x = poly._laguerre_from_left(p.coeffs, lo, hi, eps)
                exact = _exact_smallest_root(p, x, eps, Fraction(1, 10**30))
                mu = sum(abs(c) * abs(x) ** i for i, c in enumerate(p.coeffs))
                blur = 4 * len(p.coeffs) * 2.0**-53 * mu / abs(evaluate(derivative(p), x))
                assert Fraction(x) <= exact + Fraction(blur), (degree, eps)
                assert exact - Fraction(x) <= Fraction(eps) / 4, (degree, eps)


def _exact_side(coeffs, t: float) -> Fraction:
    """``poly._side`` from the exact value at ``t``."""
    value = _exact_value([Fraction(c) for c in coeffs], Fraction(t))
    return value if (coeffs[-1] > 0) == (len(coeffs) % 2 == 1) else -value


def _exact_root_at_or_below(coeffs, t: float) -> bool:
    """``poly._side(coeffs, t) < 0`` from the exact value at ``t``."""
    return _exact_side(coeffs, t) < 0


def test_a_trusted_plain_sign_is_the_exact_sign(monkeypatch):
    # Points within 1e-12 of the roots, where plain Horner's value is
    # closest to its rounding error: wherever _side keeps the plain sign
    # (no compensated evaluation), that sign is exact.  Low
    # degrees keep most signs; high degrees send most to the fallback
    # (439 and 2,067 of the 2,506 points).
    calls = spy(monkeypatch, poly, "_compensated_value")
    rng = np.random.default_rng(17)
    trusted = fallback = 0
    for _ in range(60):
        p, roots = random_real_rooted(rng)
        for root in roots:
            for offset in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12):
                t = float(root) + offset
                before = len(calls)
                got = poly._side(p.coeffs, t)
                if len(calls) == before:
                    trusted += 1
                    exact = _exact_side(p.coeffs, t)
                    assert (got > 0, got < 0) == (exact > 0, exact < 0), (p, t)
                else:
                    fallback += 1
    assert trusted > 300 and fallback > 300


def test_a_clustered_root_takes_the_compensated_sign(monkeypatch):
    # Near the triple root of (x-1)^3 (x-3), |p| is far below 4 (n+1) u mu,
    # so the plain sign is not trusted and the value is compensated; away
    # from the cluster the plain sign clears its bound.
    calls = spy(monkeypatch, poly, "_compensated_value")
    c = from_roots([1.0, 1.0, 1.0, 3.0]).coeffs
    for t in (1.0 - 1e-5, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-5):
        before = len(calls)
        assert (poly._side(c, t) < 0) == _exact_root_at_or_below(c, t)
        assert len(calls) == before + 1, t
    for t in (0.5, 2.0, 3.5):
        before = len(calls)
        assert (poly._side(c, t) < 0) == _exact_root_at_or_below(c, t)
        assert len(calls) == before, t


def _sign_test_grid() -> list[tuple[np.ndarray, float]]:
    """``(rows, t)`` pairs: rows of degree 1, 2, 5, 6 and 12 at points on
    and within 1e-12 of the first row's roots, where plain Horner's value
    is closest to its rounding error, and at the near-double root of the
    last row, where it is below it.  Rows are scaled by factors of either
    sign, and the next-to-last down to 1e-310, whose lead is no normal float."""
    rng = np.random.default_rng(19)
    grid = []
    for degree in (1, 2, 5, 6, 12):
        roots = [sorted(rng.uniform(-1.0, 0.0, degree)) for _ in range(30)]
        roots.append(([-0.5, -0.5 + 1e-9] + [-0.1] * degree)[:degree])
        rows = np.array([from_roots(r).coeffs for r in roots])
        rows *= rng.choice([-1.0, 1.0], (len(rows), 1)) * 10.0 ** rng.integers(-3, 4, (len(rows), 1))
        rows[-2] *= 1e-310
        points = [r + d for r in roots[0] for d in (-1e-12, 0.0, 1e-12)] + [-0.5, -0.5 + 5e-10]
        grid += [(rows, t) for t in points]
    return grid


def test_the_row_wise_sign_test_is_the_scalar_one(monkeypatch):
    # _roots_at_or_below against _side(row, t) < 0 on every row of the
    # grid, where every branch runs: trusted plain signs, and compensated
    # ones for a small value or a tiny row.
    calls = spy(monkeypatch, poly, "_compensated_value")
    fallbacks = rows_seen = 0
    for rows, t in _sign_test_grid():
        before = len(calls)
        got = poly._roots_at_or_below(rows, t)
        fallbacks += len(calls) - before
        rows_seen += len(rows)
        assert got.tolist() == [poly._side(r, t) < 0 for r in rows.tolist()], t
    assert 100 < fallbacks < rows_seen / 10


def test_the_screens_trusted_signs_are_exact(monkeypatch):
    # Wherever _roots_at_or_below keeps the sign of its power sum on the
    # grid (the row is not compensated), that sign is the exact sign of
    # the float coefficients at t.  Degree-12 rows at |t| = 1e-200, where
    # t^2 underflows, and a row whose power sum loses its dominant term to
    # that underflow, must all be compensated, and get the exact sign: the
    # error bound does not cover underflow.
    calls = spy(monkeypatch, poly, "_compensated_value")
    cases = _sign_test_grid()
    cases += [(cases[-1][0], t) for t in (-1e-200, 1e-200)]  # the degree-12 rows
    cases.append((np.array([[-1e-300, 0.0, 1e300]]), 1e-200))
    trusted = 0
    for rows, t in cases:
        calls.clear()
        got = poly._roots_at_or_below(rows, t)
        seen = [tuple(call.args[0]) for call in calls]
        for row, at_or_below in zip(rows.tolist(), got.tolist()):
            compensated = tuple(row) in seen
            assert compensated or abs(t) > 1e-100, t
            trusted += not compensated
            if not compensated or abs(t) < 1e-100:
                assert at_or_below == _exact_root_at_or_below(row, t), (row, t)
    assert trusted > 2000, trusted


def test_fourier_count_is_a_sound_certificate():
    # Budan-Fourier: the sign variations of p, p', ..., p^(n) bound the
    # real roots at or below a point from above.  So wherever the float
    # count is zero the exact count of the float polynomial's roots must
    # be zero too, and the float count is never below the exact one.
    # Points lie left of the roots, between them, and right of them.
    rng = np.random.default_rng(71)
    zeros = counted = 0
    for trial in range(45):
        if trial % 3:
            p, roots = random_real_rooted(rng)
        else:  # every root doubled
            _, roots = random_real_rooted(rng, max_degree=6)
            roots = np.sort(np.concatenate([roots, roots]))
            p = from_roots(list(roots))
        fourier = _fourier_sequence(p)
        chain = _exact_sturm_chain(p)
        bound = 1 + max(abs(c) for c in chain[0][:-1]) / abs(chain[0][-1])
        at_minus_inf = _exact_variations(chain, -bound)
        points = [roots[0] - d for d in (0.5, 1e-2, 1e-4)]
        points += [0.5 * (a + b) for a, b in zip(roots, roots[1:]) if a < b]
        points += [roots[-1] + d for d in (1e-4, 0.5)]
        for x in points:
            got = count_roots_leq(fourier, float(x))
            exact = at_minus_inf - _exact_variations(chain, Fraction(float(x)))
            assert got >= exact, (trial, x)  # so a zero count means exact == 0
            zeros += got == 0
            counted += 1
    # every left point reads zero, and most other points do not
    assert zeros >= 3 * 45 and counted > 2 * zeros


def _exact_fourier_count(p: Polynomial, t: float) -> int:
    """Budan-Fourier count of ``p`` at ``t``: the sign variations of its
    exact ``p, p', ..., p^(n)``, its float coefficients read as exact
    rationals, at ``-inf`` (``n``: the leads share a sign and the degrees
    drop by one) less those at ``t``."""
    seq = [[Fraction(c) for c in p.coeffs]]
    while len(seq[-1]) > 1:
        seq.append([i * c for i, c in enumerate(seq[-1])][1:])
    return p.degree - _exact_variations(seq, Fraction(t))


def test_the_lower_end_rule_passes_only_a_zero_fourier_count():
    # Soundness: wherever _left_of_every_root says "left of every root",
    # the exact Budan-Fourier count is zero, so the float polynomial has no
    # root at or below t.  Degrees 1 to 12, 30% of those of degree >= 3 with
    # a complex pair in place of two roots; points 1e-3, 1e-9 and 1e-14 left
    # of the smallest real root, 1e-9 right of it, and one uniform point.
    # On these 3,000 cases the rule is also complete: it passes every zero.
    rng = np.random.default_rng(41)
    passed = zeros = pairs = 0
    for _ in range(600):
        degree = int(rng.integers(1, 13))
        roots = np.sort(rng.uniform(0.0, 1.0, degree))
        if degree >= 3 and rng.random() < 0.3:
            a, b = rng.uniform(-0.5, 1.5), rng.uniform(1e-3, 0.5)
            roots = roots[: degree - 2]
            p = _times(Polynomial([a * a + b * b, -2.0 * a, 1.0]), from_roots(list(roots)))
            pairs += 1
        else:
            p = from_roots(list(roots))
        smallest = float(roots[0])
        points = [smallest + d for d in (-1e-3, -1e-9, -1e-14, 1e-9)]
        for t in points + [float(rng.uniform(-1.0, 2.0))]:
            exact = _exact_fourier_count(p, t)
            left = poly._left_of_every_root(p.coeffs, derivative(p).coeffs, t)
            assert not left or exact == 0, (p, t, exact)
            passed += left
            zeros += exact == 0
    assert pairs > 100 and passed == zeros > 1500


def test_the_lower_end_rule_checks_every_derivative():
    # (x+2)(x+1)(x-3) = x^3 - 7x - 6 at 0: p(0) = -6 has its sign at -inf,
    # but p'(0) = -7 does not, and the roots -2 and -1 lie left of 0.
    p = from_roots([-2.0, -1.0, 3.0])
    assert p.coeffs == (-6.0, -7.0, 0.0, 1.0)
    assert poly._side(p.coeffs, 0.0) > 0 > poly._side(derivative(p).coeffs, 0.0)
    assert not poly._left_of_every_root(p.coeffs, derivative(p).coeffs, 0.0)
    assert poly._left_of_every_root(p.coeffs, derivative(p).coeffs, -2.5)


def test_the_lower_end_rule_takes_a_zero_for_no_sign():
    # A zero value is on neither side.  x^2 - x is 0 at its root 0, where p'
    # and p'' are on their -inf sides; x^2 + 1 has p'(0) = 0 between p and
    # p'' on theirs, and its Budan-Fourier count at 0 is 2 (the pair +-i).
    for coeffs in ((0.0, -1.0, 1.0), (1.0, 0.0, 1.0)):
        p = Polynomial(coeffs)
        assert _exact_fourier_count(p, 0.0) > 0
        assert [poly._side(derivative(p, r).coeffs, 0.0) for r in range(3)].count(0.0) == 1
        assert not poly._left_of_every_root(p.coeffs, derivative(p).coeffs, 0.0)


# A degree-12 expected polynomial of a greedy step at (12, 150, 0, 12), and
# the point x - eps/4 at which plain Horner's Fourier signs counted no root
# for the root x that smallest_root returned, with eps = 1e-6; a certified
# sign shows a root more than eps/2 left of x.
_FALSE_ZERO_ROW = (
    "0x1.3429af5cbd86ap-2", "0x1.00f5f39222260p+2", "0x1.885c7f6d3417fp+4",
    "0x1.6aaed597c6808p+6", "0x1.c415ebfb9be90p+7", "0x1.904c42178f7dap+8",
    "0x1.022d20e536723p+9", "0x1.e8d844ac7e1fbp+8", "0x1.511f8b6d99282p+8",
    "0x1.4a54f81cae5e1p+7", "0x1.b48c88e961884p+5", "0x1.5d52d5e175bd9p+3",
    "0x1.0000000000000p+0",
)
_FALSE_ZERO_POINT = float.fromhex("-0x1.0602f564da9c7p+0") - 0.25e-6


def test_the_fourier_count_trusts_a_sign_only_where_it_clears_its_error_bound(monkeypatch):
    # At the captured point, plain Horner's signs of p, p', ..., p^(12) lose
    # no sign variation (the rule with plain signs says "left of every
    # root"), yet the float polynomial has a root there.  The sign of p is
    # below its rounding-error bound; compensated, p is off its -inf side,
    # so the rule refuses at p, after that one compensated evaluation, and
    # smallest_root builds the Sturm chain.  (The float Sturm count misses
    # that root too, so the result stays where it was: the chain's signs
    # carry no bound.)
    p = Polynomial(float.fromhex(c) for c in _FALSE_ZERO_ROW)
    fourier = _fourier_sequence(p)
    x, eps = _FALSE_ZERO_POINT, 1e-6
    exact_chain = _exact_sturm_chain(p)
    bound = 1 + max(abs(c) for c in exact_chain[0][:-1]) / abs(exact_chain[0][-1])
    at_minus_inf = _exact_variations(exact_chain, -bound)
    assert at_minus_inf - _exact_variations(exact_chain, Fraction(x)) >= 1
    assert count_roots_leq(fourier, x) == 0
    values = spy(monkeypatch, poly, "_compensated_value")
    assert not poly._left_of_every_root(p.coeffs, derivative(p).coeffs, x)
    assert len(values) == 1
    chains = spy(monkeypatch, poly, "sturm_chain")
    smallest_root(p, eps)
    assert len(chains) == 1


def test_smallest_root_double_root():
    # (x-1)^2 (x-2): p does not change sign at 1, so no sign shows a root
    # at or below the upper end, and bisection narrows it.
    p = from_roots([1.0, 1.0, 2.0])
    for eps in (1e-4, 1e-6):
        assert abs(smallest_root(p, eps) - 1.0) <= eps
    # Within ~1e-8 of the double root p is below its rounding error and
    # the float Sturm counts are noise, so eps = 1e-9 is out of reach;
    # the result is still no further off than bisection alone gets
    # (1 - 7.6e-9).
    assert abs(smallest_root(p, 1e-9) - 1.0) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=NotRealRooted,
    reason="the float Sturm chain misses a near-common factor of p and p' and counts no root "
    "at the Cauchy end; ROADMAP item 3 certifies roots without a Sturm chain",
)
def test_smallest_root_five_close_double_roots():
    # Five double roots, degree 10.  The exact Sturm chain of the float
    # coefficients counts 10 distinct real roots (rounding splits each
    # double root), and exact bisection on its count finds the smallest.
    roots = [0.15310236920578202, 0.3553978778072462, 0.5368462621884645,
             0.6307010066482027, 0.7446835250007607]
    p = from_roots(sorted(roots + roots))
    chain = _exact_sturm_chain(p)
    coeffs = chain[0]
    hi = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    lo = -hi
    at_minus_inf = _exact_variations(chain, lo)
    assert at_minus_inf - _exact_variations(chain, hi) == 10
    while hi - lo > Fraction(1, 10**10):
        mid = (lo + hi) / 2
        if at_minus_inf - _exact_variations(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    for eps in (1e-4, 1e-6):
        assert abs(Fraction(smallest_root(p, eps)) - hi) <= Fraction(eps)


def _times(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [0.0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


# (coefficients of a quadratic with a complex pair, the real roots beside it)
_COMPLEX_PAIR_CASES = [
    # complex pair -2 +/- i, left of the real roots
    ((5.0, 4.0, 1.0), (0.5, 0.7)),
    # complex pair -1 +/- 0.5i: Newton stalls near the pair, left of every real root
    ((1.25, 2.0, 1.0), (0.5, 0.7)),
    # complex pair 5 +/- 5i: the Laguerre-Samuelson start lies right of 0.1
    ((50.0, -10.0, 1.0), (0.1, 0.2)),
    # complex pair 1 +/- i: Newton stops at 1.025, between the roots 0.1
    # and 2, where p does not change sign
    ((2.0, -2.0, 1.0), (0.1, 2.0)),
    # complex pair 2 +/- 2i: Newton lands on the larger real root 1; just
    # right of it p has its sign at -inf (two roots at or below), and the
    # Budan-Fourier count at its lower end is 1 (the root -1), so neither
    # end is certified there
    ((8.0, -4.0, 1.0), (-1.0, 1.0)),
]
# (the same, with one real root that the Budan-Fourier count cannot certify)
_FOURIER_PAIR_CASES = [
    ((2.0, 2.0, 1.0), 1.0),  # complex pair -1 +/- i, left of the root
    ((0.01, 0.0, 1.0), 0.2),  # complex pair +/- 0.1i, just left of the root
]


@pytest.mark.parametrize("pair, real_roots", _COMPLEX_PAIR_CASES)
def test_smallest_root_complex_pair_falls_back(pair, real_roots):
    # Not real-rooted: Newton's start and its barrier stop are no longer
    # bounds, so whatever the certificates reject is bisected.
    p = _times(Polynomial(pair), from_roots(real_roots))
    for eps in (1e-4, 1e-6):
        assert abs(smallest_root(p, eps) - real_roots[0]) <= eps


@pytest.mark.parametrize("pair, real_root", _FOURIER_PAIR_CASES)
def test_smallest_root_falls_back_to_sturm_where_fourier_counts_a_complex_pair(
    monkeypatch, pair, real_root
):
    # Left of the real root the Budan-Fourier count still counts the
    # complex pair, so only the Sturm count certifies the lower end.
    p = _times(Polynomial(pair), from_roots([real_root]))
    fourier = _fourier_sequence(p)
    assert count_roots_leq(fourier, real_root - 1e-6) == 2
    assert count_roots_leq(sturm_chain(p), real_root - 1e-6) == 0
    chains, certificates, counts = (
        spy(monkeypatch, poly, name)
        for name in ("sturm_chain", "_left_of_every_root", "count_roots_leq")
    )
    for eps in (1e-4, 1e-6):
        before = len(chains), len(certificates), len(counts)
        assert abs(smallest_root(p, eps) - real_root) <= eps
        # one chain, one lower-end certificate that fails and one Sturm
        # count: nothing is bisected
        assert (len(chains), len(certificates), len(counts)) == (
            before[0] + 1, before[1] + 1, before[2] + 1)


def test_smallest_root_falls_back_to_sturm_where_a_derivative_overflows(monkeypatch):
    # Leading coefficient 1e300 at degree 12: p' is finite, but the lead of
    # p^(10), 12!/2 * 1e300, is not.  Left of every root each finite
    # derivative is on its -inf side, so only the overflow makes the lower
    # end's rule refuse: that derivative's signed value is NaN.  One Sturm
    # chain takes every count.
    p = Polynomial(1e300 * c for c in from_roots([0.1 * i + 0.05 for i in range(12)]).coeffs)
    fourier = [p.coeffs]
    while fourier[-1]:
        fourier.append(poly._derivative_step(fourier[-1]))
    finite = [d for d in fourier[:-1] if all(map(math.isfinite, d))]
    assert len(finite) == 10 and all(poly._side(d, 0.0) > 0 for d in finite)
    assert math.isnan(poly._side(fourier[10], 0.0))
    assert not poly._left_of_every_root(p.coeffs, fourier[1], 0.0)
    chains, counts = (spy(monkeypatch, poly, name) for name in ("sturm_chain", "count_roots_leq"))
    assert abs(smallest_root(p, 1e-6) - 0.05) <= 1e-6
    assert len(chains) == 1
    counted = [all(math.isfinite(v) for c in call.args[0] for v in c) for call in counts]
    assert counted and all(counted)
    # An overflowing p' raises, as the Sturm chain's does, and before
    # Newton's start, which squares c[3] / c[4] = 1e200 in the second
    # polynomial and would raise OverflowError.
    for q in (Polynomial([-1.0, 0.0, 1e308]), Polynomial([0.0, 0.0, 1e308, 1e100, 1e-100])):
        with pytest.raises(InvalidInput, match="must be finite"):
            smallest_root(q, 1e-6)


def test_smallest_root_survives_an_overflowing_newton_start():
    # Newton's start squares c[n-1] / c[n] = +-1e200, and a float ** that
    # overflows raises OverflowError; the roots of the first are -1e200 and 0.
    for c in ([0.0, 1e200, 1.0], [0.0, -1e200, 1.0], [1.0, 1e200, 1.0], [0.0, 1e160, 1e-150]):
        for eps in (1e-6, 1e-4):
            try:
                root = smallest_root(Polynomial(c), eps)
            except (InvalidInput, NotRealRooted):
                continue
            assert type(root) is float and math.isfinite(root)


def _contract_polynomials() -> list[Polynomial]:
    """Seeded real-rooted polynomials, some with every root doubled, the
    complex-pair cases above, and criterion 06's clustered trial 157."""
    rng = np.random.default_rng(83)
    polys = [random_real_rooted(rng)[0] for _ in range(24)]
    for _ in range(8):
        _, roots = random_real_rooted(rng, max_degree=6)
        polys.append(from_roots(list(np.sort(np.concatenate([roots, roots])))))
    polys += [_times(Polynomial(pair), from_roots(roots)) for pair, roots in _COMPLEX_PAIR_CASES]
    polys += [_times(Polynomial(pair), from_roots([root])) for pair, root in _FOURIER_PAIR_CASES]
    rng = np.random.default_rng(6)
    for _ in range(158):
        p, _ = random_real_rooted(rng)
    return polys + [p]


def _root_or_error(p: Polynomial, eps: float):
    """``smallest_root``'s result as ``(hex, None)``, or ``(None, exception type)``."""
    try:
        return smallest_root(p, eps).hex(), None
    except NotRealRooted as exc:
        return None, type(exc)


def test_laguerre_guesses_lie_between_the_common_point_and_the_smallest_root():
    # One Laguerre step from y0, left of a real-rooted row's roots, climbs
    # to at most its smallest root: on every step's rows of three wide
    # runs, at the previous step's root less eps as the loop takes it, and
    # on random real-rooted rows of degree 1 to 12, scaled by +-10^-3 to
    # 10^3, at the floor -1 - eps of their roots and at points among them.
    # A row whose sign at y0 shows a root at or below it guesses -inf;
    # other rows with a root at or below y0, by the companion oracle, are
    # checked for NaN only.  At degree 1 the step is Newton's, which lands
    # on the root.
    cases = []
    for seed in range(3):
        prob = random_problem(np.random.default_rng(seed), 6, 48, 3, 12)
        replay = replayed_rows(prob, selector.greedy_select(prob).subset)
        cases += [(rows, previous - prob.eps) for _, rows, previous in replay]
    assert len(cases) == 36
    assert [y0 for _, y0 in cases[::12]] == [-1.0 - selector.DEFAULT_EPS] * 3
    rng = np.random.default_rng(29)
    for degree in range(1, 13):
        roots = np.sort(rng.uniform(-1.0, 0.0, (40, degree)), axis=1)
        rows = np.array([from_roots(r).coeffs for r in roots])
        rows *= rng.choice([-1.0, 1.0], (40, 1)) * 10.0 ** rng.integers(-3, 4, (40, 1))
        cases += [(rows, y0 - 1e-6) for y0 in (-1.0, -0.75, -0.5, -0.25)]
    checked = dropped = 0
    for rows, y0 in cases:
        guesses = poly._laguerre_guesses(rows, y0)
        assert not np.isnan(guesses).any()
        for row, guess in zip(rows.tolist(), guesses.tolist()):
            if poly._side(row, y0) < 0:
                assert guess == -math.inf, (row, y0)
                dropped += 1
            root = companion_smallest_root(Polynomial(row))
            if root <= y0 + 1e-8:
                continue
            assert y0 <= guess <= root + 1e-8, (row, y0)
            if len(row) == 2:
                assert guess == pytest.approx(-row[0] / row[1], rel=4e-16, abs=4e-16 * abs(y0))
            checked += 1
    assert checked > 800 and dropped > 200
    # a point that is not finite leaves every row unguessed
    for y0 in (math.inf, -math.inf, math.nan):
        assert (poly._laguerre_guesses(rows, y0) == -math.inf).all()


def test_a_row_the_screen_drops_cannot_win():
    # The greedy loop drops a row when _roots_at_or_below shows a root at or
    # below t = R0 - eps, R0 being the root it certified first.  Then the
    # exact smallest root of the float polynomial is at or below t, and
    # smallest_root's result is below t + eps/2 < R0: the row can neither
    # win nor tie.  Points lie left of the root, within eps of it and
    # right of it.  Some doubled-root polynomials raise NotRealRooted; p
    # keeps its sign there, so the screen drops them at no point.
    dropped = kept = 0
    for p in _contract_polynomials():
        exact_chain = _exact_sturm_chain(p)
        coeffs = exact_chain[0]
        bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
        at_minus_inf = _exact_variations(exact_chain, -bound)
        row = np.array([p.coeffs])
        for eps in (1e-4, 1e-6):
            plain = _root_or_error(p, eps)
            center = 0.5 if plain[0] is None else float.fromhex(plain[0])
            offsets = (-0.5, -eps, -0.5 * eps, -0.25 * eps, 0.0, 0.5 * eps, eps, 2.0 * eps, 0.5)
            for t in [center + d for d in offsets]:
                if poly._roots_at_or_below(row, t)[0]:
                    dropped += 1
                    assert plain[1] is None
                    assert float.fromhex(plain[0]) < t + 0.5 * eps
                    assert at_minus_inf - _exact_variations(exact_chain, Fraction(t)) >= 1
                else:
                    kept += 1
    assert dropped > 200 and kept > 200


def test_smallest_root_sign_test_survives_tiny_values():
    # The stall near -1 +/- 0.5i, with every coefficient scaled by 1e-170:
    # p is about 1e-170 on both sides of Newton's guess, so a sign test on
    # the product of two values there would underflow to 0.0 and certify a
    # root at -0.618.
    p = _times(Polynomial([1.25e-170, 2e-170, 1e-170]), from_roots((0.5, 0.7)))
    for eps in (1e-4, 1e-6):
        assert abs(smallest_root(p, eps) - 0.5) <= eps


def test_rolle_consistency():
    rng = np.random.default_rng(37)
    eps = 1e-6
    for _ in range(40):
        p, _ = random_real_rooted(rng)
        if p.degree < 2:
            continue
        dp = derivative(p)
        assert is_real_rooted(dp)
        assert smallest_root(dp, eps) >= smallest_root(p, eps) - 2 * eps


def test_is_real_rooted():
    assert not is_real_rooted(Polynomial([1.0, 0.0, 1.0]))
    assert is_real_rooted(from_roots([1.0, 2.0]))
    assert is_real_rooted(from_roots([1.0, 1.0]))
    assert is_real_rooted(from_roots([0.3, 0.3, 0.3, 0.9]))
    # one real root, two complex: x^3 - 1
    assert not is_real_rooted(Polynomial([-1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(InvalidInput):
        is_real_rooted(Polynomial([]))


def test_evaluate_horner():
    p = Polynomial([1.0, -2.0, 3.0])
    assert evaluate(p, 2.0) == pytest.approx(1.0 - 4.0 + 12.0)
    assert p(0.0) == 1.0
