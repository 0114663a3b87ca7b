"""Polynomial arithmetic, Sturm chains, and root isolation."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from colsel import poly, selector
from colsel.errors import DeflationFailure, InvalidInput, NotRealRooted
from colsel.oracle import deflate_shifted_power, mul_shifted_power
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
from conftest import random_problem, random_real_rooted


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


@pytest.mark.parametrize("coeffs", [[1j, 1.0], 5.0])
def test_polynomial_takes_real_coefficients_only(coeffs):
    with pytest.raises(InvalidInput, match="coeffs must be an iterable of real numbers"):
        Polynomial(coeffs)


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
    # before it builds a chain, with any incumbent.
    for q in (p, Polynomial(-c for c in p.coeffs)):
        for incumbent in (-math.inf, 0.0, math.inf):
            with pytest.raises(InvalidInput):
                smallest_root(q, 1e-6, incumbent)


def test_sturm_chain_variations_at_minus_inf_match_the_signs_far_left():
    # Left of every entry's Cauchy bound, each entry has its sign at -inf,
    # so the count there, on the Sturm chain and on the Fourier sequence, is 0.
    rng = np.random.default_rng(37)
    polys = [Polynomial(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 14)))) for _ in range(100)]
    polys += [random_real_rooted(rng, low=-1.0)[0] for _ in range(100)]
    for p in polys:
        for seq in (sturm_chain(p), poly._fourier_sequence(p.coeffs, derivative(p).coeffs)):
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
    for seq in (sturm_chain(p), poly._fourier_sequence(p.coeffs, derivative(p).coeffs)):
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
    # eps and incumbent must be real numbers; a bool is not, and NaN is refused
    p = from_roots([0.3, 0.7])
    for eps in (True, "1e-6", None, 1e-6 + 0j):
        with pytest.raises(InvalidInput, match="eps"):
            smallest_root(p, eps)
    for incumbent in (float("nan"), False, "0.5", None, 0.5 + 0j):
        with pytest.raises(InvalidInput, match="incumbent"):
            smallest_root(p, 1e-6, incumbent)


def test_smallest_root_refuses_an_overflowing_cauchy_bound():
    # The root 1 / 5e-324 is not a float: the Cauchy radius is inf, Newton
    # would start at -inf and bisect [-inf, inf], whose midpoint is NaN.
    p = Polynomial([-1.0, 5e-324])
    for incumbent in (-math.inf, 0.0, math.inf):
        with pytest.raises(InvalidInput, match="Cauchy"):
            smallest_root(p, 1e-6, incumbent)


def test_smallest_root_accuracy_random():
    rng = np.random.default_rng(31)
    for eps in (1e-4, 1e-6, 1e-8):
        for _ in range(40):
            p, roots = random_real_rooted(rng)
            assert abs(smallest_root(p, eps) - roots[0]) <= eps


def _counting_count_roots_leq(monkeypatch) -> list[int]:
    """Route ``poly.count_roots_leq`` through a counter; returns the counter."""
    calls = [0]
    real = poly.count_roots_leq

    def counting(chain, x):
        calls[0] += 1
        return real(chain, x)

    monkeypatch.setattr(poly, "count_roots_leq", counting)
    return calls


def _counting_sturm_chain(monkeypatch) -> list[int]:
    """Route ``poly.sturm_chain`` through a counter; returns the counter."""
    calls = [0]
    real = poly.sturm_chain

    def counting(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(poly, "sturm_chain", counting)
    return calls


def test_smallest_root_certifies_wide_shape_roots(monkeypatch):
    # The benchmark's wide shape (n, m, l, k) = (6, 48, 3, 12).  A root that
    # becomes the running best is settled by Newton and the two one-sided
    # tests: one compensated sign shows a root at or below the upper end,
    # after two compensated Newton steps, and one Budan-Fourier count shows
    # no root at or below the lower end.  So it takes three compensated
    # evaluations and one count, nothing is bisected, and no Sturm chain is
    # built.  Every other root is certified from above only, below its
    # incumbent, with one compensated sign and no count.
    calls = _counting_count_roots_leq(monkeypatch)
    chains = _counting_sturm_chain(monkeypatch)
    values = [0]
    real_compensated_value = poly._compensated_value

    def counted_compensated_value(c, x):
        values[0] += 1
        return real_compensated_value(c, x)

    monkeypatch.setattr(poly, "_compensated_value", counted_compensated_value)
    won, lost = [], []
    real_smallest_root = selector.smallest_root

    def counted_smallest_root(p, eps, incumbent):
        before = calls[0], values[0]
        root = real_smallest_root(p, eps, incumbent)
        cost = (calls[0] - before[0], values[0] - before[1])
        (won if root > incumbent else lost).append(cost)
        return root

    monkeypatch.setattr(selector, "smallest_root", counted_smallest_root)
    selector.greedy_select(random_problem(np.random.default_rng(3), 6, 48, 3, 12))
    assert len(won) + len(lost) == sum(48 - j for j in range(12))
    assert set(won) == {(1, 3)} and set(lost) == {(0, 1)}
    assert len(won) < len(lost)
    assert chains[0] == 0


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
        fourier = poly._fourier_sequence(p.coeffs, derivative(p).coeffs)
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
    fourier = poly._fourier_sequence(p.coeffs, derivative(p).coeffs)
    assert count_roots_leq(fourier, real_root - 1e-6) == 2
    assert count_roots_leq(sturm_chain(p), real_root - 1e-6) == 0
    chains = _counting_sturm_chain(monkeypatch)
    calls = _counting_count_roots_leq(monkeypatch)
    for eps in (1e-4, 1e-6):
        before, counts_before = chains[0], calls[0]
        assert abs(smallest_root(p, eps) - real_root) <= eps
        # one chain, and one count on each sequence: nothing is bisected
        assert chains[0] == before + 1
        assert calls[0] == counts_before + 2


def test_smallest_root_falls_back_to_sturm_where_a_derivative_overflows(monkeypatch):
    # Leading coefficient 1e300 at degree 12: p' is finite, but 12! * 1e300
    # is not, so there is no Fourier sequence: one Sturm chain takes every
    # count.
    p = Polynomial(1e300 * c for c in from_roots([0.1 * i + 0.05 for i in range(12)]).coeffs)
    assert poly._fourier_sequence(p.coeffs, derivative(p).coeffs) is None
    chains = _counting_sturm_chain(monkeypatch)
    counted = []
    real = poly.count_roots_leq

    def recording(chain, x):
        counted.append(all(math.isfinite(v) for c in chain for v in c))
        return real(chain, x)

    monkeypatch.setattr(poly, "count_roots_leq", recording)
    assert abs(smallest_root(p, 1e-6) - 0.05) <= 1e-6
    assert chains[0] == 1
    assert counted and all(counted)
    # An overflowing p' raises, as the Sturm chain's does, with any
    # incumbent, and before Newton's start, which squares c[3] / c[4] = 1e200
    # in the second polynomial and would raise OverflowError.
    for q in (Polynomial([-1.0, 0.0, 1e308]), Polynomial([0.0, 0.0, 1e308, 1e100, 1e-100])):
        for incumbent in (-math.inf, 0.0, 10.0, math.inf):
            with pytest.raises(InvalidInput, match="must be finite"):
                smallest_root(q, 1e-6, incumbent)


def test_smallest_root_survives_an_overflowing_newton_start():
    # Newton's start squares c[n-1] / c[n] = +-1e200, and a float ** that
    # overflows raises OverflowError; the roots of the first are -1e200 and 0.
    for c in ([0.0, 1e200, 1.0], [0.0, -1e200, 1.0], [1.0, 1e200, 1.0], [0.0, 1e160, 1e-150]):
        for eps in (1e-6, 1e-4):
            for incumbent in (-math.inf, 0.0, math.inf):
                try:
                    root = smallest_root(Polynomial(c), eps, incumbent)
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


def _root_or_error(p: Polynomial, eps: float, incumbent: float = -math.inf):
    """``smallest_root``'s result as ``(hex, None)``, or ``(None, exception type)``."""
    try:
        return smallest_root(p, eps, incumbent).hex(), None
    except NotRealRooted as exc:
        return None, type(exc)


def test_smallest_root_keeps_its_result_or_certifies_it_below_the_incumbent(monkeypatch):
    # With an incumbent the outcome is the one without (the same float, or
    # the same exception), or an early exit: below incumbent - eps, with
    # the exact smallest root of the float polynomial at most eps/4 above
    # it, and no count or Sturm chain taken.  Incumbents lie left of the
    # root, within eps of it and right of it.  Some doubled-root
    # polynomials raise NotRealRooted without an incumbent; they are kept.
    calls = _counting_count_roots_leq(monkeypatch)
    chains = _counting_sturm_chain(monkeypatch)
    early = kept = 0
    for p in _contract_polynomials():
        exact_chain = _exact_sturm_chain(p)
        coeffs = exact_chain[0]
        bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
        at_minus_inf = _exact_variations(exact_chain, -bound)
        for eps in (1e-4, 1e-6):
            before = calls[0]
            plain = _root_or_error(p, eps)
            assert calls[0] > before  # so a call with no count exited early
            center = 0.5 if plain[0] is None else float.fromhex(plain[0])
            offsets = (-0.5, -eps, -0.5 * eps, 0.0, 0.5 * eps, eps, 2.0 * eps, 0.5)
            for incumbent in [center + d for d in offsets] + [-math.inf, math.inf]:
                before, chains_before = calls[0], chains[0]
                got = _root_or_error(p, eps, incumbent)
                if calls[0] == before and chains[0] == chains_before:
                    # a result is within eps/2 of the root, so no root at or
                    # right of the incumbent is certified from above
                    assert plain[0] is None or incumbent > center
                    early += 1
                    root = float.fromhex(got[0])
                    assert root < incumbent - eps
                    top = Fraction(root) + Fraction(eps) / 4
                    assert at_minus_inf - _exact_variations(exact_chain, top) >= 1
                else:
                    kept += 1
                    assert got == plain
    # Most incumbents at least 2 eps right of the root exit early; not at a
    # double root, where p keeps its sign.
    assert early > 200 and kept > 2 * early


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
