"""Polynomial arithmetic, Sturm chains, and root isolation."""
from __future__ import annotations

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


def test_derivative():
    assert derivative(Polynomial([-1.0, 0.0, 1.0])).coeffs == (0.0, 2.0)
    assert derivative(Polynomial([0.0, 0.0, 0.0, 1.0]), times=3).coeffs == (6.0,)
    assert derivative(Polynomial([5.0])).is_zero
    with pytest.raises(InvalidInput):
        derivative(Polynomial([1.0]), times=-1)


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
    chain = sturm_chain(Polynomial([-1.0, 0.0, 1.0])).chain
    assert [len(q) - 1 for q in chain] == [2, 1, 0]
    assert chain[0] == (-1.0, 0.0, 1.0)
    assert chain[1] == (0.0, 2.0)
    assert chain[2][-1] > 0.0  # +1 up to positive scaling


def test_sturm_chain_linear():
    chain = sturm_chain(Polynomial([-3.0, 1.0])).chain
    assert [len(q) - 1 for q in chain] == [1, 0]


def test_sturm_chain_detects_gcd():
    # (x-1)^2: remainder vanishes, chain ends at the gcd x - 1
    chain = sturm_chain(from_roots([1.0, 1.0])).chain
    assert len(chain) == 2
    assert len(chain[-1]) - 1 == 1


def test_sturm_chain_rejects_zero():
    with pytest.raises(InvalidInput):
        sturm_chain(Polynomial([]))


def test_sturm_chain_strips_an_exactly_cancelled_lead():
    # x^4 - 1 divided by 4x^3 leaves -1: the x^3, x^2 and x terms cancel exactly
    chain = sturm_chain(Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0]))
    assert [len(q) - 1 for q in chain.chain] == [4, 3, 0]
    assert chain.variations_at_minus_inf == 2
    assert count_roots_leq(chain, 0.0) == 1
    assert count_roots_leq(chain, 2.0) == 2


def test_sturm_chain_rejects_a_remainder_that_overflows():
    # p' = (1e-300, 2e200, 3e-300) is finite; the remainder of p by p' is not
    p = Polynomial([1e-300, 1e-300, 1e200, 1e-300])
    with pytest.raises(InvalidInput):
        sturm_chain(p)
    with pytest.raises(InvalidInput):
        smallest_root(p, 1e-6)


def test_sturm_chain_variations_at_minus_inf_match_the_signs_far_left():
    # Left of every entry's Cauchy bound, each entry has its sign at -inf.
    rng = np.random.default_rng(37)
    polys = [Polynomial(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 14)))) for _ in range(100)]
    polys += [random_real_rooted(rng, low=-1.0)[0] for _ in range(100)]
    for p in polys:
        chain = sturm_chain(p)
        x = -2.0 * max(1.0 + max(map(abs, q)) / abs(q[-1]) for q in chain.chain)
        signs = [np.polyval(q[::-1], x) > 0.0 for q in chain.chain]
        assert chain.variations_at_minus_inf == sum(a != b for a, b in zip(signs, signs[1:]))


def test_count_roots_leq():
    chain = sturm_chain(Polynomial([-1.0, 0.0, 1.0]))
    assert count_roots_leq(chain, 0.0) == 1
    assert count_roots_leq(chain, 2.0) == 2
    no_real = sturm_chain(Polynomial([1.0, 0.0, 1.0]))
    for x in (-5.0, 0.0, 5.0):
        assert count_roots_leq(no_real, x) == 0


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
    # x^2 + 1: no sign change certifies an upper end, so the Sturm count
    # at the Cauchy end runs and finds no root, also when eps is wider
    # than the bracket.
    for eps in (1e-6, float("inf")):
        with pytest.raises(NotRealRooted):
            smallest_root(Polynomial([1.0, 0.0, 1.0]), eps)
    with pytest.raises(NotRealRooted):
        smallest_root(Polynomial([3.0]), 1e-6)


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


def test_smallest_root_certifies_wide_shape_roots(monkeypatch):
    # The benchmark's wide shape (n, m, l, k) = (6, 48, 3, 12).  Newton and
    # the two certificates settle every root with one Sturm count, for
    # the lower end: the sign change certifies the upper end, so the
    # Cauchy end needs no count, and nothing is bisected.
    calls = _counting_count_roots_leq(monkeypatch)
    per_root = []
    real_smallest_root = selector.smallest_root

    def counted_smallest_root(p, eps):
        before = calls[0]
        root = real_smallest_root(p, eps)
        per_root.append(calls[0] - before)
        return root

    monkeypatch.setattr(selector, "smallest_root", counted_smallest_root)
    selector.greedy_select(random_problem(np.random.default_rng(3), 6, 48, 3, 12))
    assert len(per_root) == sum(48 - j for j in range(12))
    assert set(per_root) == {1}


def _exact_smallest_root(p: Polynomial, x: float, radius: float, tol: Fraction) -> Fraction:
    """Smallest root of ``p``, its float coefficients read as exact rationals.

    An exact Sturm chain checks that ``(x - radius, x + radius]`` holds the
    smallest root and no other; bisection on the exact sign of ``p`` then
    narrows that interval to ``tol``.
    """

    def value(coeffs, t):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

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

    def variations(t):
        signs = [v > 0 for v in (value(q, t) for q in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    lo, hi = Fraction(x) - Fraction(radius), Fraction(x) + Fraction(radius)
    assert variations(-bound) - variations(lo) == 0  # no root at or below lo
    assert variations(lo) - variations(hi) == 1  # exactly one in (lo, hi]
    lo_positive = value(coeffs, lo) > 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if (value(coeffs, mid) > 0) == lo_positive:
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


def test_smallest_root_double_root():
    # (x-1)^2 (x-2): p does not change sign at 1, so no sign change
    # certifies the upper end and bisection narrows it.
    p = from_roots([1.0, 1.0, 2.0])
    for eps in (1e-4, 1e-6):
        assert abs(smallest_root(p, eps) - 1.0) <= eps
    # Within ~1e-8 of the double root p is below its rounding error and
    # the float Sturm counts are noise, so eps = 1e-9 is out of reach;
    # the result is still no further off than bisection alone gets
    # (1 - 7.6e-9).
    assert abs(smallest_root(p, 1e-9) - 1.0) <= 1e-8


def _times(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [0.0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


@pytest.mark.parametrize(
    "pair, real_roots",
    [
        # complex pair -2 +/- i, left of the real roots
        ((5.0, 4.0, 1.0), (0.5, 0.7)),
        # complex pair -1 +/- 0.5i: Newton stalls near the pair, left of every real root
        ((1.25, 2.0, 1.0), (0.5, 0.7)),
        # complex pair 5 +/- 5i: the Laguerre-Samuelson start lies right of 0.1
        ((50.0, -10.0, 1.0), (0.1, 0.2)),
    ],
)
def test_smallest_root_complex_pair_falls_back(pair, real_roots):
    # Not real-rooted: Newton's start and its barrier stop are no longer
    # bounds, so whatever the certificates reject is bisected.
    p = _times(Polynomial(pair), from_roots(real_roots))
    for eps in (1e-4, 1e-6):
        assert abs(smallest_root(p, eps) - real_roots[0]) <= eps


def test_smallest_root_sign_test_survives_tiny_values():
    # The stall near -1 +/- 0.5i, with every coefficient scaled by 1e-170:
    # p is about 1e-170 on both sides of Newton's guess, so the product of
    # the two values underflows to 0.0 and would certify a root at -0.618.
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
