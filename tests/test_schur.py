import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import bialternant_eval, power_sum_fractions
from sl2hilb.repmodel import parse_rep, weight_system
from sl2hilb.schur import (bareiss_det, complete_homogeneous, delta_ratio, power_sum,
                           schur_delta, schur_eval)


def test_complete_homogeneous():
    # returns the whole table h_0..h_k
    assert complete_homogeneous((1, 2), 2) == [1, 3, 7]
    assert complete_homogeneous((Fraction(1, 2),), 3)[3] == Fraction(1, 8)


def test_schur_small_closed_forms():
    x, y = Fraction(2), Fraction(3)
    assert schur_eval((1, 0), (x, y)) == x + y
    assert schur_eval((1, 1), (x, y)) == x * y
    assert schur_eval((2, 1), (x, y)) == x * y * (x + y)
    assert schur_eval((), ()) == 1
    # (0, 2, 1, 0) + delta is (1, 1, 1, 0) + delta with two rows swapped
    pts = (x, y, Fraction(5, 2), Fraction(7))
    assert schur_eval((0, 2, 1, 0), pts) == -schur_eval((1, 1, 1, 0), pts) != 0


def test_schur_negative_index():
    assert schur_eval((-1, -1), (1, 3)) == Fraction(1, 3)
    # (-3, 0) + delta = (-2, 0): one row swap and the shift c = 2,
    # s = -(x + y) / (xy)^2
    assert schur_eval((-3, 0), (2, 3)) == Fraction(-5, 36)


def test_schur_vanishing():
    # repeated entries in the shifted exponent vector, at a zero point too
    assert schur_eval((0, 1, 0), (1, 2, 3)) == 0
    assert schur_eval((0, 1, 0), (0, 2, 3)) == 0
    assert schur_eval((-1, 2, 1, 0), (1, 2, 3, 5)) == 0


def test_schur_eval_value_errors():
    with pytest.raises(ValueError, match="same length"):
        schur_eval((1,), (1, 2))
    # the shift c = 1 divides by the product of the points
    with pytest.raises(ValueError, match="nonzero points"):
        schur_eval((-1, -1), (0, 3))


def test_bialternant_example():
    assert bialternant_eval((-1, -1), (Fraction(1), Fraction(3))) == Fraction(1, 3)


def test_bialternant_requires_distinct_points():
    with pytest.raises(ValueError):
        bialternant_eval((1, 0), (2, 2))


def _random_rho(rng, n):
    vec = sorted((rng.randint(-3, 6) for _ in range(n)), reverse=True)
    return tuple(vec)


def _unsorted_rho(rng, n):
    # any order: rho + delta may repeat an entry (s_rho = 0), need a row
    # swap, or need a negative shift
    return tuple(rng.randint(-4, 6) for _ in range(n))


def _random_points(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
    return tuple(pts)


def test_bialternant_matches_jacobi_trudi():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 4)
        rho = _random_rho(rng, n)
        pts = _random_points(rng, n)
        for vec in (rho, _unsorted_rho(rng, n)):
            assert bialternant_eval(vec, pts) == schur_eval(vec, pts), vec


def test_shift_identity():
    # s_(rho + c*1) = (prod x)^c * s_rho
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        rho = _random_rho(rng, n)
        pts = _random_points(rng, n)
        c = rng.randint(-2, 3)
        prod = Fraction(1)
        for p in pts:
            prod *= p
        for vec in (rho, _unsorted_rho(rng, n)):
            shifted = tuple(r + c for r in vec)
            assert schur_eval(shifted, pts) == prod ** c * schur_eval(vec, pts), vec


def test_staircase_product_formula():
    # s_delta over the positive weights equals the product of pairwise sums
    pool = ["V5", "V2+V3", "2V3", "V7", "V2+V4", "V1+V2+V4", "V9", "3V2"]
    for text in pool:
        ws = weight_system(parse_rep(text))
        delta = tuple(range(ws.npos - 1, -1, -1))
        prod = Fraction(1)
        for i in range(ws.npos):
            for j in range(i + 1, ws.npos):
                prod *= ws.a_vec[i] + ws.a_vec[j]
        assert schur_eval(delta, ws.a_vec) == prod
        assert schur_delta(ws.a_vec) == prod


def test_power_sum():
    assert power_sum((2, 3), 2) == 13
    assert power_sum((2, 3, 5), 0) == 3
    assert power_sum((), 4) == 0
    assert power_sum((Fraction(1, 2),), 3) == Fraction(1, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        power_sum((1, 2), -1)


@given(st.lists(st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9),
                                                         st.integers(1, 5))), max_size=6),
       st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_power_sum_matches_the_fraction_sum(points, s):
    # int points give an int, a Fraction point a Fraction
    value = power_sum(points, s)
    assert value == power_sum_fractions(points, s)
    assert type(value) is (Fraction if any(type(p) is Fraction for p in points) else int)


@pytest.mark.parametrize("call, point", [
    (lambda: delta_ratio((3,), (0.1, 0.2)), "0.1"),
    (lambda: delta_ratio((0,), (1, 0.5)), "0.5"),      # before the repeated-exponent zero
    (lambda: schur_eval((1, 0), (2, 0.5)), "0.5"),
    (lambda: schur_eval((0, 1, 0), (1, 2.0, 3)), "2.0"),  # before the vanishing shortcut
    (lambda: power_sum((0.5,), 2), "0.5"),
    (lambda: power_sum((1, Fraction(1, 2), "3"), 0), "'3'"),
])
def test_points_other_than_int_or_fraction_are_rejected(call, point):
    with pytest.raises(TypeError, match="not %s " % point):
        call()


def _fraction_det(m):
    # Gaussian elimination over the rationals, swapping in any nonzero pivot.
    m = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        r = next((r for r in range(k, len(m)) if m[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


# Mostly zeros, so leading pivots vanish and rows must be swapped or the
# matrix is singular.
_sparse_entry = st.one_of(st.just(0), st.integers(-3, 3))


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_sparse_entry, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])              # zero pivot, rows swapped
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])   # zero column: singular
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_fraction_elimination(m):
    assert bareiss_det(m) == _fraction_det(m)


def _staircase(top, n):
    # rho with rho + delta = 2 delta except for the top entry, top + n - 1
    return (top,) + tuple(range(n - 2, -1, -1))


_positive_point = st.builds(Fraction, st.integers(1, 12), st.integers(1, 3))


@st.composite
def _points_and_exponent(draw):
    # 1-7 points drawn from a smaller pool, so points repeat often
    pool = draw(st.lists(_positive_point, min_size=1, max_size=7))
    points = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7)))
    return points, draw(st.integers(-8, 2 * len(points) + 6))


@given(_points_and_exponent())
@example(((Fraction(2),) * 7, 9))        # 7V2: one point seven times, gamma0
@example(((Fraction(2),) * 7, 7))        # 7V2, the gamma2 staircase term
@example(((Fraction(1),) * 7, -3))       # negative odd exponent, one node
@example(((Fraction(3), Fraction(1)), 0))  # repeated-exponent zero
@settings(max_examples=300, deadline=None)
def test_delta_ratio_matches_jacobi_trudi(case):
    points, e = case
    n = len(points)
    rho = _staircase(e - n + 1, n)
    value = delta_ratio((e,), points)[0]
    assert type(value) is Fraction
    assert value * schur_delta(points) == schur_eval(rho, points)
    if len(set(points)) == n:
        delta = _staircase(n - 1, n)
        assert value == bialternant_eval(rho, points) / bialternant_eval(delta, points)


def test_delta_ratio_rejects_nonpositive_points():
    for points in [(1, 0, 2), (3, -1), (Fraction(-1, 2),)]:
        with pytest.raises(ValueError):
            delta_ratio((3,), points)
    with pytest.raises(ValueError):
        delta_ratio((2,), (0, 1, 2))    # checked before the repeated-exponent zero


@given(_points_and_exponent(), st.lists(st.integers(-8, 20), max_size=4))
@example(((Fraction(2),) * 7, 9), [7, 0, 9])   # zero and repeated exponents in one call
@settings(max_examples=200, deadline=None)
def test_delta_ratio_several_exponents_in_one_pass(case, more):
    points, e = case
    es = (e, *more)
    n = len(points)
    assert delta_ratio(es, points) == tuple(
        schur_eval(_staircase(x - n + 1, n), points) / schur_delta(points) for x in es)


@st.composite
def _scaled_points_and_outer_exponent(draw):
    # repeated points from a pool, one of them off the integers so the
    # scale is above 1; e below 0 or above 2n - 2, the two branches of the
    # one division by the scale
    pool = draw(st.lists(_positive_point, min_size=1, max_size=5))
    points = draw(st.lists(st.sampled_from(pool), max_size=5))
    points.insert(draw(st.integers(0, len(points))),
                  draw(st.builds(Fraction, st.integers(1, 12), st.integers(2, 5))
                       .filter(lambda p: p.denominator > 1)))
    n = len(points)
    return tuple(points), draw(st.one_of(st.integers(-8, -1), st.integers(2 * n - 1, 2 * n + 8)))


@given(_scaled_points_and_outer_exponent())
@example(((Fraction(1, 2),), -3))
@example(((Fraction(3, 2), Fraction(3, 2), Fraction(1, 3)), 7))
@settings(max_examples=300, deadline=None)
def test_delta_ratio_on_scaled_points_matches_jacobi_trudi(case):
    points, e = case
    n = len(points)
    value = delta_ratio((e,), points)[0]
    assert type(value) is Fraction
    assert value * schur_delta(points) == schur_eval(_staircase(e - n + 1, n), points)
