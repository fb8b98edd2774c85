import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import make_series_digests
import sl2hilb.exactalg as exactalg
import sl2hilb.series as series_mod
from references import (coeffs_for_index_div_factors, coeffs_for_index_quadratic,
                        dn_sum_per_term, functional_equation_loop, poly_add, rf_add_poly,
                        rf_derivative_poly, to_rf, ua_transform_single_stage, wide_per_piece)
from sl2hilb.exactalg import (FactoredDenominator, Polynomial,
                              RationalFunction, laurent_at_one, rf_equal, taylor_coeffs)
from sl2hilb.oracle import truncated_series
from sl2hilb.repmodel import (Representation, mirror_rule, parse_rep, pole_and_a_invariant,
                              weight_system, wide_denominator)
from sl2hilb.series import (CHECK_DEPTH, SeriesConsistencyError, ZRationalFunction,
                            _coeffs_for_index, _dn_sum, _theta, check_series, dn_apply,
                            hilbert_series, ua_transform)


def rf(num, den):
    if isinstance(num, dict):
        coeffs = [0] * (max(num) + 1)
        for e, c in num.items():
            coeffs[e] = c
        num = coeffs
    return RationalFunction(Polynomial(num), FactoredDenominator(den))


def test_ua_even_subsequence():
    # picking every second coefficient of 1/(1-z) gives 1/(1-t)
    f = ZRationalFunction({0: 1}, {1: 1})
    out = ua_transform(f, 2)
    assert rf_equal(out, rf([1], {1: 1}))


def test_ua_denominator_gcd_rule():
    # the (1-z^4) factor under U_6 is completed by its conjugates to
    # (1-z^12), a series in z^6, so it maps to the tight (1-t^2) and not to
    # the (1-t^2)^gcd(6,4): U_6(1/(1-z^4)) = 1/(1-t^2)
    f = ZRationalFunction({0: 1}, {4: 1})
    out = ua_transform(f, 6)
    assert out.den.factors == {2: 1}
    assert rf_equal(out, rf([1], {2: 1}))


def test_ua_conjugate_division_is_checked(monkeypatch):
    # a divide pass one factor short leaves a remainder in its top b e
    # terms, which U_a reports instead of returning a wrong series; U_10's
    # p = 5 stage divides (its p = 2 stage is shifted adds and divides not)
    div_exact = exactalg._div_factors

    def div_one_pass_short(c, factors, count):
        factors = dict(factors)
        factors[max(factors)] -= 1
        return div_exact(c, factors, count)

    monkeypatch.setattr(exactalg, "_div_factors", div_one_pass_short)
    with pytest.raises(RuntimeError, match="not divisible"):
        ua_transform(ZRationalFunction({0: 1, 3: 2}, {4: 2, 3: 1}), 10)


def test_dn_first_order():
    f = rf([1], {1: 1})
    assert rf_equal(dn_apply(f, 1), rf([1], {1: 2}))


def test_dn_zero_is_identity():
    f = rf([1, 2], {3: 1})
    assert rf_equal(dn_apply(f, 0), f)
    with pytest.raises(ValueError, match="nonnegative"):
        dn_apply(f, -1)


@given(st.lists(st.integers(-5, 5), max_size=6),
       st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3),
       st.integers(0, 4))
@example([1], {1: 1}, 4)
@example([], {2: 1}, 2)
@example([3, 0, -1], {}, 3)
@settings(max_examples=80, deadline=None)
def test_dn_matches_derivatives(num, den, n):
    # D_n / n!: n derivatives of t^n f, divided by n!, every denominator
    # exponent raised by n; derivative is the independent reference
    f = rf(num, den)
    ref = RationalFunction(f.num.shifted(n), f.den)
    for _ in range(n):
        ref = ref.derivative()
    ref = RationalFunction(Polynomial([Fraction(v, factorial(n)) for v in ref.num.c]), ref.den)
    out = dn_apply(f, n)
    assert rf_equal(out, ref)
    assert out.den.factors == {m: e + n for m, e in den.items()}
    assert all(type(v) is int for v in out.num.c)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3),
       st.integers(0, 12))
@example([1], {1: 1}, 0)
@example([0, 2, -1], {2: 2, 3: 1}, 6)
@example([3, 0, -1], {}, 4)
@settings(max_examples=80, deadline=None)
def test_theta_matches_the_derivative(num, den, k):
    # (theta + k) f = t f' + k f over den times one more of each factor;
    # rf_derivative_poly is the independent reference for f'
    f = rf(num, den)
    ref = rf_derivative_poly(f)
    ref = rf_add_poly(RationalFunction(ref.num.shifted(1), ref.den), RationalFunction(f.num * k, f.den))
    out = _theta(num, den, k)
    assert len(out) == len(num) + sum(den)
    assert rf_equal(rf(out, {b: e + 1 for b, e in den.items()}), ref)


def _terms(spec, alpha):
    # the terms g_j of weight -alpha, times the factor 1 - z^2, as _compute builds them
    mult_of = Counter(weight_system(parse_rep(spec)).weights)
    ws, ms = list(mult_of), list(mult_of.values())
    return [(exactalg._times_factors(zc, {2: 1}, len(zc) + 1), zden)
            for zc, zden in _coeffs_for_index(ws, ms, ws.index(-alpha))]


@pytest.mark.parametrize("spec", ["7V2", "5V3", "4V4", "3V8", "4V1+2V5", "2V11", "3V3+V6", "8V8"])
def test_horner_piece_matches_the_per_term_sum(spec):
    # one U_alpha of the theta-Horner sum S against one U_alpha and one
    # D_n/n! per partial-fraction term, for every alpha > 0
    alphas = [a for a in set(weight_system(parse_rep(spec)).weights) if a > 0]
    assert any(len(_terms(spec, a)) > 1 for a in alphas)
    for alpha in alphas:
        terms = _terms(spec, alpha)
        out = _dn_sum(terms, alpha)
        assert rf_equal(out, dn_sum_per_term(terms, alpha)), (spec, alpha)
        assert all(type(v) is int for v in out.num.c), (spec, alpha)


def test_single_forms_take_no_theta_pass(monkeypatch):
    # every weight of V16 has multiplicity 1: one U_alpha per weight alpha >
    # 0, no theta pass and no division; alpha = 0 adds no piece
    def theta_unreached(c, den, k):
        raise AssertionError("a theta pass at multiplicity 1")

    ua_calls = []
    ua_exact = series_mod.ua_transform
    monkeypatch.setattr(series_mod, "_theta", theta_unreached)
    monkeypatch.setattr(series_mod, "ua_transform", lambda f, a: ua_calls.append(a) or ua_exact(f, a))
    hilbert_series(parse_rep("V16"))
    assert sorted(ua_calls) == list(range(2, 17, 2))


def test_weight_zero_terms_have_no_constant_term():
    # _compute builds no piece for alpha = 0: weight 0 comes from an even V_d,
    # d >= 2, with weight -2 too, so U_0 of each term times 1 - z^2 is 0.  Every
    # denominator factor and 1 - z^2 start with 1, so that U_0 is zc[0].
    checked = 0
    for dim in range(2, 15):
        for degrees in make_series_digests.degree_multisets(dim):
            mult_of = Counter(weight_system(Representation(degrees)).weights)
            if 0 not in mult_of:
                continue
            ws, ms = list(mult_of), list(mult_of.values())
            for zc, zden in _coeffs_for_index(ws, ms, ws.index(0)):
                assert zc[0] == 0
                checked += 1
    assert checked == 149       # multiplicities 1 to 4 over 90 reps


def test_partial_fraction_single_weight():
    coeffs = _coeffs_for_index((3,), (1,), 0)
    assert len(coeffs) == 1
    assert rf_equal(rf(*coeffs[0]), rf([1], {}))


def test_partial_fraction_two_weights():
    p, q = 2, 5
    (g_p,), (g_q,) = (_coeffs_for_index((p, q), (1, 1), i) for i in (0, 1))
    # coefficient attached to weight p is 1/(1 - z^(q-p)), and symmetrically
    assert rf_equal(rf(*g_p), rf([1], {q - p: 1}))
    # 1/(1 - z^(p-q)) normalizes to -z^(q-p)/(1-z^(q-p))
    assert rf_equal(rf(*g_q), rf({q - p: -1}, {q - p: 1}))


def _zr_at(g, z):
    """The value of a z-side pair (coefficients, {b: e}) at the rational point z."""
    num, den = g
    value = Fraction(sum(c * z ** e for e, c in enumerate(num)))
    for b, e in den.items():
        value /= (1 - z ** b) ** e
    return value


@given(st.dictionaries(st.integers(-6, 6), st.integers(1, 3), min_size=1, max_size=5))
@example({2: 2, 0: 3, -2: 2, 3: 1})
@settings(max_examples=40, deadline=None)
def test_partial_fraction_reassembles_with_multiplicities(mult_of):
    # G_{i,j} over (1 - t z^{w_i})^(m_i - j), summed over i and j, gives
    # back the product; no t z^w below is 1 and no z^b is 1
    weights, mults = list(mult_of), list(mult_of.values())
    coeffs = [_coeffs_for_index(weights, mults, i) for i in range(len(weights))]
    assert [len(c) for c in coeffs] == mults
    points = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(-5, 2), Fraction(1, 11)),
              (Fraction(3, 4), Fraction(-4, 5)), (Fraction(7, 5), Fraction(1, 9))]
    for z, t in points:
        want = Fraction(1)
        for w, m in zip(weights, mults):
            want /= (1 - t * z ** w) ** m
        got = sum(_zr_at(g, z) / (1 - t * z ** w) ** (m - j)
                  for w, m, gs in zip(weights, mults, coeffs) for j, g in enumerate(gs))
        assert got == want, (z, t)


@given(st.dictionaries(st.integers(-6, 6), st.integers(1, 3), min_size=1, max_size=5))
@example({2: 2, 0: 3, -2: 2, 3: 1})
@example({4: 3})
@settings(max_examples=40, deadline=None)
def test_coefficient_denominators_are_fixed_by_the_weights(mult_of):
    # G_{i,j} comes over B E^j exactly: B = prod (1 - z^|w - w_i|)^m over
    # the other weights, E = prod (1 - z^c) over their distinct distances c
    weights, mults = list(mult_of), list(mult_of.values())
    for i, wi in enumerate(weights):
        b = {}
        for w, m in mult_of.items():
            if w != wi:
                b[abs(w - wi)] = b.get(abs(w - wi), 0) + m
        for j, (num, den) in enumerate(_coeffs_for_index(weights, mults, i)):
            assert den == {c: e + j for c, e in b.items()}, (weights, mults, i, j)
            assert all(type(v) is int for v in num)


@given(st.dictionaries(st.integers(-8, 8), st.integers(1, 7), min_size=1, max_size=5))
@example({-2: 7, 0: 7, 2: 7})                     # the weights of 7V2
@example({4: 3})
@settings(max_examples=60, deadline=None)
def test_partial_fractions_match_the_per_distance_reference(mult_of):
    # each q summed over the distances' series with one pass by E^e is the
    # per-distance product over all the other factors, so every pair agrees
    weights, mults = list(mult_of), list(mult_of.values())
    for i in range(len(weights)):
        assert (_coeffs_for_index(weights, mults, i)
                == coeffs_for_index_quadratic(weights, mults, i)), (weights, mults, i)


@given(st.dictionaries(st.integers(-9, 9), st.integers(1, 8), min_size=1, max_size=5))
@example({-2: 8, 0: 8, 2: 8})                     # the weights of 8V2
@example({-3: 8, 5: 1})                           # orders up to 7 at one distance
@example({4: 8})
@settings(max_examples=60, deadline=None)
def test_binomial_rows_match_the_per_distance_division(mult_of):
    # one binomial row per order, added at each distance's stride, is each
    # distance's series divided out by running sums, and the map-pass
    # division by j is the % and // per coefficient: every pair agrees.
    # The quadratic reference above is too slow at multiplicity 8.
    weights, mults = list(mult_of), list(mult_of.values())
    for i in range(len(weights)):
        assert (_coeffs_for_index(weights, mults, i)
                == coeffs_for_index_div_factors(weights, mults, i)), (weights, mults, i)


def test_hilbert_series_known_rows():
    cases = {
        "V5": rf({0: 1, 18: 1}, {4: 1, 8: 1, 12: 1}),
        "2V3": rf({0: 1, 4: 1, 6: 1, 10: 1}, {2: 1, 4: 4}),
        "V1+V4": rf({0: 1, 9: 1}, {2: 1, 3: 1, 5: 1, 6: 1}),
    }
    for text, want in cases.items():
        assert rf_equal(hilbert_series(parse_rep(text)), want)


def test_hilbert_series_trivial():
    assert rf_equal(hilbert_series(parse_rep("V0")), rf([1], {1: 1}))
    assert rf_equal(hilbert_series(parse_rep("2V0")), rf([1], {1: 2}))
    assert rf_equal(hilbert_series(parse_rep("V0+V2")), rf([1], {1: 1, 2: 1}))


def test_hilbert_series_numerator_degree_bounded():
    # numerator degree never exceeds denominator degree
    for text in ["V5", "V6", "2V3", "V2+V4"]:
        f = hilbert_series(parse_rep(text))
        assert f.num.degree <= f.den.degree
        assert f.num.c[0] == 1


def test_consistency_check_trips_on_bad_oracle(monkeypatch):
    rep = parse_rep("V1+V5")
    monkeypatch.setattr(series_mod.oracle, "truncated_series",
                        lambda r, n: [0] * (n + 1))
    with pytest.raises(SeriesConsistencyError):
        hilbert_series(rep)


def test_perturbed_piece_fails_the_functional_equation(monkeypatch):
    # adding 1 to the first piece of V4+V5, from a weight of multiplicity 1,
    # changes the assembled numerator; the functional equation sees it
    # before the oracle is asked
    dn_sum_exact = series_mod._dn_sum
    perturbed = []

    def dn_sum_off_by_one(terms, alpha):
        out = dn_sum_exact(terms, alpha)
        if not perturbed:
            perturbed.append((alpha, len(terms)))
            out = RationalFunction(poly_add(out.num, Polynomial([1])), out.den)
        return out

    def oracle_unreached(rep, n):
        raise AssertionError("an inexact numerator reached the oracle check")

    monkeypatch.setattr(series_mod, "_dn_sum", dn_sum_off_by_one)
    monkeypatch.setattr(series_mod.oracle, "truncated_series", oracle_unreached)
    with pytest.raises(SeriesConsistencyError, match="functional equation gives"):
        hilbert_series(parse_rep("V4+V5"))
    assert perturbed == [(2, 1)]


def test_perturbed_horner_piece_fails_the_functional_equation(monkeypatch):
    # adding 1 to the Horner piece of 3V4's first alpha > 0 (multiplicity
    # 3) changes the assembled numerator; the functional equation sees it
    # before the oracle is asked
    dn_sum_exact = series_mod._dn_sum
    perturbed = []

    def dn_sum_off_by_one(terms, alpha):
        out = dn_sum_exact(terms, alpha)
        if not perturbed:
            perturbed.append((alpha, len(terms)))
            out = RationalFunction(poly_add(out.num, Polynomial([1])), out.den)
        return out

    def oracle_unreached(rep, n):
        raise AssertionError("an inexact numerator reached the oracle check")

    monkeypatch.setattr(series_mod, "_dn_sum", dn_sum_off_by_one)
    monkeypatch.setattr(series_mod.oracle, "truncated_series", oracle_unreached)
    with pytest.raises(SeriesConsistencyError, match="functional equation gives"):
        hilbert_series(parse_rep("3V4"))
    assert perturbed[0][0] > 0 and perturbed[0][1] == 3


def test_horner_sum_division_must_be_exact(monkeypatch):
    # 1 more in the constant term of the first theta step of 3V4 (alpha =
    # 2, multiplicity 3) leaves U_alpha(S) off the multiple of (m - 1)!
    # alpha^(m - 1) = 2! 2^2 that the exact division needs; it is
    # reported, not truncated
    theta_exact = series_mod._theta
    calls = []

    def theta_off_by_one(c, den, k):
        out = theta_exact(c, den, k)
        if not calls:
            out[0] += 1
        calls.append(k)
        return out

    monkeypatch.setattr(series_mod, "_theta", theta_off_by_one)
    with pytest.raises(RuntimeError, match="D_n sum not divisible by 8"):
        hilbert_series(parse_rep("3V4"))
    assert calls == [4, 2]      # theta + 2 alpha, then theta + alpha


def test_partial_fraction_division_must_be_exact(monkeypatch):
    # weight 0 of 3V4 has multiplicity 3, so its j = 2 step sums the two
    # products p_0 q_1 + p_1 q_0 and divides by 2; one product off by one
    # leaves an odd coefficient, which is reported instead of truncated
    mul_trunc_exact = series_mod._mul_trunc
    calls = []

    def mul_trunc_second_off_by_one(a, b, cutoff):
        out = mul_trunc_exact(a, b, cutoff)
        calls.append(cutoff)
        if len(calls) == 2:             # the first product of j = 2
            out[-1] += 1
        return out

    mult_of = Counter(weight_system(parse_rep("3V4")).weights)
    assert mult_of[0] == 3
    ws, ms = list(mult_of), list(mult_of.values())
    assert len(_coeffs_for_index(ws, ms, ws.index(0))) == 3
    monkeypatch.setattr(series_mod, "_mul_trunc", mul_trunc_second_off_by_one)
    with pytest.raises(RuntimeError, match="not divisible by 2"):
        _coeffs_for_index(ws, ms, ws.index(0))
    assert calls[0] < calls[1]          # one j = 1 product, then j = 2


def test_functional_equation_sees_past_the_oracle_depth(monkeypatch):
    # V10's numerator has degree 42 and the oracle compares degrees
    # 0..CHECK_DEPTH = 30, so a wrong t^35 coefficient escapes the oracle
    # and only the functional equation can catch it
    rep = parse_rep("V10")
    exact = hilbert_series(rep)
    c = list(exact.num.c)
    assert len(c) == 43
    c[35] += 1
    perturbed = RationalFunction(c, exact.den.factors)
    assert taylor_coeffs(perturbed, CHECK_DEPTH + 1) == truncated_series(rep, CHECK_DEPTH)
    reduce_exact = RationalFunction.reduce

    def reduce_perturbed(self, over=None):
        out = reduce_exact(self, over)
        assert rf_equal(out, exact)
        return perturbed

    monkeypatch.setattr(RationalFunction, "reduce", reduce_perturbed)
    with pytest.raises(SeriesConsistencyError, match="functional equation gives"):
        hilbert_series(rep)


@pytest.mark.parametrize("spec", ["V1", "V2", "2V1", "3V0", "V0+V2"])
def test_functional_equation_covers_the_small_series(spec):
    # series 1, 1/(1 - t^2) and 1/(1 - t)^k times them: the equation holds
    # as computed, and a t coefficient added to the numerator breaks it
    rep = parse_rep(spec)
    f = hilbert_series(rep)
    check_series(rep, f, 0)
    assert f.num.c == [1]
    with pytest.raises(SeriesConsistencyError, match="functional equation gives"):
        check_series(rep, RationalFunction([1, 1], f.den.factors), 0)


def test_functional_equation_rejects_a_zero_numerator():
    # zero satisfies every mirror relation; H(0) = 1 rules it out
    for spec in ("V5", "V2", "2V0"):
        rep = parse_rep(spec)
        with pytest.raises(SeriesConsistencyError, match="H\\(0\\) = 1"):
            check_series(rep, RationalFunction([], hilbert_series(rep).den.factors), 0)


def _check_series_failure(rep, f):
    """(degree, got, want) of check_series's functional-equation failure, or None."""
    try:
        check_series(rep, f, 0)
    except SeriesConsistencyError as exc:
        if "functional equation gives" in str(exc):
            return exc.degree, exc.got, exc.want
    return None


def _edited(spec, edit):
    rep = parse_rep(spec)
    f = hilbert_series(rep)
    return rep, RationalFunction(edit(list(f.num.c)), f.den.factors)


def _bump(j, by):
    def edit(c):
        c[j] += by
        return c
    return edit


@pytest.mark.parametrize("spec, edit, top, sign, failure", [
    # a mid-numerator edit at degree 20, whose mirror is degree 22
    ("V10", _bump(20, 3), 42, 1, (20, 81, 78)),
    # sign -1: V2+2V3 is antisymmetric about degree 21/2
    ("V2+2V3", _bump(9, -2), 21, -1, (9, 1, 3)),
    # top >= len(c): the last three coefficients dropped, so the mirror of
    # degree 0 is read from the zero padding past len(c).  A degree past
    # len(c) never fails first: its mirror, below len(c), fails before it
    ("V10", lambda c: c[:-3], 42, 1, (0, 1, 0)),
    # top >= len(c), leading zeros: 1 at degree 3 mirrors degree 9, past len(c)
    ("V5", lambda c: [0, 0, 0, 1], 12, 1, (3, 1, 0)),
])
def test_functional_equation_failure_matches_the_loop(spec, edit, top, sign, failure):
    rep, f = _edited(spec, edit)
    assert mirror_rule(rep, f.den.factors) == (top, sign)
    assert _check_series_failure(rep, f) == functional_equation_loop(rep, f) == failure


@given(st.lists(st.integers(-3, 3), max_size=12), st.integers(0, 14),
       st.sampled_from(["V5", "V2+2V3", "2V0+V3+V4", "V1", "V2"]))
@settings(max_examples=300, deadline=None)
@example([1], 0, "V5")          # top = -6 < 0: every mirror is zero
@example([1, 0, 1], 8, "V5")    # top = 2, sign -1
# top = 10^18 - 6: lists of len(c), not of top + 1, so a cache entry with such
# a denominator is a quick miss, not a MemoryError
@example([1], 10 ** 18, "V5")
@example([0, 2, 5], 10 ** 18 + 1, "V5")
def test_functional_equation_failure_matches_the_loop_on_any_numerator(c, e, spec):
    # Q = (1 - t)^e sets top = e + a and sign = (-1)^(d + e), below zero too
    rep = parse_rep(spec)
    f = RationalFunction(c, {1: e})
    assert _check_series_failure(rep, f) == functional_equation_loop(rep, f)


def test_pole_and_a_invariant_match_the_series():
    # every degree multiset of dim <= 12 with 0, 1 or 2 trivial summands,
    # and kV0 for k <= 4
    reps = [Representation(degs, k) for dim in range(2, 13)
            for degs in make_series_digests.degree_multisets(dim) for k in range(3)]
    reps += [Representation((), k) for k in range(1, 5)]
    assert len(reps) == 232
    for rep in reps:
        f = hilbert_series(rep)
        assert pole_and_a_invariant(rep) == (laurent_at_one(f, 1).pole_order, f.degree()), rep


def test_zrational_arithmetic():
    a = ZRationalFunction({0: 1}, {2: 1})
    b = ZRationalFunction({1: 1}, {3: 1})
    assert rf_equal(to_rf(a), rf([1], {2: 1}))
    assert not rf_equal(to_rf(a), to_rf(b))
    # the numerator of a power series has no negative exponent, and U_a takes a >= 1
    with pytest.raises(ValueError):
        ua_transform(ZRationalFunction({-1: 1}, {}), 2)
    with pytest.raises(ValueError):
        ua_transform(ZRationalFunction({0: 3, 2: 5}, {}), 0)


def test_each_call_returns_a_fresh_series():
    rep = parse_rep("V5")
    first = hilbert_series(rep)
    num, den = list(first.num.c), dict(first.den.factors)
    first.num.c.append(7)
    first.den.factors[99] = 1
    second = hilbert_series(rep)                    # a new object, untouched by the edits
    assert second.num.c == num and second.den.factors == den
    second.num.c.append(7)
    assert hilbert_series(rep).num.c == num


def _expand(f, top):
    """Coefficients of f up to z^top, multiplying out geometric series."""
    coeffs = dict(f.num)
    for b, e in f.den.items():
        for _ in range(e):
            nxt = {}
            for n, c in coeffs.items():
                for k in range(n, top + 1, b):
                    nxt[k] = nxt.get(k, 0) + c
            coeffs = nxt
    return coeffs


def _with_period(f, s):
    """f(z^s)."""
    return ZRationalFunction({s * e: c for e, c in f.num.items()},
                             {s * b: e for b, e in f.den.items()})


z_functions = st.builds(
    _with_period,
    st.builds(ZRationalFunction,
              st.dictionaries(st.integers(0, 12),
                              st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
                              min_size=1, max_size=4),
              st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3)),
    st.sampled_from([1, 2, 3]))


@given(z_functions)
@example(ZRationalFunction({0: 1, 4: -2, 10: 1}, {2: 2, 4: 1, 6: 1}))
@example(ZRationalFunction({3: 1, 9: 2}, {3: 1, 6: 2, 12: 1}))
@example(ZRationalFunction({0: 1, 3: 0, 4: 1}, {2: 1}))
@settings(max_examples=80, deadline=None)
def test_z_side_matches_brute_force(f):
    # prime by prime, and through the period s of f, U_a gives the
    # brute-force a-section and the single-stage reference's numerator
    top = 90
    ef = _expand(f, top)
    for a in (1, 2, 3, 4, 6, 8, 9, 12, 30):
        out = ua_transform(f, a)
        got = taylor_coeffs(out, top // a + 1)
        assert got == [ef.get(a * i, 0) for i in range(top // a + 1)]
        # the tight denominator: (1 - z^b)^e goes to (1 - t^(b/gcd(a,b)))^e
        tight = {}
        for b, e in f.den.items() if any(f.num.values()) else ():
            tight[b // gcd(a, b)] = tight.get(b // gcd(a, b), 0) + e
        assert out.den.factors == tight
        assert out.num.c == ua_transform_single_stage(f, a).num.c


def test_pipeline_stays_integer(monkeypatch):
    # the z-series entering U_alpha and every sum of pieces, each piece
    # exact as it is built, have int coefficients
    seen = set()
    ua_transform_exact, add_exact = series_mod.ua_transform, RationalFunction.__add__

    def ua_transform_recording(f, a):
        seen.update(map(type, f.num.values()))
        return ua_transform_exact(f, a)

    def add_recording(f, g):
        out = add_exact(f, g)
        seen.update(map(type, out.num.c))
        return out

    monkeypatch.setattr(series_mod, "ua_transform", ua_transform_recording)
    monkeypatch.setattr(RationalFunction, "__add__", add_recording)
    for spec in ("V16", "3V6", "7V2", "4V1+2V5", "2V1+2V6"):
        seen.clear()
        hilbert_series(parse_rep(spec))
        assert seen == {int}, spec


@st.composite
def small_reps(draw):
    # degree lists of dimension sum (d + 1) <= 14, trivial summands included
    degrees, room = [], 14
    while room >= 2 and (not degrees or draw(st.booleans())):
        d = draw(st.integers(0, room - 1))
        degrees.append(d)
        room -= d + 1
    assume(any(degrees))
    return parse_rep(",".join(map(str, degrees)))


@given(small_reps())
@example(parse_rep("V13"))
@example(parse_rep("V0+V2+V3+V5"))
@settings(max_examples=25, deadline=None)
def test_series_matches_the_oracle_through_the_numerator(rep):
    # every Taylor term through the numerator degree, far past CHECK_DEPTH
    f = hilbert_series(rep)
    depth = max(f.num.degree, CHECK_DEPTH)
    assert taylor_coeffs(f, depth + 1) == truncated_series(rep, depth), rep.key


def test_series_numerator_is_int():
    # the JSON writer serialises ints only; a Fraction numerator would not
    for spec in ("V5", "3V4", "4V1+2V5", "V0+V3+V4"):
        assert all(type(v) is int for v in hilbert_series(parse_rep(spec)).num.c), spec


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_series_match_the_benchmark_reference(monkeypatch):
    # the exact numerator and [m, e] denominator of every series operation
    # in the benchmark's reference file, which perfbench/make_reference.py
    # records only after the oracle and functional-equation checks pass
    ops = json.loads(REFERENCE.read_text())["ops"]
    cases = [(json.loads(key)[1], want) for key, want in ops.items()
             if json.loads(key)[0] == "series"]
    assert len(cases) == 28
    for spec, want in cases:
        f = hilbert_series(parse_rep(spec))
        assert f.num.c == want["numerator"], spec
        assert [list(m_e) for m_e in sorted(f.den.factors.items())] == want["denominator"], spec


def test_series_match_the_recorded_digests(monkeypatch):
    # every line of series_digests.txt, which make_series_digests.py writes
    # only after the oracle and functional-equation checks: every degree
    # multiset of dim <= 20, trivial summands, and V30, 8V8, 6V10 and 4V16,
    # past the benchmark's dim <= 24 (q at e = 7, 5 and 3, many pieces, and
    # U_2 / U_3 stages on long numerators)
    lines = Path(make_series_digests.DIGESTS).read_text().splitlines()
    reps = list(make_series_digests.reps())
    assert len(lines) == len(reps) == 633
    for rep, line in zip(reps, lines):
        assert make_series_digests.digest_line(rep) == line, rep.key


# the in-process baselines: single forms, then sums
LADDER = ("V30", "V40", "V50", "V60", "4V7", "8V8", "6V10", "4V16", "2V30",
          "V5+V7+V9+V11+V13+V15")


def test_wide_denominator_is_the_per_piece_rule():
    # the weights-derived denominator reduce works over is the one _compute
    # built from its pieces, on every degree multiset of dim <= 20 and on the
    # ladder, and every piece denominator divides it factor by factor
    reps = [Representation(degs) for dim in range(2, 21)
            for degs in make_series_digests.degree_multisets(dim)]
    assert len(reps) == 626
    for rep in reps + [parse_rep(spec) for spec in LADDER]:
        want, pieces = wide_per_piece(rep)
        wide = wide_denominator(rep)
        assert wide == want, rep.key
        for piece in pieces:
            assert all(e <= wide.get(m, 0) for m, e in piece.den.factors.items()), rep.key


def test_reference_checks_run_on_a_non_tiny_rep():
    # make_reference.py formats a rep into each check's message before it
    # knows the outcome; V5 takes the functional-equation, Hilbert 1893 and
    # fixture-row checks that the tiny reps skip
    probe = ("import make_reference as m; from sl2hilb import parse_rep; "
             "res = m.certified_gammas(parse_rep('V5')); print(res.gamma[0])")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, cwd=REFERENCE.parent,
                         env=dict(os.environ, PYTHONPATH=str(REFERENCE.parent))).stdout
    assert out == "1/192\n"
