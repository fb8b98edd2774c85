from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from references import (div_factors_loop, eval_at, laurent_at_one_fractions, poly_add,
                        poly_derivative, poly_mul, poly_reversed, reduce_multiplied_up,
                        rf_add_poly, rf_at_reciprocal_poly, rf_derivative_poly, rf_equal_poly,
                        times_factors_loop)
from sl2hilb.exactalg import (FactoredDenominator, Polynomial,
                              RationalFunction, _div_factors, _div_one_minus, _times_factors,
                              LATEX, TEXT, _times_geometric, _times_over, format_series,
                              format_terms, laurent_at_one, rf_equal, taylor_coeffs)


def rf(num, den):
    return RationalFunction(Polynomial(num), FactoredDenominator(den))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _dense(factors):
    """prod (1 - t^m)^e over factors {m: e} as a dense coefficient list."""
    out = [1]
    for m, e in factors.items():
        for _ in range(e):
            out = _convolve(out, [1] + [0] * (m - 1) + [-1])
    return out


TERMS_GOLDEN = [
    # coefficients, text, LaTeX
    ([], "0", "0"),
    ([0, 0], "0", "0"),
    ([1], "1", "1"),
    ([-3], "-3", "-3"),
    ([0, 1], "t", "t"),
    ([0, -1], "-t", "-t"),
    ([0, 0, 1, 0, -1], "t^2 - t^4", "t^{2} - t^{4}"),
    ([2, -1, 0, -5, 1], "2 - t - 5*t^3 + t^4", "2 - t - 5 t^{3} + t^{4}"),
    ([0, -7, 12], "-7*t + 12*t^2", "-7 t + 12 t^{2}"),
    ([Fraction(1, 2), Fraction(-3, 4), 0, Fraction(-1), Fraction(5, 3)],
     "1/2 - 3/4*t - t^3 + 5/3*t^4", "1/2 - 3/4 t - t^{3} + 5/3 t^{4}"),
    ([Fraction(-1, 2), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
     "-1/2 + t^11", "-1/2 + t^{11}"),
]


def test_term_formatting_golden():
    for coeffs, text, latex in TERMS_GOLDEN:
        assert repr(Polynomial(coeffs)) == text, coeffs
        assert format_terms(coeffs, "t^%d", "%s*%s") == text, coeffs
        assert format_terms(coeffs, "t^{%d}", "%s %s") == latex, coeffs
    assert repr(rf([1, 0, -1], {1: 1, 3: 2})) == "(1 - t^2)/(1-t)(1-t^3)^2"
    assert repr(rf([Fraction(-1, 2)], {})) == "-1/2"


SERIES_GOLDEN = [
    # numerator, denominator, text, LaTeX
    ([1, 0, -2], {}, "1 - 2*t^2", "1 - 2 t^{2}"),                          # no factors
    ([1], {1: 1}, "(1)/(1-t)", "\\frac{1}{(1-t^{1})}"),                       # m = 1
    ([1, 1], {1: 3, 2: 1}, "(1 + t)/(1-t)^3(1-t^2)",                        # m = 1, e = 3
     "\\frac{1 + t}{(1-t^{1})^{3}(1-t^{2})}"),
    ([1, 0, 0, 3], {4: 2, 6: 1}, "(1 + 3*t^3)/(1-t^4)^2(1-t^6)",            # e > 1
     "\\frac{1 + 3 t^{3}}{(1-t^{4})^{2}(1-t^{6})}"),
    ([], {2: 1}, "(0)/(1-t^2)", "\\frac{0}{(1-t^{2})}"),                      # zero
    ([Fraction(1, 2), Fraction(-3, 4)], {3: 1}, "(1/2 - 3/4*t)/(1-t^3)",    # Fractions
     "\\frac{1/2 - 3/4 t}{(1-t^{3})}"),
]


def test_series_formatting_golden():
    for num, den, text, latex in SERIES_GOLDEN:
        f = rf(num, den)
        assert format_series(f, TEXT) == repr(f) == text, (num, den)
        assert format_series(f, LATEX) == latex, (num, den)


def test_polynomial_arithmetic():
    p = Polynomial([1, 2])
    q = Polynomial([0, 1, 1])
    assert poly_add(p, q).c == [1, 3, 1]
    assert poly_mul(p, q).c == [0, 1, 3, 2]
    assert (p * 3).c == [3, 6]
    assert poly_mul(p, Polynomial()).c == [] and poly_mul(Polynomial(), p).c == []
    assert (p * -1).c == [-1, -2]
    assert p.degree == 1
    assert Polynomial([0]).degree == -1


def test_polynomial_shift_reverse_eval():
    p = Polynomial([1, 0, 2])
    assert p.shifted(2).c == [0, 0, 1, 0, 2]
    assert poly_reversed(p).c == [2, 0, 1]
    assert eval_at(p, Fraction(1, 2)) == Fraction(3, 2)


def test_polynomial_derivative():
    assert poly_derivative(Polynomial([5, 3, 0, 2])).c == [3, 0, 6]


def test_factored_denominator():
    den = FactoredDenominator({2: 1, 3: 2})
    assert den.degree == 8
    want = poly_mul(poly_mul(Polynomial([1, 0, -1]), Polynomial([1, 0, 0, -1])),
                    Polynomial([1, 0, 0, -1]))
    assert _times_factors([1], den.factors, den.degree) == want.c
    with pytest.raises(ValueError):
        FactoredDenominator({0: 1})


coefficients = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(st.lists(coefficients, max_size=7),
       st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=3),
       st.integers(0, 25))
@settings(max_examples=100, deadline=None)
def test_strided_kernels_match_dense_product(c, factors, cutoff):
    dense = _convolve(c, _dense(factors)) if c else []
    assert _times_factors(c, factors, cutoff) == (dense + [0] * (cutoff + 1))[:cutoff + 1]
    assert _times_factors(c, factors, len(dense) - 1) == dense
    # dividing after multiplying returns the original
    assert _div_factors(dense, factors, len(c)) == c
    # and the quotient series times the dense product gives c back
    back = _convolve(_div_factors(c, factors, cutoff + 1), _dense(factors))
    assert back[:cutoff + 1] == (c + [0] * (cutoff + 1))[:cutoff + 1]


@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(2, 13), st.integers(1, 12),
       st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_geometric_conjugates_match_the_divided_product(c, p, b, e):
    # (1 + t^b + ... + t^((p-1)b))^e by shifted adds is the multiply-then-
    # divide conjugate product of ua_transform, to the same length
    assert _times_geometric(c, p, b, e) == _times_over(c, {p * b: e}, {b: e})


@given(st.lists(coefficients, max_size=14), st.integers(1, 12), st.integers(0, 3),
       st.lists(st.integers(-2, 2), max_size=3))
@example([], 3, 0, [])
@example([1], 12, 0, [])                    # c shorter than m
@example([1, 0, 0], 3, 0, [])               # len(c) == m
@example([2, -1], 1, 2, [])                 # two factors 1 - t to cancel
@example([1, 1], 2, 1, [0, 1])              # divisible except a tail term
@example([0, 0, 0, 0], 2, 0, [])            # the zero list: zeros back
@settings(max_examples=150, deadline=None)
def test_one_pass_division_matches_the_divided_product(base, m, k, off):
    # c / (1 - t^m) by one running sum per residue class equals the multiply-
    # then-divide _times_over: the same quotient, and None on the same inputs
    c = _convolve(base, _dense({m: k})) if base else []
    for i, v in enumerate(off[:len(c)]):
        c[-1 - i] += v
    got = _div_one_minus(c, m)
    assert got == _times_over(c, {}, {m: 1})
    if got is not None:
        assert _convolve(got, _dense({m: 1})) == c


def test_taylor_coeffs_quadratic_cubic():
    f = rf([1], {2: 1, 3: 1})
    assert taylor_coeffs(f, 10) == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2]


def test_taylor_coeffs_polynomial_only():
    assert taylor_coeffs(rf([1, -1, 4], {}), 5) == [1, -1, 4, 0, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        taylor_coeffs(rf([1], {}), -1)


def test_rational_add_and_scale():
    f = rf([1], {1: 1})
    g = rf([1], {2: 1})
    h = f + g
    # 1/(1-t) + 1/(1-t^2) agree with coefficient sums
    want = [a + b for a, b in zip(taylor_coeffs(f, 8), taylor_coeffs(g, 8))]
    assert taylor_coeffs(h, 8) == want
    assert taylor_coeffs(rf([Fraction(1, 2)], {1: 1}), 3) == [Fraction(1, 2)] * 3


def _typed(c):
    return [(v, type(v)) for v in c]


_numerator = st.lists(coefficients, max_size=8)
_denominator = st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=3)


@given(_numerator, _denominator, _numerator, _denominator)
@example([], {}, [], {})                                    # zero numerators, no factors
@example([], {2: 1}, [0, 0, 1], {1: 1})
@example([Fraction(1, 2), 0, 3], {}, [Fraction(-1, 3)], {3: 2})
@example([1, 0, 0, 0, 0, 0, 0, 1], {2: 1, 3: 1, 4: 1, 5: 1}, [1, 2], {2: 1})
@example([-1, 0, Fraction(1, 3)], {2: 1, 1: 2}, [1], {})   # a cancelled partial sum
@settings(max_examples=300, deadline=None)
def test_list_arithmetic_matches_the_polynomial_methods(c, den, c2, den2):
    f, g = rf(c, den), rf(c2, den2)
    got, want = f + g, rf_add_poly(f, g)
    assert _typed(got.num.c) == _typed(want.num.c) and got.den.factors == want.den.factors
    assert repr(got) == repr(want)
    assert rf_equal(f, g) is rf_equal_poly(f, g)
    assert rf_equal(f, f + rf([], den2)) and rf_equal(rf([], den), rf([], den2))
    got, want = f.derivative(), rf_derivative_poly(f)
    assert got.num.c == want.num.c and got.den.factors == want.den.factors
    # the Polynomial sums stripped a partial sum whose top coefficients
    # cancelled, so a term added there later left its own type; the one list
    # keeps the Fraction (perhaps Fraction(0)) that entered the coefficient
    assert all(type(v) is Fraction for v, w in zip(got.num.c, want.num.c) if type(w) is Fraction)
    if all(type(v) is int for v in c):
        assert _typed(got.num.c) == _typed(want.num.c)
    if f.num.c and f.degree() > 0:
        for method in (RationalFunction.at_reciprocal, rf_at_reciprocal_poly):
            with pytest.raises(ValueError, match="degree"):
                method(f)
    else:
        got, want = f.at_reciprocal(), rf_at_reciprocal_poly(f)
        assert _typed(got.num.c) == _typed(want.num.c) and got.den.factors == want.den.factors


def test_rational_derivative():
    f = rf([0, 1], {1: 1})               # t/(1-t)
    assert rf_equal(f.derivative(), rf([1], {1: 2}))


def test_degree():
    assert rf([1], {2: 1, 3: 1}).degree() == -5
    assert rf([0, 0, 1], {2: 1}).degree() == 0
    with pytest.raises(ValueError, match="no degree"):
        RationalFunction().degree()


def test_at_reciprocal():
    # Gorenstein-style flip: f(1/t) = t^7 f(t) for this series
    f = rf([1, 0, 0, 0, 0, 0, 0, 1], {2: 1, 3: 1, 4: 1, 5: 1})
    flip = f.at_reciprocal()
    want = RationalFunction(f.num.shifted(7), f.den)
    assert rf_equal(flip, want)


def test_rf_equal():
    assert rf_equal(rf([1, 1], {2: 1}), rf([1], {1: 1}))      # (1+t)/(1-t^2)
    assert not rf_equal(rf([1], {1: 1}), rf([1], {2: 1}))


def test_reduce_cancels_shared_factors():
    f = rf([1, 0, -1], {2: 2})           # (1-t^2)/(1-t^2)^2
    g = f.reduce()
    assert g.den.factors == {2: 1}
    assert rf_equal(f, g)


def test_reduce_keeps_factor_that_does_not_divide():
    f = rf([1, 1], {2: 1})               # (1+t)/(1-t^2): 1 - t^2 does not divide 1 + t
    g = f.reduce()
    assert g.num.c == [1, 1]
    assert g.den.factors == {2: 1}


def _long_division_remainder(poly, divisor):
    rem = [Fraction(v) for v in poly]
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        q = rem[top] / divisor[-1]
        for j, v in enumerate(divisor):
            rem[top - d + j] -= q * v
    return rem[:d]


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.dictionaries(st.integers(1, 5), st.integers(1, 2), max_size=3),
       st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=3))
@settings(max_examples=80, deadline=None)
def test_reduce_property(base, shared, den):
    # the numerator carries the factors in `shared`, some of which the
    # denominator has too; reduce must cancel exactly the ones it can
    assume(any(base))
    num = poly_mul(Polynomial(base), Polynomial(_dense(shared)))
    f = RationalFunction(num, FactoredDenominator(den))
    g = f.reduce()
    assert rf_equal(g, f)
    assert all(type(v) is int for v in g.num.c)
    for m in g.den.factors:
        assert any(_long_division_remainder(g.num.c, [1] + [0] * (m - 1) + [-1]))


# Phi_1..Phi_6, up to sign: 1 - t^m is -prod_(d|m) Phi_d
CYCLOTOMIC = {1: [1, -1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1] * 5, 6: [1, -1, 1]}


@given(st.lists(st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3), max_size=3),
       st.lists(st.sampled_from(sorted(CYCLOTOMIC)), max_size=6),
       st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=4),
       st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=4))
@example([], [], {2: 1}, {3: 1})
@example([1], [2], {2: 1}, {5: 1})          # only v_2(num) decides 1 - t^2
@example([1], [1, 2, 3, 6, 6], {2: 1}, {3: 1, 6: 2})
@example([Fraction(1, 2), 1], [2, 4], {1: 1}, {2: 2, 4: 1})
@settings(max_examples=200, deadline=None)
def test_reduce_over_matches_multiplying_up(base, phis, den, extra):
    # over a multiple of the denominator, reduce returns what the ascending
    # cancel returns on the numerator multiplied up to it
    num = Polynomial(base)
    for d in phis:
        num = poly_mul(num, Polynomial(CYCLOTOMIC[d]))
    f = RationalFunction(num, FactoredDenominator(den))
    over = {m: den.get(m, 0) + extra.get(m, 0) for m in set(den) | set(extra)}
    g, want = f.reduce(over=over), reduce_multiplied_up(f, over)
    assert g.num.c == want.num.c
    assert g.den.factors == want.den.factors
    if all(type(v) is int for v in want.num.c):
        assert all(type(v) is int for v in g.num.c)


def test_reduce_over_must_be_a_multiple():
    with pytest.raises(ValueError, match="multiple"):
        rf([1], {2: 2}).reduce(over={2: 1, 3: 1})


def test_rational_function_numerator_types():
    # a dict is never read by its keys, nor a scalar taken for a constant
    for num in (1, Fraction(1, 2), {0: 1, 2: 1}):
        with pytest.raises(TypeError, match=type(num).__name__):
            RationalFunction(num, {2: 1})
    assert not RationalFunction().num.c
    assert RationalFunction([Fraction(1, 2)]).num.c == [Fraction(1, 2)]
    assert RationalFunction((1, 0, 2, 0), {2: 1}).num.c == [1, 0, 2]


def test_laurent_at_one_simple_pole():
    f = rf([1], {1: 2})
    exp = laurent_at_one(f, 4)
    assert exp.pole_order == 2
    assert exp.coeffs == (1, 0, 0, 0)


def test_laurent_at_one_table_row():
    f = rf([1], {2: 1, 3: 1})
    exp = laurent_at_one(f, 4)
    assert exp.pole_order == 2
    assert exp.coeffs == (Fraction(1, 6), Fraction(1, 4),
                          Fraction(17, 72), Fraction(25, 144))


def test_laurent_at_one_negative_pole():
    # (1-t)^2/(1-t^2) = (1-t)/(1+t) vanishes at t = 1; the expansion is
    # reported from the (1-t)^0 slot with leading zeros
    f = rf([1, -2, 1], {2: 1})
    exp = laurent_at_one(f, 4)
    assert exp.pole_order == 0
    assert exp.coeffs == (0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def test_laurent_at_one_zero_rejected():
    with pytest.raises(ValueError):
        laurent_at_one(rf([0], {2: 1}), 3)


_coeff = st.one_of(st.integers(-50, 50),
                   st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7)))


@st.composite
def _laurent_case(draw):
    # (1 - t)^k times a nonzero cofactor over a random denominator: k above
    # the denominator's zero order gives a negative pole order, k above
    # that order plus count a function vanishing past the window
    den = draw(st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3))
    count = draw(st.integers(0, 6))
    k = draw(st.integers(0, sum(den.values()) + count + 2))
    num = draw(st.lists(_coeff, min_size=1, max_size=6).filter(any))
    for _ in range(k):
        num = _convolve(num, [1, -1])
    return rf(num, den), count


@given(_laurent_case())
@example((rf([1], {2: 1, 3: 1}), 4))                  # positive pole, Fractions
@example((rf([1, -2, 1], {2: 1}), 4))                 # negative pole order
@example((rf([1, -2, 1], {1: 1}), 0))                 # count 0
@example((rf([1, -3, 3, -1], {2: 1}), 1))             # vanishes past the window
@example((rf([Fraction(1, 2), 4], {1: 2, 5: 1}), 6))  # Fraction numerator
@example((rf([6], {1: 1}), 3))                        # integral coefficients stay int
@settings(max_examples=300, deadline=None)
def test_laurent_at_one_matches_the_fraction_loop(case):
    f, count = case
    got, want = laurent_at_one(f, count), laurent_at_one_fractions(f, count)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3))
@settings(max_examples=60, deadline=None)
def test_taylor_matches_defining_recurrence(num, den):
    f = rf(num, den)
    coeffs = taylor_coeffs(f, 12)
    # multiply back: expanded denominator times the series equals the numerator
    expanded = _dense(f.den.factors)
    for n in range(12):
        acc = sum(expanded[j] * coeffs[n - j]
                  for j in range(min(n + 1, len(expanded))))
        want = f.num.c[n] if n <= f.num.degree else 0
        assert acc == want


@given(st.lists(_coeff, max_size=25),
       st.dictionaries(st.integers(1, 30), st.integers(0, 3), max_size=4),
       st.integers(-1, 30))
@example([1, 2, 3], {5: 2}, 3)                        # m > cutoff, m > count
@example([1, 2, 3, 4], {4: 1}, 3)                     # m = count
@example([1, 2, 3], {4: 1}, 4)                        # m = cutoff
@example([1, 2], {1: 1, 3: 2}, -1)                    # count = 0
@example([Fraction(1, 2), 3, Fraction(-5, 3)], {1: 2, 2: 1, 3: 0}, 12)
@example([], {2: 1}, 0)
@settings(max_examples=300, deadline=None)
def test_slice_kernels_equal_the_loops(c, factors, cutoff):
    # cutoff + 1 doubles as the Taylor count: count = 0, m = count, m > count
    assert _times_factors(c, factors, cutoff) == times_factors_loop(c, factors, cutoff)
    count = cutoff + 1
    assert _div_factors(c, factors, count) == div_factors_loop(c, factors, count)
