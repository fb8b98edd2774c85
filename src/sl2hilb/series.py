"""Hilbert series via contour extraction from the graded character.

The series is the constant term in z of (1 - z^2) * prod (1 - t z^w)^-1
over the torus weights w of the rep.  Grouping equal weights first, the
product is split by partial fractions in t; the term attached to the
factor of weight -alpha (alpha >= 0) survives constant term extraction
and turns into an ordinary rational function of t through the
substitution operator U_alpha and the derivative operator D_n.  Factors
of strictly positive weight contribute nothing: their coefficient
functions have strictly positive valuation in z.

All arithmetic is exact and runs on integers: every piece carries one
common integer scale, which is divided out of the assembled numerator
exactly once.  The assembled series is checked against the brute force
monomial counts before being returned.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .exactalg import (Polynomial, FactoredDenominator, RationalFunction, _times_factors,
                       rf_equal, taylor_coeffs)
from .repmodel import weight_system
from . import oracle


class SeriesConsistencyError(RuntimeError):
    """The assembled series disagrees with the brute force counts."""

    def __init__(self, rep, degree, got, want):
        super().__init__(
            "series check failed for %s at degree %d: series gives %s, "
            "direct count gives %s" % (rep, degree, got, want)
        )
        self.rep = rep
        self.degree = degree
        self.got = got
        self.want = want


class ZRationalFunction:
    """Laurent numerator over a product of (1 - z^b)^e factors, b >= 1.

    The numerator is a dict exponent -> coefficient and may reach into
    negative exponents.  Arithmetic factors out the lowest power of z
    and runs on RationalFunction in z.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=None, den=None):
        self.num = {e: c for e, c in (num or {}).items() if c}
        self.den = den if isinstance(den, FactoredDenominator) else FactoredDenominator(den)

    @property
    def is_zero(self):
        return not self.num

    def scale(self, c):
        return ZRationalFunction({e: v * c for e, v in self.num.items()}, self.den)

    def shift(self, k):
        return ZRationalFunction({e + k: v for e, v in self.num.items()}, self.den)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return ZRationalFunction()
        v, w = min(self.num), min(other.num)
        return _from_rf(v + w, _to_rf(self, v) * _to_rf(other, w))

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        v = min(min(self.num), min(other.num))
        return _from_rf(v, _to_rf(self, v) + _to_rf(other, v))

    def __repr__(self):
        return "ZRationalFunction(%r, %r)" % (self.num, self.den)


def _to_rf(f, v):
    """z^-v f as a RationalFunction in z; v must not exceed the valuation of f."""
    return RationalFunction(Polynomial.from_dict({e - v: c for e, c in f.num.items()}), f.den)


def _from_rf(v, g):
    """z^v g as a ZRationalFunction."""
    return ZRationalFunction({v + i: c for i, c in enumerate(g.num.c)}, g.den)


def zr_equal(f, g):
    """Exact equality of z-side functions by cross multiplication."""
    v = min(f.num.keys() | g.num.keys(), default=0)
    return rf_equal(_to_rf(f, v), _to_rf(g, v))


def _inv_one_minus(c, e):
    """(1 - z^c)^-e as a ZRationalFunction, for c != 0.

    Negative c is normalized through 1 - z^c = -z^c (1 - z^-c).
    """
    if c > 0:
        return ZRationalFunction({0: 1}, {c: e})
    return ZRationalFunction({-c * e: (-1) ** e}, {-c: e})


@dataclass(frozen=True)
class PartialFractionTerm:
    """One term G / (1 - t z^weight)^order of the split product."""

    weight: int
    order: int
    coeff: ZRationalFunction


def _coeffs_for_index(weights, mults, i):
    """0! G_{i,0}, 1! G_{i,1}, ..., (m_i - 1)! G_{i,m_i - 1} at position i.

    With F(t) the product of all other factors (1 - t z^w)^-m, the
    coefficient of (1 - t z^{w_i})^(j - m_i) is
    G_{i,j} = F^(j) (1/x_i) / (j! (-x_i)^j), x_i = z^{w_i}; the factor 1/j!
    is left out, so j! G_{i,j} = (-1)^j F^(j) (1/x_i) / x_i^j has integer
    coefficients.  Derivatives of F come from F' = F * S with S the
    logarithmic derivative, all evaluated at t = 1/x_i.
    """
    wi = weights[i]
    mi = mults[i]
    fval = ZRationalFunction({0: 1})
    for l, (w, m) in enumerate(zip(weights, mults)):
        if l != i:
            fval = fval * _inv_one_minus(w - wi, m)
    derivs = [fval]
    if mi > 1:
        svals = []
        for k in range(mi - 1):
            sk = ZRationalFunction()
            for l, (w, m) in enumerate(zip(weights, mults)):
                if l != i:
                    part = _inv_one_minus(w - wi, k + 1).shift(w * (k + 1))
                    sk = sk + part.scale(m * factorial(k))
            svals.append(sk)
        for j in range(1, mi):
            acc = ZRationalFunction()
            for m in range(j):
                acc = acc + derivs[m] * svals[j - 1 - m].scale(comb(j - 1, m))
            derivs.append(acc)
    return [derivs[j].scale((-1) ** j).shift(-j * wi) for j in range(mi)]


def partial_fraction(weights, mults):
    """Split prod (1 - t z^w)^-m into terms G_{i,j} / (1 - t z^{w_i})^(m_i - j).

    Weights must be distinct; the terms reassemble to the product,
    which is what the tests check.
    """
    if len(set(weights)) != len(weights):
        raise ValueError("weights must be distinct")
    if len(weights) != len(mults):
        raise ValueError("weights and mults must have the same length")
    terms = []
    for i, (w, m) in enumerate(zip(weights, mults)):
        for j, g in enumerate(_coeffs_for_index(weights, mults, i)):
            terms.append(PartialFractionTerm(w, m - j, g.scale(Fraction(1, factorial(j)))))
    return terms


def ua_transform(f, a):
    """Extract every a-th z-coefficient of f into a rational function of t.

    U_a sends sum c_n z^n to sum c_{an} t^n.  Each denominator factor
    transforms by (1 - z^b) -> (1 - t^(b/gcd(a,b)))^gcd(a,b); the
    numerator is recovered exactly from a truncated expansion, with a
    margin of two coefficients beyond the degree bound checked to be
    zero.  U_0 keeps the constant coefficient over a factor 1/(1 - t).
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if f.is_zero:
        return RationalFunction(0)
    if a == 0:
        return RationalFunction(Polynomial(_z_coeffs(f, 0, 0)), FactoredDenominator({1: 1}))
    den_t = {}
    for b, e in f.den.factors.items():
        g = gcd(a, b)
        den_t[b // g] = den_t.get(b // g, 0) + g * e
    q = f.den.degree
    # the part of f with exponents >= 0 is M / den, deg M <= max(f.num); once
    # f reaches into negative exponents M may have any degree below q as well
    p = max(f.num) if min(f.num) >= 0 else max(max(f.num), q - 1)
    bound = max(0, (p + (a - 1) * q) // a)
    margin = 2
    sub = _z_coeffs(f, a, bound + margin)
    num = _times_factors(sub, den_t, bound + margin)
    if any(num[bound + 1:]):
        raise RuntimeError("numerator degree bound violated in U_%d" % a)
    return RationalFunction(Polynomial(num[:bound + 1]), den_t)


def _z_coeffs(f, a, count):
    """[z^0]f, [z^a]f, ..., [z^(a*count)]f."""
    v = min(f.num)
    series = taylor_coeffs(_to_rf(f, v), max(a * count - v + 1, 0))
    return [series[a * i - v] if a * i >= v else 0 for i in range(count + 1)]


def dn_apply(f, n):
    """The operator D_n = (d/dt)^n after multiplication by t^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = RationalFunction(f.num.shifted(n), f.den)
    for _ in range(n):
        out = out.derivative()
    return out


# Terms of the series compared with the brute force counts, at most.
CHECK_DEPTH = 30

_MEMO = {}


def hilbert_series(rep):
    """Hilbert series of the invariant ring of rep, as num / factored den.

    The pieces are assembled in integers over the one common scale
    (M-1)!, M the largest multiplicity of a weight, which is divided out
    of the numerator exactly once; a remainder raises
    SeriesConsistencyError.  The result is reduced and verified against
    brute force monomial counts up to min(CHECK_DEPTH, denominator
    degree); a mismatch raises SeriesConsistencyError.  Trivial summands
    contribute 1/(1-t) each.  Every call returns a fresh object; the memo
    keeps its own.
    """
    memo_key = (rep.degrees, rep.trivial_count)
    if memo_key not in _MEMO:
        _MEMO[memo_key] = _compute(rep)
    f = _MEMO[memo_key]
    return RationalFunction(Polynomial(f.num.c), FactoredDenominator(f.den.factors))


def _compute(rep):
    if not rep.degrees:
        return RationalFunction(1, {1: rep.trivial_count})
    mult_of = Counter(weight_system(rep).weights)
    weights, mults = list(mult_of), list(mult_of.values())
    one_minus_z2 = ZRationalFunction({0: 1, 2: -1})
    # piece (j, order) comes out j! (order-1)! times too large, and
    # j + order - 1 = mult - 1 <= max(mults) - 1, so each factor is exact
    scale = factorial(max(mults) - 1)
    total = RationalFunction(0)
    for alpha, mult in zip(weights, mults):
        if alpha < 0:
            continue
        omitted = weights.index(-alpha)
        for j, g in enumerate(_coeffs_for_index(weights, mults, omitted)):
            order = mult - j
            piece = dn_apply(ua_transform(one_minus_z2 * g, alpha), order - 1)
            total = total + piece.scaled(scale // (factorial(j) * factorial(order - 1)))
    num = []
    for n, c in enumerate(total.num.c):
        q, r = divmod(c, scale)
        if r:
            raise SeriesConsistencyError(rep, n, "numerator coefficient %s/%d" % (c, scale),
                                         "an integer")
        num.append(q)
    total = RationalFunction(Polynomial(num), total.den).reduce()
    if rep.trivial_count:
        total = total * RationalFunction(1, {1: rep.trivial_count})
    if total.num.is_zero or total.degree() > 0:
        raise SeriesConsistencyError(rep, 0, repr(total), "a power series of degree <= 0")
    depth = min(CHECK_DEPTH, total.den.degree)
    got = taylor_coeffs(total, depth + 1)
    want = oracle.truncated_series(rep, depth)
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise SeriesConsistencyError(rep, n, g, w)
    return total
