"""Exact univariate rational function arithmetic over the rationals.

Numerators are dense coefficient lists of ints or Fractions in a Polynomial
that does no arithmetic; RationalFunction works on the lists.  Denominators
stay factored as products of (1 - t^m)^e, and a product or quotient by a
factor 1 - t^m is one slice operation per factor: out[i] -= out[i-m] is a
single map over two slices, out[i] += out[i-m] a running sum (accumulate)
along each residue class mod m.  Laurent expansion at t = 1 substitutes
t = 1 - s and divides series, in integers up to one Fraction per returned
coefficient; format_series prints in TEXT (the repr) or LATEX.
RationalFunction.derivative, the tests' reference for the D_n reference
series.dn_apply, is traced by perfbench; callers pass lists and dicts.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, sub


class Polynomial:
    """Dense coefficient list c of a polynomial in t, trailing zeros stripped;
    zero has degree -1.  RationalFunction does its arithmetic on the lists;
    shifted and the product by a scalar are kept for perfbench/make_reference.py."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @property
    def degree(self):
        return len(self.c) - 1

    def __mul__(self, k):
        """The product by the scalar k."""
        return Polynomial([v * k for v in self.c])

    def shifted(self, n):
        """Multiply by t^n."""
        return Polynomial([0] * n + self.c)

    def __repr__(self):
        return format_terms(self.c, *TEXT[:2])


# format_series templates: t^e, a term v t^e, 1 - t, 1 - t^m, exponent, fraction.
TEXT = ("t^%d", "%s*%s", "(1-t)", "(1-t^%d)", "^%d", "(%s)/%s")
LATEX = ("t^{%d}", "%s %s", "(1-t^{1})", "(1-t^{%d})", "^{%d}", "\\frac{%s}{%s}")


def format_series(f, style=TEXT):
    """f in the templates style, TEXT or LATEX; the numerator alone over 1."""
    power, scaled, linear, factor, exponent, fraction = style
    num = format_terms(f.num.c, power, scaled)
    if not f.den.factors:
        return num
    den = "".join((factor % m if m > 1 else linear) + (exponent % e if e > 1 else "")
                  for m, e in f.den.items_sorted())
    return fraction % (num, den)


def format_terms(coeffs, power, scaled):
    """The nonzero terms v t^e of a coefficient list joined by + and -, or
    "0" when there are none.  `power % e` writes t^e for e >= 2, and
    `scaled % (v, monomial)` a term whose coefficient is not +-1."""
    terms = []
    for e, v in enumerate(coeffs):
        if v and e == 0:
            terms.append(str(v))
        elif v:
            mono = "t" if e == 1 else power % e
            terms.append(mono if v == 1 else "-" + mono if v == -1 else scaled % (v, mono))
    # no term holds " + ", so this only turns "+ -v" into "- v"
    return " + ".join(terms).replace(" + -", " - ") or "0"


class FactoredDenominator:
    """Product of factors (1 - t^m)^e stored as a map m -> e, all e >= 1."""

    __slots__ = ("factors",)

    def __init__(self, factors=None):
        f = {}
        for m, e in (factors or {}).items():
            if m < 1 or e < 0:
                raise ValueError("bad factor (1 - t^%d)^%d" % (m, e))
            if e:
                f[m] = e
        self.factors = f

    @property
    def degree(self):
        return sum(m * e for m, e in self.factors.items())

    def items_sorted(self):
        return sorted(self.factors.items())


LaurentExpansion = namedtuple("LaurentExpansion", "pole_order coeffs")
LaurentExpansion.__doc__ = "Leading Laurent data at t = 1: f = sum c_j (1-t)^(j - pole_order)."


class RationalFunction:
    """num / den with a factored denominator; no automatic cancellation.

    num is a Polynomial or a list or tuple of coefficients, anything else a
    TypeError; den is a FactoredDenominator, a dict {m: e} or None (one)."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=None):
        if isinstance(num, (list, tuple)):
            num = Polynomial(num)
        elif not isinstance(num, Polynomial):
            raise TypeError("numerator must be a Polynomial, list or tuple, not %s"
                            % type(num).__name__)
        self.num = num
        self.den = den if isinstance(den, FactoredDenominator) else FactoredDenominator(den)

    def degree(self):
        """Degree as a rational function: deg num - deg den."""
        if not self.num.c:
            raise ValueError("zero function has no degree")
        return self.num.degree - self.den.degree

    def __add__(self, other):
        fs, fo = self.den.factors, other.den.factors
        common = {m: max(fs.get(m, 0), fo.get(m, 0)) for m in set(fs) | set(fo)}
        a, b = _times_rest(self.num.c, common, fs), _times_rest(other.num.c, common, fo)
        if len(a) < len(b):
            a, b = b, a
        return RationalFunction(list(map(add, a, b + [0] * (len(a) - len(b)))), common)

    def derivative(self):
        """d/dt, with every denominator exponent raised by one."""
        c, f = self.num.c, self.den.factors
        # (P / prod q_m^e_m)' = (P' prod q_m + P sum e_m q_m' prod_{m'!=m} q_m')
        #                       / prod q_m^(e_m+1); no term is longer than the first
        once = dict.fromkeys(f, 1)
        top = _times_rest([i * v for i, v in enumerate(c)][1:], once, {})
        for m, e in f.items():
            # from d/dt (1 - t^m)^-e = e m t^(m-1) (1 - t^m)^-(e+1)
            for i, v in enumerate(_times_rest(c, once, {m: 1}), m - 1):
                top[i] += v * (e * m)
        return RationalFunction(top, {m: e + 1 for m, e in f.items()})

    def reduce(self, over=None):
        """Cancel factors (1 - t^m) dividing the numerator; best effort: in
        ascending m, as many 1 - t^m as divide what is left.

        It returns what that cancel gives on the function rewritten over the
        denominator over, a multiple {m: e} of its own (the default), without
        building that numerator.  As 1 - t^m = -prod_(d|m) Phi_d, one
        more 1 - t^m cancels iff each such Phi_d still divides it: v_d(num)
        plus the exponents over - den at multiples of d, less what is
        cancelled.  v_d(num) is found by division, only as far as asked.
        Before that, each 1 - t^m of the numerator's own denominator is
        tried in one pass: a running sum per residue class mod m, whose last
        m terms, the remainder, must be zero.  Integral Fraction
        coefficients of the numerator come back as ints.
        """
        c = self.num.c
        factors = dict(self.den.factors)
        over = self.den.factors if over is None else over
        if any(over.get(m, 0) < e for m, e in factors.items()):
            raise ValueError("over must be a multiple of the denominator")
        if not c:
            return RationalFunction([], over)
        for m in sorted(factors):
            while factors[m] and (q := _div_one_minus(c, m)) is not None:
                c = q
                factors[m] -= 1
        extra = {j: e - factors.get(j, 0) for j, e in over.items()}
        spare, found, cut = Counter(), {}, {}   # spare[d]: what extra adds to v_d, less cuts
        for j, x in extra.items():
            for d in _divisors(j):
                spare[d] += x
        for m in sorted(over):
            k = over[m]
            for d in _divisors(m):
                q = found.setdefault(d, [c, 0])     # [c / Phi_d^n, or None past v_d(c); n]
                while q[0] is not None and q[1] < k - spare[d]:
                    q[0] = _div_cyclotomic(q[0], d)
                    q[1] += q[0] is not None
                k = min(k, spare[d] + q[1])
            for d in _divisors(m):
                spare[d] -= k
            cut[m] = k
        c = _times_over(c, {j: x - cut[j] for j, x in extra.items() if x > cut[j]},
                        {j: cut[j] - x for j, x in extra.items() if cut[j] > x})
        if c is None:
            raise RuntimeError("reduce: the cancelled factors do not divide the numerator")
        return RationalFunction(list(map(_normalize, c)),
                                {m: e - cut[m] for m, e in over.items()})

    def at_reciprocal(self):
        """The rational function f(1/t); requires degree <= 0."""
        c, q = self.num.c, self.den
        shift = q.degree - self.num.degree
        if shift < 0:
            raise ValueError("degree must be <= 0")
        sign = (-1) ** sum(q.factors.values())
        return RationalFunction([0] * shift + [v * sign for v in reversed(c)], q)

    def __repr__(self):
        return format_series(self)


def rf_equal(f, g):
    """Exact equality of rational functions by cross multiplication."""
    fs, gs = f.den.factors, g.den.factors
    # cancel shared factored part first; keeps the cross products small
    shared = {m: min(fs.get(m, 0), gs.get(m, 0)) for m in set(fs) & set(gs)}
    return (Polynomial(_times_rest(f.num.c, gs, shared)).c
            == Polynomial(_times_rest(g.num.c, fs, shared)).c)


def _times_rest(c, factors, part):
    """c * prod (1 - t^m)^(factors[m] - part[m]) to the degree of c plus that
    product's, all zeros when c is empty; part divides factors."""
    rest = {m: e - part.get(m, 0) for m, e in factors.items()}
    return _times_factors(c, rest, len(c) - 1 + sum(m * e for m, e in rest.items()))


def taylor_coeffs(f, count):
    """First `count` Maclaurin coefficients of f."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _div_factors(f.num.c, f.den.factors, count)


def laurent_at_one(f, count):
    """Laurent expansion of f at t = 1 in powers of s = 1 - t.

    Returns LaurentExpansion(p, (c_0, ..., c_{count-1})) meaning
    f = sum_j c_j (1-t)^(j-p), with c_0 != 0 whenever p > 0.
    """
    if not f.num.c:
        raise ValueError("zero function has no Laurent expansion")
    zeros = sum(f.den.factors.values())
    cutoff = zeros + count  # the numerator in s truncated at this s-degree
    # numerator in s via Horner: P(1 - s), high coefficients dropped
    cur = [0] * (cutoff + 1)
    for v in reversed(f.num.c):
        cur[1:] = map(sub, cur[1:], cur[:cutoff])
        cur[0] += v
    # each factor 1 - t^m = s * u_m(s) with u_m(0) = m; the expansion reads unit[j < count]
    unit = [1] + [0] * count
    for m, e in f.den.factors.items():
        um = [-comb(m, j + 1) * (-1) ** (j + 1) for j in range(min(m, count + 1))]
        for _ in range(e):
            unit = _mul_trunc(unit, um, count)
    val = 0
    while val <= cutoff and cur[val] == 0:
        val += 1
    if val > cutoff:
        # the function vanishes at t = 1 beyond the requested window
        return LaurentExpansion(0, (0,) * count)
    pole = zeros - val
    # expand (unit part of numerator) / (unit part of denominator) in s, on
    # the integers scaled[n] = c_n u0^(n+1), u0 = unit[0] = prod m^e:
    # scaled[n] = cur[val+n] u0^n - sum_j unit[j] u0^(j-1) scaled[n-j]
    length = count if pole >= 0 else max(count + pole, 0)
    u0 = unit[0]
    powers = [u0 ** j for j in range(length + 1)]
    scaled = []
    for n in range(length):
        scaled.append(cur[val + n] * powers[n] - sum(
            unit[j] * powers[j - 1] * scaled[n - j] for j in range(1, n + 1)))
    series = [_normalize(Fraction(x, powers[n + 1])) for n, x in enumerate(scaled)]
    if pole >= 0:
        return LaurentExpansion(pole, tuple(series))
    return LaurentExpansion(0, tuple(([0] * min(-pole, count) + series)[:count]))


def _mul_trunc(a, b, cutoff):
    """Coefficients 0..cutoff of the product of coefficient lists a and b."""
    out = [0] * (cutoff + 1)
    for i, u in enumerate(a[:cutoff + 1]):
        if u:
            for k, v in enumerate(b[:cutoff + 1 - i], i):
                if v:
                    out[k] += u * v
    return out


def _times_factors(c, factors, cutoff):
    """Coefficients 0..cutoff of c * prod (1 - t^m)^e over factors {m: e}."""
    out = list(c[:cutoff + 1]) + [0] * (cutoff + 1 - len(c))
    for m, e in factors.items():
        for _ in range(e if m <= cutoff else 0):
            # out[i] -= out[i - m] for all i >= m; the slices copy the old values
            out[m:] = map(sub, out[m:], out[:cutoff + 1 - m])
    return out


def _div_factors(c, factors, count):
    """First `count` coefficients of the power series c / prod (1 - t^m)^e."""
    out = list(c[:count]) + [0] * (count - len(c))
    for m, e in factors.items():
        for _ in range(e):
            # out[i] += out[i - m] ascending: a running sum per residue class
            for r in range(min(m, count - m)):
                out[r::m] = accumulate(out[r::m])
    return out


def _times_over(c, up, down):
    """c * prod (1 - t^m)^e over up / prod (1 - t^m)^e over down, as the
    coefficients of a polynomial, or None when that is not one."""
    top = len(c) - 1 + sum(m * e for m, e in up.items())
    deg = top - sum(m * e for m, e in down.items())
    out = _div_factors(_times_factors(c, up, top), down, top + 1)
    return out[:deg + 1] if deg >= 0 and not any(out[deg + 1:]) else None


def _div_one_minus(c, m):
    """c / (1 - t^m) as a polynomial, or None when that is not one: one copy
    of c, a running sum per residue class mod m, and the last m sums, the
    remainder, must be zero.  reduce's many short trial divisions cost 3.6 % more
    through _times_over over 14 multi-summand reps, 12 % on 7V2 (Python 3.11, 2 cores)."""
    out = c[:]
    for r in range(min(m, len(c) - m)):
        out[r::m] = accumulate(out[r::m])
    if len(c) <= m or any(out[-m:]):
        return None
    del out[-m:]
    return out


def _times_geometric(c, p, b, e):
    """c * (1 + t^b + ... + t^((p-1)b))^e, the list c times the conjugates
    ((1 - t^(pb)) / (1 - t^b))^e: p - 1 shifted adds per power, no division."""
    for _ in range(e):
        n, out = len(c), c + [0] * ((p - 1) * b)
        for k in range(b, p * b, b):
            out[k:k + n] = map(add, out[k:k + n], c)
        c = out
    return c


def _div_cyclotomic(c, d):
    """c / Phi_d, or None: Phi_d = +-prod (1 - t^(d/k))^mu(k), k | d squarefree."""
    up, down = {}, {}
    for k in _divisors(d):
        ps = list(_primes(k))
        if len(set(ps)) == len(ps):
            (up if len(ps) % 2 else down)[d // k] = 1
    return _times_over(c, up, down)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _primes(n):
    """The prime factors of n >= 1 in ascending order, with multiplicity."""
    p = 2
    while n > 1:
        while n % p == 0:
            yield p
            n //= p
        p += 1


def _normalize(x):
    if type(x) is not int and isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x
