"""Hilbert series via contour extraction from the graded character.

The series is the constant term in z of (1 - z^2) * prod (1 - t z^w)^-1
over the torus weights w of the rep.  Grouping equal weights first, the
product is split by partial fractions in t; every coefficient is a power
series in z, an integer polynomial over a product of (1 - z^b)^e factors
that the distances between the weights fix in advance, handed on as a
ZRationalFunction, a named tuple of two dicts.  Its numerators come from
one recursion in integers: the log-derivative series of order e adds one
binomial row C(n + e - 1, e - 1) per distance at that distance's stride,
and every exact division by an integer is a floor-division pass checked by
a multiply pass.  The terms attached to the factor of weight -alpha (alpha
> 0) survive constant term extraction and turn into an ordinary rational
function of t through the substitution operator U_alpha, one prime of
alpha at a time, each stage completing the z-factors by their conjugates,
and the derivative operator D_n, which runs first, on the z side:
theta_t U_alpha = U_alpha theta_z / alpha (theta = x d/dx) sums the terms
of one weight by Horner in theta into one series, and one U_alpha of it
gives the weight's piece.  Factors of weight >= 0 contribute nothing:
their coefficient functions have strictly positive valuation in z, at
weight 0 since the even V_d it comes from has weight -2 as well.

All arithmetic is exact and runs on integers: every piece is an exact
integer rational function as it is built, so the pieces are added over
their tight denominators, pairwise in a balanced tree, where each operand is
lifted only by the other half's factors.  reduce cancels the sum as if it sat
over the gcd rule's wider denominator (repmodel.wide_denominator), without
building that numerator, and tries each 1 - t^m of its own denominator in one pass.
Trivial summands raise the exponent of 1 - t of the assembled series, and
the result is checked against the functional equation, which covers the
whole numerator of every rep, and against the brute force monomial counts
up to CHECK_DEPTH before being returned.  Every RationalFunction here is
built from a coefficient list and a dict {m: e}.
"""

from collections import Counter, namedtuple
from itertools import accumulate, repeat
from math import comb, gcd
from operator import add, floordiv, mul

from .exactalg import (RationalFunction, _div_factors, _mul_trunc, _primes, _times_factors,
                       _times_geometric, _times_over, taylor_coeffs)
from .repmodel import pole_and_a_invariant, weight_system, wide_denominator
from . import oracle
from .oracle import SeriesConsistencyError


# A power series in z for ua_transform: num {exponent >= 0: coefficient}
# over prod (1 - z^b)^e, den {b >= 1: e}.
ZRationalFunction = namedtuple("ZRationalFunction", "num den")


def _coeffs_for_index(weights, mults, i):
    """G_{i,0}, G_{i,1}, ..., G_{i,m_i - 1} at position i, each as a pair
    (numerator coefficients, denominator {b: e}).

    With F(t) the product of all other factors (1 - t z^w)^-m, the
    coefficient of (1 - t z^{w_i})^(j - m_i) is
    G_{i,j} = F^(j) (1/x_i) / (j! (-x_i)^j), x_i = z^{w_i}, so
    G_{i,j} = p_j / (B E^j) with B = prod (1 - z^|w - w_i|)^m over
    the other weights and E = prod (1 - z^c) over their distinct distances
    c = |w - w_i|.  p_0 = F(1/x_i) B = (-1)^s z^K, s and K the multiplicity
    and the distance sum of the weights below w_i.  F' = F S, S the
    logarithmic derivative, gives j p_j = sum_(m<j) p_m q_(j-1-m), divided
    by j exactly, where q_k / E^(k+1) = S^(k) (1/x_i) / (k! (-x_i)^(k+1)) is
    the power series sum m (1 - x_i/z^w)^-(k+1); a weight
    w_i + c enters it through 1 - z^-c = -z^-c (1 - z^c).  q_(e-1) is one
    pass by E^e over the sum of the distances' series to degree e deg E: as
    1/(1 - z^c)^e = sum C(n + e - 1, e - 1) z^(cn), each distance c adds that
    binomial row at stride c from z^0 and from z^(ce); the row of order e
    serves every distance and is one running sum of the row of order e - 1.
    The division by j is one floor-division pass, checked by one multiply
    pass.
    """
    wi, mi = weights[i], mults[i]
    below, above = Counter(), Counter()     # distance c -> multiplicity of w_i -/+ c
    for w, m in zip(weights, mults):
        if w < wi:
            below[wi - w] += m
        elif w > wi:
            above[w - wi] += m
    den = below + above                     # B, distance -> exponent
    span = sum(den)                         # degree of E, the distances summed
    low = sum(c * m for c, m in below.items())
    nums = [[0] * low + [(-1) ** sum(below.values())]]
    logs = []                               # q_(e-1), over E^e
    row = [1] * ((mi - 1) * span + 1)       # C(n + e - 1, e - 1) in n, from e = 1
    for e in range(1, mi):
        if e > 1:
            row = list(accumulate(row))
        q = [0] * (e * span + 1)            # q_(e-1) / E^e as a series, to degree e span
        for c in den:
            # (below_c + (-1)^e above_c z^(ce)) / (1 - z^c)^e: the row at stride c, twice
            for start, k in ((0, below[c]), (c * e, (-1) ** e * above[c])):
                if k:
                    q[start::c] = map(add, q[start::c], map(mul, row, repeat(k)))
        logs.append(_times_factors(q, dict.fromkeys(den, e), e * span))
    for j in range(1, mi):
        cutoff = low + j * span
        acc = [0] * (cutoff + 1)
        for m in range(j):
            acc = list(map(add, acc, _mul_trunc(nums[m], logs[j - 1 - m], cutoff)))
        if (p := _div_exact(acc, j)) is None:
            raise RuntimeError("partial fraction numerator not divisible by %d" % j)
        nums.append(p)
    return [(p, {c: den[c] + j for c in den}) for j, p in enumerate(nums)]


def ua_transform(f, a):
    """Extract every a-th z-coefficient of the power series f into t.

    U_a sends sum c_n z^n to sum c_{an} t^n.  With f = g(z^s), s the gcd of
    the exponents of the nonzero terms and the factors b, and h = gcd(a, s),
    U_a f is (U_(a/h) g)(t^(s/h)), and U_(a/h) runs as U_p for each prime p
    of a/h in ascending order.  In each stage, ascending in b, a factor
    (1 - z^b)^e with p not dividing b is completed to a series in z^p by
    the conjugates ((1 - z^(pb)) / (1 - z^b))^e (G. Xin, Electron. J.
    Combin. 11 (2004)): for p <= 3 the product by (1 + z^b + ... +
    z^((p-1)b))^e, p - 1 shifted adds per power; for p >= 5 one multiply
    pass and one divide pass, whose last b e terms must be zero, as p - 1
    adds cost more there.  The stage keeps every p-th coefficient and
    turns b into b/p where p divides b.  The result sits over the tight
    prod (1 - t^(b/gcd(a,b)))^e, whose b/gcd(a,b) is the last stage's b
    times s/h, as gcd(a/h, s/h) = 1.  An a < 1 or a negative exponent in f is a ValueError.
    """
    if a < 1 or any(e < 0 for e in f.num):
        raise ValueError("a must be positive and the numerator exponents nonnegative")
    nonzero = [e for e, v in f.num.items() if v]
    if not nonzero:
        return RationalFunction()
    s = gcd(*nonzero, *f.den) or 1
    h = gcd(a, s)
    c = [f.num.get(e, 0) for e in range(0, max(nonzero) + 1, s)]
    den = [(b // s, e) for b, e in f.den.items()]
    for p in _primes(a // h):
        for b, e in sorted(den):
            if b % p and p <= 3:
                c = _times_geometric(c, p, b, e)
            elif b % p and (c := _times_over(c, {p * b: e}, {b: e})) is None:
                raise RuntimeError("conjugate product not divisible in U_%d" % a)
        c, den = c[::p], [(b // p if b % p == 0 else b, e) for b, e in den]
    den_t = Counter()
    for b, e in den:
        den_t[b * (s // h)] += e
    out = [0] * ((len(c) - 1) * (s // h) + 1)
    out[::s // h] = c
    return RationalFunction(out, den_t)


def dn_apply(f, n):
    """D_n / n!, D_n = (d/dt)^n after multiplication by t^n: sum a_k t^k goes
    to sum C(k + n, n) a_k t^k over every denominator exponent raised by n, a
    numerator of degree at most deg num + n sum m, so one multiply pass.
    The series runs D_n in _dn_sum; this is the D_n reference perfbench traces."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not n:
        return f
    top = f.num.degree + n * sum(f.den.factors)
    c = [comb(k + n, n) * v for k, v in enumerate(taylor_coeffs(f, top + 1))]
    den = {m: e + n for m, e in f.den.factors.items()}
    return RationalFunction(_times_factors(c, den, top), den)


def _theta(c, den, k):
    """The numerator of (theta + k)(c / Q) over Q E, theta = z d/dz, for Q
    = prod (1 - z^b)^e over den {b: e} and E = prod (1 - z^b) over its b.
    As theta E = -E sum b z^b / (1 - z^b), it is (theta + k)(c E) + sum
    (e + 1) b z^b (c E) / (1 - z^b): one pass by E and one exact division
    per b."""
    top = len(c) - 1 + sum(den)
    ce = _times_factors(c, dict.fromkeys(den, 1), top)
    out = list(map(mul, range(k, k + top + 1), ce))
    for b, e in den.items():
        out[b:] = map(add, out[b:], map(mul, _div_factors(ce, {b: 1}, top + 1 - b), repeat((e + 1) * b)))
    return out


def _dn_sum(terms, alpha):
    """sum_j D_(m-1-j)/(m-1-j)! U_alpha(g_j) over the terms g_j = (numerator,
    {b: e}), j = 0..m-1, alpha > 0, as one U_alpha.  theta_t U_alpha =
    U_alpha theta_z / alpha and D_n/n! = prod_(i=1..n) (theta + i)/i make
    the sum U_alpha(S) / ((m-1)! alpha^(m-1)), S by Horner in integers: S =
    g_0, then S <- (theta_z + (n+1) alpha) S + (m-1)!/n! alpha^(m-1-n)
    g_(m-1-n) for n = m-2, ..., 0.  theta_z of g_j sits over g_(j+1)'s
    denominator, so every add is over one denominator; the last division
    must be exact, one floor-division pass checked by one multiply pass."""
    s, den = terms[0]
    m, scale = len(terms), 1
    for n in range(m - 2, -1, -1):
        s = _theta(s, den, (n + 1) * alpha)
        scale *= (n + 1) * alpha                # (m-1)!/n! alpha^(m-1-n)
        c, den = terms[m - 1 - n]
        s = list(map(add, s, map(mul, c, repeat(scale))))
    out = ua_transform(ZRationalFunction(dict(enumerate(s)), den), alpha)
    if m == 1:
        return out
    if (num := _div_exact(out.num.c, scale)) is None:
        raise RuntimeError("D_n sum not divisible by %d" % scale)
    return RationalFunction(num, out.den)


def _div_exact(c, k):
    """c / k coefficientwise, or None when k does not divide every
    coefficient: one floor-division pass and one multiply pass to check it."""
    q = list(map(floordiv, c, repeat(k)))
    return q if list(map(mul, q, repeat(k))) == c else None


# Terms of the series compared with the brute force counts, at most.
CHECK_DEPTH = 30

_MEMO = {}


def hilbert_series(rep):
    """Hilbert series of the invariant ring of rep, as num / factored den.

    Each piece is exact in integers, and the pieces are added pairwise in
    a balanced tree.  The sum is reduced, each trivial summand adds
    1/(1-t), and the result, 1/(1-t)^k for kV0 too, is checked against
    _check_functional_equation and brute force monomial counts up to
    min(CHECK_DEPTH, denominator degree); a mismatch raises
    SeriesConsistencyError, the zero rep ValueError.  Every call returns a
    fresh object; the memo keeps its own.
    """
    memo_key = (rep.degrees, rep.trivial_count)
    if memo_key not in _MEMO:
        _MEMO[memo_key] = _compute(rep)
    f = _MEMO[memo_key]
    return RationalFunction(f.num.c, f.den.factors)


def _compute(rep):
    mult_of = Counter(weight_system(rep).weights)
    weights, mults = list(mult_of), list(mult_of.values())
    pieces = []
    # weight 0 comes from an even V_d, d >= 2, with weight -2 too: each alpha = 0 term has
    # valuation > 0 in z, so U_0 of it is 0, and it builds no piece
    for alpha in (w for w in weights if w > 0):
        # times the factor 1 - z^2 of the integrand
        terms = [(_times_factors(zc, {2: 1}, len(zc) + 1), zden)
                 for zc, zden in _coeffs_for_index(weights, mults, weights.index(-alpha))]
        pieces.append(_dn_sum(terms, alpha))    # D_n before U_alpha, by Horner in theta
    while len(pieces) > 1:      # pairwise, so no operand is lifted by more than half the rest
        pieces = [f + g for f, g in zip(pieces[::2], pieces[1::2])] + pieces[len(pieces) // 2 * 2:]
    # reduce cancels best effort, over the gcd rule's wide denominator; no weight: the
    # integrand 1 - z^2 has constant term 1, and no piece
    total = pieces[0].reduce(over=wide_denominator(rep)) if pieces else RationalFunction([1])
    if rep.trivial_count:       # each trivial summand is one more 1/(1 - t)
        den = total.den.factors
        total = RationalFunction(total.num, den | {1: den.get(1, 0) + rep.trivial_count})
    _check_functional_equation(rep, total)
    depth = min(CHECK_DEPTH, total.den.degree)
    got = taylor_coeffs(total, depth + 1)
    want = oracle.truncated_series(rep, depth)
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise SeriesConsistencyError(rep, n, g, w)
    return total


def _check_functional_equation(rep, f):
    """H(1/t) = (-1)^d t^(-a) H(t), (d, a) = pole_and_a_invariant(rep), on
    every rep: for the series f = N / Q, N != 0 and N_j = s N_(deg Q + a - j),
    s = (-1)^d times the sign of Q(1/t).  Unlike the oracle prefix it reaches
    all of N, and it bounds deg N by deg Q + a <= deg Q."""
    c = f.num.c
    d, a = pole_and_a_invariant(rep)
    top = f.den.degree + a
    sign = (-1) ** (sum(f.den.factors.values()) + d)
    if not c:
        raise SeriesConsistencyError(rep, 0, 0, 1, "H(0) = 1")
    for j in range(max(len(c), top + 1)):
        got = c[j] if j < len(c) else 0
        mirror = sign * c[top - j] if 0 <= top - j < len(c) else 0
        if got != mirror:
            raise SeriesConsistencyError(rep, j, got, mirror, "the functional equation")
