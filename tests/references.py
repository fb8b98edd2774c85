"""Reference implementations that only the tests use.

The package packs the oracle's weight counts into big-int rows and runs
its strided passes as slice operations; the plain loops here are the
references those versions must equal exactly.  The bialternant quotient
is an independent cross check of the Schur evaluations, and the raw
weight sums gamma_raw one of the closed forms.  multigraded_dim refines
the oracle's counts by summand, and eval_at evaluates a Polynomial.
ua_transform_single_stage is U_alpha with every z-factor completed to a
series in z^alpha at once, and reduce_multiplied_up the cancel over a
wider denominator with the widened numerator built: the series pipeline
takes U_alpha one prime at a time and reduces without that numerator.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, prod

from sl2hilb.exactalg import FactoredDenominator, Polynomial, RationalFunction
from sl2hilb.laurent import _outer
from sl2hilb.oracle import _packed_rows, truncated_series
from sl2hilb.repmodel import classify_case, weight_system
from sl2hilb.schur import _scale_to_integers, bareiss_det


def eval_at(p, x):
    """The Polynomial p at x, by Horner's rule."""
    acc = 0
    for v in reversed(p.c):
        acc = acc * x + v
    return acc


def weight_counts_walk(ws, max_degree):
    """(rows, offset): rows[n][w + offset] = number of degree n monomials of
    weight w in variables of weights ws, by a coin-change walk."""
    offset = max_degree * max(max(abs(w) for w in ws), 1)
    width = 2 * offset + 1
    rows = [[0] * width for _ in range(max_degree + 1)]
    rows[0][offset] = 1
    for a in ws:
        # in place: rows[n] picks up rows[n-1][w - a] with the new
        # variable already admitted in row n-1 (geometric factor)
        for n in range(1, max_degree + 1):
            cur = rows[n]
            prev = rows[n - 1]
            if a >= 0:
                for i in range(width - 1, a - 1, -1):
                    cur[i] += prev[i - a]
            else:
                for i in range(width + a):
                    cur[i] += prev[i - a]
    return rows, offset


def _variable_weights(rep):
    ws = [2 * i - d for d in rep.degrees for i in range(d + 1)]
    return ws + [0] * rep.trivial_count


def truncated_series_walk(rep, max_degree):
    rows, offset = weight_counts_walk(_variable_weights(rep), max_degree)
    out = []
    for row in rows:
        two = row[offset + 2] if offset + 2 < len(row) else 0
        out.append(row[offset] - two)
    return out


def multigraded_dim_walk(rep, degs):
    total = {0: 1}
    for d, p in zip(rep.degrees, degs):
        rows, offset = weight_counts_walk([2 * i - d for i in range(d + 1)], p)
        dist = {j - offset: v for j, v in enumerate(rows[p]) if v}
        merged = {}
        for w1, c1 in total.items():
            for w2, c2 in dist.items():
                merged[w1 + w2] = merged.get(w1 + w2, 0) + c1 * c2
        total = merged
    return total.get(0, 0) - total.get(2, 0)


def times_factors_loop(c, factors, cutoff):
    out = list(c[:cutoff + 1]) + [0] * (cutoff + 1 - len(c))
    for m, e in factors.items():
        for _ in range(e):
            for i in range(cutoff, m - 1, -1):
                out[i] -= out[i - m]
    return out


def div_factors_loop(c, factors, count):
    out = list(c[:count]) + [0] * (count - len(c))
    for m, e in factors.items():
        for _ in range(e):
            for i in range(m, count):
                out[i] += out[i - m]
    return out


def ua_transform_single_stage(f, a):
    """U_a of the z-series f, a >= 1: in ascending b, each factor
    (1 - z^b)^e, q = b/gcd(a, b), is completed by the conjugates
    ((1 - z^(aq)) / (1 - z^b))^e, then every a-th coefficient is kept over
    prod (1 - t^q)^e."""
    if f.is_zero:
        return RationalFunction(0)
    top = max(f.num)
    c, den_t = [f.num.get(e, 0) for e in range(top + 1)], {}
    for b, e in sorted(f.den.factors.items()):
        q = b // gcd(a, b)
        den_t[q] = den_t.get(q, 0) + e
        if a * q != b:
            n = len(c) + (a * q - b) * e
            c = div_factors_loop(times_factors_loop(c, {a * q: e}, n + b * e - 1), {b: e}, n + b * e)
            if any(c[n:]):
                raise RuntimeError("conjugate product not divisible in U_%d" % a)
            c = c[:n]
    return RationalFunction(Polynomial(c[::a]), den_t)


def reduce_multiplied_up(f, over):
    """f rewritten over `over`, a multiple {m: e} of its denominator, then
    in ascending m as many 1 - t^m cancelled as divide what is left."""
    rest = {m: e - f.den.factors.get(m, 0) for m, e in over.items()}
    c = Polynomial(times_factors_loop(f.num.c, rest,
                                      f.num.degree + sum(m * e for m, e in rest.items()))).c
    c = [int(v) if isinstance(v, Fraction) and v.denominator == 1 else v for v in c]
    factors = dict(over)
    for m in sorted(factors):
        while factors[m] and c:
            deg = len(c) - 1
            s = div_factors_loop(c, {m: 1}, deg + 1)
            if any(s[max(deg - m + 1, 0):]):
                break
            c = s[:deg - m + 1]
            factors[m] -= 1
    return RationalFunction(Polynomial(c), FactoredDenominator(factors))


def dim_invariants(rep, n):
    """Dimension of the degree n invariants."""
    return truncated_series(rep, n)[n]


def bialternant_eval(rho, points):
    """s_rho as det(x_i^(delta+rho)_j) / det(x_i^delta_j); distinct points only.

    Independent of the Jacobi-Trudi route; used as a cross check.
    """
    n = len(rho)
    if len(points) != n:
        raise ValueError("rho and points must have the same length")
    if len(set(points)) != n:
        raise ValueError("bialternant needs distinct points")
    exps = [rho[j] + n - 1 - j for j in range(n)]
    shift = -min(exps) if exps and min(exps) < 0 else 0
    if shift and any(p == 0 for p in points):
        raise ValueError("negative exponents need nonzero points")
    ints, scale = _scale_to_integers(points)
    top = bareiss_det([[x ** (e + shift) for e in exps] for x in ints])
    vand = prod(ints[i] - ints[j] for i in range(n) for j in range(i + 1, n))
    value = Fraction(top, vand)
    if shift:
        value /= Fraction(prod(ints)) ** shift
    # undo the clearing of denominators: s_rho is homogeneous of degree |rho|
    return value / Fraction(scale) ** sum(rho)


def multigraded_dim(rep, degs):
    """Invariant dimension at fixed degree degs[k] in the k-th summand.

    Trivial summands are excluded from the grading; degs matches
    rep.degrees position by position.
    """
    if len(degs) != len(rep.degrees):
        raise ValueError("need one degree per nontrivial summand")
    if any(p < 0 for p in degs):
        raise ValueError("degrees must be nonnegative")
    # weight distribution of each summand at its exact degree, then convolve
    total = Counter({0: 1})
    for d, p in zip(rep.degrees, degs):
        rows, m, width = _packed_rows([2 * i - d for i in range(d + 1)], p)
        mask = (1 << width) - 1
        dist = {k - p * m: v for k in range(2 * p * m + 1)
                if (v := (rows[p] >> k * width) & mask)}
        merged = Counter()
        for w1, c1 in total.items():
            for w2, c2 in dist.items():
                merged[w1 + w2] += c1 * c2
        total = merged
    return total[0] - total[2]


def _raw_numerator(order, b, others):
    # gamma_<order> summand at outer weight b, without b ** (dim - 4 - order).
    rest = sum(others)
    if order == 0:
        return 2 * b - 2 - (b + rest)
    if order == 1:
        acc = Fraction(2, 3) * (b * b - 3 * b + 2)
        for b2 in others:
            acc += b2 * (b2 - 5 * b + 6 + 3 * (rest - b2)) / 6
        return acc
    acc = 12 * b ** 3 - 44 * b * b + 48 * b - 16
    for i, b2 in enumerate(others):
        term2 = -16 * b * b + 32 * b - 16 - 4 * b2 + 4 * b * b2
        for j, b3 in enumerate(others):
            if j != i:
                term2 += b3 * (7 * b - 6 - 2 * b2 - (rest - b2 - b3))
        acc += b2 * term2
    return acc / 24


def gamma_raw(order, params):
    """gamma0..gamma2 evaluated directly from the perturbed weight sums,
    before any Schur rewriting.  Test oracle for the closed forms; the raw
    order-1 form fails at V1+V2 (1/2 against gamma1 = 1/4 at its weights)."""
    if order not in (0, 1, 2):
        raise ValueError("raw forms cover orders 0..2")
    power = params.rep.dim - 4 - order
    sigma = weight_system(params.rep).sigma
    total = sigma * sum((b ** power * _raw_numerator(order, b, others) / den
                         for b, den, others in _outer(params.values)), Fraction(0))
    if order == 2 and classify_case(params.rep).one_v1_rest_even:
        # V1 plus even summands adds a sum over the positives outside the V1
        # pair, with both V1 weights struck from the product as well.  At
        # order 1 that sum, of b^(dim-5) / (2 prod(b - b')), is half the full
        # divided difference of x^(|S'|-3) over the symmetric nonzero set S'
        # once the zero weights are divided out: 0 whenever |S'| >= 4.
        # Degrees sort ascending, so the V1 pair sits at positions 0 and 1.
        # The raw form also subtracts the sum of that pair, which is 0: the
        # pair is (-b1, b1) like every mirrored pair of values.
        for b, den, others in _outer(params.values, {0, 1}):
            total += b ** power * ((3 * b - 2 - sum(others)) / 4) / den
    return total
