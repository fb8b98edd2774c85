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
to_rf reads a z-side record as a RationalFunction.
wide_per_piece is the denominator series._compute reduced over when it
built it piece by piece, with the pieces; the package reads it off the
weights (repmodel.wide_denominator) before any piece exists.
dn_sum_per_term is the D_n step as one U_alpha and one D_n/n! per
partial-fraction term; the package applies D_n before U_alpha, by Horner
in theta on the z side, with one U_alpha per weight.
coeffs_for_index_quadratic is the partial fraction step with one pass per
weight distance over all the other factors for each log-derivative term,
where the package sums the distances' series and makes one pass.
coeffs_for_index_div_factors builds each distance's series by e running
sums per residue class (_div_factors) and divides by j with a % and a //
per coefficient, where the package adds one binomial row per order at each
distance's stride and divides by a floor-division pass checked by a
multiply pass.
parse_rep_scanner is the character scanner that parse_rep's one regular
expression replaced; both must accept the same specs and report the same
errors.
laurent_at_one_fractions and power_sum_fractions are the Laurent layer as
it ran in Fractions, one per coefficient step and per point; the package
runs both on integers and builds one Fraction per returned value.
poly_add, poly_mul, poly_derivative and poly_reversed are the arithmetic
Polynomial had, and rf_add_poly, rf_derivative_poly, rf_at_reciprocal_poly
and rf_equal_poly the RationalFunction methods as they ran on it; the
package does that arithmetic on coefficient lists.
functional_equation_loop is check_series's functional equation one degree
at a time; the package compares the numerator with its mirror as two lists
over the degrees of N only and looks for the failing degree only when they
differ.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd, prod
from operator import add, sub

from sl2hilb.exactalg import (FactoredDenominator, LaurentExpansion, Polynomial,
                              RationalFunction, _div_factors, _mul_trunc, _normalize,
                              _times_factors)
from sl2hilb.laurent import _outer
from sl2hilb.oracle import _packed_rows, truncated_series
from sl2hilb.repmodel import (MAX_DIM, RepParseError, Representation, classify_case,
                              mirror_rule, weight_system)
from sl2hilb.schur import _scale_to_integers, bareiss_det
from sl2hilb.series import ZRationalFunction, _coeffs_for_index, _dn_sum, dn_apply, ua_transform


def eval_at(p, x):
    """The Polynomial p at x, by Horner's rule."""
    acc = 0
    for v in reversed(p.c):
        acc = acc * x + v
    return acc


def poly_add(p, q):
    a, b = p.c, q.c
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return Polynomial(out)


def poly_mul(p, q):
    return Polynomial(_mul_trunc(p.c, q.c, len(p.c) + len(q.c) - 2))


def poly_derivative(p):
    return Polynomial([i * v for i, v in enumerate(p.c)][1:])


def poly_reversed(p):
    """t^degree * p(1/t)."""
    return Polynomial(list(reversed(p.c)))


def _times_rest_poly(p, factors, part):
    # p * prod (1 - t^m)^(factors[m] - part[m]); part divides factors
    rest = {m: e - part.get(m, 0) for m, e in factors.items()}
    return Polynomial(times_factors_loop(p.c, rest, p.degree + sum(m * e for m, e in rest.items())))


def rf_add_poly(f, g):
    fs, fo = f.den.factors, g.den.factors
    common = {m: max(fs.get(m, 0), fo.get(m, 0)) for m in set(fs) | set(fo)}
    return RationalFunction(poly_add(_times_rest_poly(f.num, common, fs),
                                     _times_rest_poly(g.num, common, fo)), common)


def rf_derivative_poly(f):
    factors = f.den.factors
    if not factors:
        return RationalFunction(poly_derivative(f.num))
    once = dict.fromkeys(factors, 1)
    top = _times_rest_poly(poly_derivative(f.num), once, {})
    for m, e in factors.items():
        top = poly_add(top, _times_rest_poly(f.num, once, {m: 1}).shifted(m - 1) * (e * m))
    return RationalFunction(top, {m: e + 1 for m, e in factors.items()})


def rf_at_reciprocal_poly(f):
    p, q = f.num, f.den
    if not p.c:
        return RationalFunction(p, q)
    shift = q.degree - p.degree
    if shift < 0:
        raise ValueError("degree must be <= 0")
    sign = (-1) ** sum(q.factors.values())
    return RationalFunction(poly_reversed(p).shifted(shift) * sign, q)


def rf_equal_poly(f, g):
    fs, gs = f.den.factors, g.den.factors
    shared = {m: min(fs.get(m, 0), gs.get(m, 0)) for m in set(fs) & set(gs)}
    return _times_rest_poly(f.num, gs, shared).c == _times_rest_poly(g.num, fs, shared).c


def functional_equation_loop(rep, f):
    """The first (degree, got, want) where N_j = sign N_(top - j), (top, sign)
    = mirror_rule(rep, Q), fails for f = N / Q, N zero past its length; None
    if it holds."""
    c = f.num.c or [0]
    top, sign = mirror_rule(rep, f.den.factors)
    for j in range(max(len(c), top + 1)):
        got = c[j] if j < len(c) else 0
        mirror = sign * c[top - j] if 0 <= top - j < len(c) else 0
        if got != mirror:
            return j, got, mirror
    return None


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
    if not any(f.num.values()):
        return RationalFunction()
    top = max(f.num)
    c, den_t = [f.num.get(e, 0) for e in range(top + 1)], {}
    for b, e in sorted(f.den.items()):
        q = b // gcd(a, b)
        den_t[q] = den_t.get(q, 0) + e
        if a * q != b:
            n = len(c) + (a * q - b) * e
            c = div_factors_loop(times_factors_loop(c, {a * q: e}, n + b * e - 1), {b: e}, n + b * e)
            if any(c[n:]):
                raise RuntimeError("conjugate product not divisible in U_%d" % a)
            c = c[:n]
    return RationalFunction(Polynomial(c[::a]), den_t)


def coeffs_for_index_quadratic(weights, mults, i):
    """series._coeffs_for_index with each log-derivative numerator q_(e-1)
    summed as top_c prod_(b != c) (1 - z^b)^e over the distances c: one
    pass per distance over all the other factors, quadratic in their number."""
    wi, mi = weights[i], mults[i]
    below, above = Counter(), Counter()
    for w, m in zip(weights, mults):
        if w < wi:
            below[wi - w] += m
        elif w > wi:
            above[w - wi] += m
    den = below + above
    span = sum(den)
    low = sum(c * m for c, m in below.items())
    nums = [[0] * low + [(-1) ** sum(below.values())]]
    logs = []
    for e in range(1, mi):
        q = [0] * (e * span + 1)
        for c in den:
            top = [below[c]] + [0] * (c * e - 1) + [(-1) ** e * above[c]]
            rest = times_factors_loop(top, {b: e for b in den if b != c}, e * span)
            q = [u + v for u, v in zip(q, rest)]
        logs.append(q)
    for j in range(1, mi):
        cutoff = low + j * span
        acc = [0] * (cutoff + 1)
        for m in range(j):
            acc = [u + v for u, v in zip(acc, _mul_trunc(nums[m], logs[j - 1 - m], cutoff))]
        if any(v % j for v in acc):
            raise RuntimeError("partial fraction numerator not divisible by %d" % j)
        nums.append([v // j for v in acc])
    return [(p, {c: den[c] + j for c in den}) for j, p in enumerate(nums)]


def coeffs_for_index_div_factors(weights, mults, i):
    """series._coeffs_for_index with each distance's series top_c / (1 -
    z^c)^e divided out by _div_factors, e passes of running sums."""
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
    for e in range(1, mi):
        q = [0] * (e * span + 1)            # q_(e-1) / E^e as a series, to degree e span
        for c in den:
            top = [below[c]] + [0] * (c * e - 1) + [(-1) ** e * above[c]]
            q = list(map(add, q, _div_factors(top, {c: e}, e * span + 1)))
        logs.append(_times_factors(q, dict.fromkeys(den, e), e * span))
    for j in range(1, mi):
        cutoff = low + j * span
        acc = [0] * (cutoff + 1)
        for m in range(j):
            acc = list(map(add, acc, _mul_trunc(nums[m], logs[j - 1 - m], cutoff)))
        if any(v % j for v in acc):
            raise RuntimeError("partial fraction numerator not divisible by %d" % j)
        nums.append([v // j for v in acc])
    return [(p, {c: den[c] + j for c in den}) for j, p in enumerate(nums)]


def dn_sum_per_term(terms, alpha):
    """sum_j D_(m-1-j)/(m-1-j)! U_alpha(g_j) over the terms g_j = (numerator
    list, {b: e}), j = 0..m-1, one ua_transform and one dn_apply per term."""
    m, total = len(terms), RationalFunction()
    for j, (c, den) in enumerate(terms):
        total = total + dn_apply(ua_transform(ZRationalFunction(dict(enumerate(c)), den), alpha),
                                 m - 1 - j)
    return total


def wide_per_piece(rep):
    """(wide, pieces): the pieces of series._compute, and the maximum over
    them of each piece's tight denominator raised by the gcd rule on its
    last z-term's factors, an empty piece skipped, with wide[1] at least
    the multiplicity of weight 0."""
    mult_of = Counter(weight_system(rep).weights)
    weights, mults = list(mult_of), list(mult_of.values())
    pieces, wide = [], Counter()
    for alpha, mult in zip(weights, mults):
        if alpha == 0:
            wide[1] = max(wide[1], mult)
        if alpha <= 0:
            continue
        terms = [(_times_factors(zc, {2: 1}, len(zc) + 1), zden)
                 for zc, zden in _coeffs_for_index(weights, mults, weights.index(-alpha))]
        piece = _dn_sum(terms, alpha)
        rule = Counter(piece.den.factors)
        for b, e in terms[-1][1].items() if rule else ():
            rule[b // gcd(alpha, b)] += (gcd(alpha, b) - 1) * e
        wide |= rule
        pieces.append(piece)
    return dict(wide), pieces


def to_rf(f):
    """The ZRationalFunction f as a RationalFunction."""
    coeffs = [0] * (max(f.num, default=-1) + 1)
    for e, v in f.num.items():
        coeffs[e] = v
    return RationalFunction(Polynomial(coeffs), f.den)


def reduce_multiplied_up(f, over):
    """f rewritten over `over`, a multiple {m: e} of its denominator, then
    in ascending m as many 1 - t^m cancelled as divide what is left."""
    c = _times_rest_poly(f.num, over, f.den.factors).c
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


def laurent_at_one_fractions(f, count):
    """exactalg.laurent_at_one with the series division run in Fractions:
    c_n = (cur[val+n] - sum_j unit[j] c_(n-j)) / unit[0]."""
    if not f.num.c:
        raise ValueError("zero function has no Laurent expansion")
    zeros = sum(f.den.factors.values())
    cutoff = zeros + count
    cur = [0] * (cutoff + 1)
    for v in reversed(f.num.c):
        cur[1:] = map(sub, cur[1:], cur[:cutoff])
        cur[0] += v
    unit = [1] + [0] * cutoff
    for m, e in f.den.factors.items():
        um = [-comb(m, j + 1) * (-1) ** (j + 1) for j in range(min(m, cutoff + 1))]
        for _ in range(e):
            unit = _mul_trunc(unit, um, cutoff)
    val = 0
    while val <= cutoff and cur[val] == 0:
        val += 1
    if val > cutoff:
        return LaurentExpansion(0, (0,) * count)
    pole = zeros - val
    length = count if pole >= 0 else max(count + pole, 0)
    series = []
    for n in range(length):
        acc = cur[val + n] - sum(unit[j] * series[n - j] for j in range(1, n + 1))
        series.append(_normalize(Fraction(acc) / unit[0]))
    if pole >= 0:
        return LaurentExpansion(pole, tuple(series))
    return LaurentExpansion(0, tuple(([0] * min(-pole, count) + series)[:count]))


def power_sum_fractions(points, s):
    """schur.power_sum as a Fraction always: p_s over the points."""
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    return sum((Fraction(p) ** s for p in points), Fraction(0))


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
        for b, den, others in _outer(params.values[2:]):
            total += b ** power * ((3 * b - 2 - sum(others)) / 4) / den
    return total


def parse_rep_scanner(text):
    """Parse a rep spec: either 'V3+2V2' style terms or a '3,2,2' list.

    Multiplicities allow an optional '*': '2*V3' and '2V3' agree.  The
    letter V is case insensitive and whitespace is ignored.  Degree 0
    terms are recorded as trivial summands.  Specs of dimension above
    MAX_DIM are rejected.
    """
    if not isinstance(text, str):
        raise RepParseError("rep spec must be a string")
    stripped = [(idx, ch) for idx, ch in enumerate(text) if not ch.isspace()]
    if not stripped:
        raise RepParseError("empty rep spec", 0)
    if any(ch in "vV" for _, ch in stripped):
        return _parse_terms(stripped)
    return _parse_list(text, stripped)


def _split(stripped, sep):
    # Runs of (index, char) pairs between separators; empty runs are kept.
    chunks = [[]]
    for idx, ch in stripped:
        if ch == sep:
            chunks.append([])
        else:
            chunks[-1].append((idx, ch))
    return chunks


def _parse_list(text, stripped):
    degrees = []
    trivial = 0
    dim = 0
    pos_after = len(text)
    for chunk in _split(stripped, ","):
        if not chunk:
            raise RepParseError("expected a degree", pos_after)
        s = "".join(ch for _, ch in chunk)
        start = chunk[0][0]
        try:
            d = int(s)
        except ValueError:
            raise RepParseError("expected an integer degree, got %r" % s, start) from None
        if d < 0:
            raise RepParseError("negative degree %d" % d, start)
        dim = _add_dim(dim, 1, d, start)
        if d == 0:
            trivial += 1
        else:
            degrees.append(d)
    return Representation(tuple(degrees), trivial)


def _parse_terms(stripped):
    degrees = []
    trivial = 0
    dim = 0
    end_pos = stripped[-1][0] + 1
    for term in _split(stripped, "+"):
        mult, degree = _parse_term(term, end_pos)
        dim = _add_dim(dim, mult, degree, term[0][0])
        if degree == 0:
            trivial += mult
        else:
            degrees.extend([degree] * mult)
    return Representation(tuple(degrees), trivial)


def _add_dim(dim, mult, degree, position):
    dim += mult * (degree + 1)
    if dim > MAX_DIM:
        raise RepParseError("dimension exceeds %d" % MAX_DIM, position)
    return dim


def _parse_term(term, end_pos):
    if not term:
        raise RepParseError("empty term", end_pos)
    pos = 0
    n = len(term)

    def take_int():
        nonlocal pos
        start = pos
        while pos < n and term[pos][1].isdigit():
            pos += 1
        if pos == start:
            return None
        digits = "".join(ch for _, ch in term[start:pos])
        try:
            return int(digits)
        except ValueError:  # digits int() refuses, or too many of them
            raise RepParseError("bad integer", term[start][0]) from None

    mult = take_int()
    if pos < n and term[pos][1] == "*":
        if mult is None:
            raise RepParseError("'*' without a multiplicity", term[pos][0])
        pos += 1
    if mult is None:
        mult = 1
    elif mult == 0:
        raise RepParseError("zero multiplicity", term[0][0])
    if pos >= n or term[pos][1] not in "vV":
        where = term[pos][0] if pos < n else term[-1][0] + 1
        raise RepParseError("expected 'V'", where)
    pos += 1
    degree = take_int()
    if degree is None:
        where = term[pos][0] if pos < n else term[-1][0] + 1
        raise RepParseError("expected a degree after 'V'", where)
    if pos != n:
        raise RepParseError("trailing characters %r" % "".join(ch for _, ch in term[pos:]), term[pos][0])
    return mult, degree
