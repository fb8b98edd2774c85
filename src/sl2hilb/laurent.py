"""Laurent data of the invariant Hilbert series at t = 1.

For a nontrivial representation the series has a pole at t = 1 of order d
(repmodel.pole_and_a_invariant), and its first four Laurent coefficients
gamma0..gamma3, which `gammas` finds together and gamma0..gamma3 read, carry
the asymptotics of the invariant ring.  Closed forms evaluate them as Schur
polynomial ratios at the positive weights, each one divided-difference weight
sum (`schur.delta_ratio`, O(n^2) in the n positive weights, no determinant);
reps outside their range fall back to expanding the series, built from a few
oracle counts.  Jacobi-Trudi determinants (`schur.schur_eval`) remain only in
`sigma_sum_schur`, the Schur-side test oracle for the raw weight sums.
"""

from collections import defaultdict, namedtuple
from fractions import Fraction
from math import comb, factorial

from .exactalg import RationalFunction, _times_factors, laurent_at_one
from .oracle import SeriesConsistencyError, truncated_series
from .repmodel import (FIRST_COEFF_EXCEPTIONS, capped_denominator, classify_case,
                       pole_and_a_invariant, weight_system)
from .schur import _scale_to_integers, delta_ratio, power_sum, schur_delta, schur_eval
from .series import hilbert_series  # unused: perfbench traces this binding by name


GammaResult = namedtuple("GammaResult", "rep gamma pole_order a_invariant methods")
GammaResult.__doc__ = "Laurent coefficients, pole order, a-invariant and how each was found."


def _closed(rep, i):
    res = gammas(rep)
    if res.methods[i] != "ClosedForm":
        raise ValueError("no closed gamma%d form for %s" % (i, rep))
    return res.gamma[i]


def gamma0(rep):
    return _closed(rep, 0)


def gamma1(rep):
    return _closed(rep, 1)


def gamma2(rep):
    return _closed(rep, 2)


def gamma3(rep):
    return _closed(rep, 3)


def a_invariant(rep):
    """Degree of the Hilbert series as a rational function, from
    pole_and_a_invariant; like gammas, a ValueError for a trivial summand."""
    classify_case(rep)
    return pole_and_a_invariant(rep)[1]


def _series_from_counts(rep):
    """H = N / D, D = capped_denominator(rep), from the counts to degree
    top // 2 times D and the functional equation N_j = (-1)^(d + sum e)
    N_(top - j), top = deg D + a; the count one past the half must match."""
    (d, a), den = pole_and_a_invariant(rep), capped_denominator(rep)
    top = sum(m * e for m, e in den.items()) + a
    half = max(top, -1) // 2    # top < 0: no numerator, so the check below fails
    low = _times_factors(truncated_series(rep, half + 1), den, half + 1)
    sign = (-1) ** (d + sum(den.values()))
    num = low[:half + 1] + [sign * low[top - j] for j in range(half + 1, top + 1)]
    if low[half + 1] != (mirror := num[half + 1] if half < top else 0):
        raise SeriesConsistencyError(rep, half + 1, low[half + 1], mirror, "its mirror")
    return RationalFunction(num, den)


def _coefficients(rep, tag):
    """(gamma0..gamma3, methods); SeriesFallback expands H, built from the counts,
    which must have the pole order d and agree with the closed forms beside it."""
    if tag.in_gamma0_exceptions or tag.in_gamma2_exceptions:
        exp = laurent_at_one(_series_from_counts(rep), 4)
        if exp.pole_order != (d := pole_and_a_invariant(rep)[0]):
            raise SeriesConsistencyError(rep, 0, exp.pole_order, d, "the pole order at t = 1")
        if tag.in_gamma0_exceptions:
            return exp.coeffs, ("SeriesFallback",) * 4
    ws = weight_system(rep)
    # gamma0 = -sigma s_rho0 / s_delta, rho0 = (n-3, n-3, n-3, n-4, ..., 0): rho0 + delta
    # is 2 delta with 2n-2 replaced by 2n-5, one swap away from sorted
    r0, r2 = delta_ratio((2 * ws.npos - 5, 2 * ws.npos - 7), ws.a_vec)
    g0 = -ws.sigma * r0
    if tag.in_gamma2_exceptions:
        g2, m2 = exp.coeffs[2], "SeriesFallback"
    else:
        # r2 = s_rho / s_delta for rho = (n - 6, n - 2, ..., 1, 0); 7/4 gamma0 carries
        # its s_rho term.  The power sum runs over all weights, zeros and negatives too.
        p2 = power_sum(ws.weights, 2)
        g2, m2 = Fraction(7, 4) * g0 + ws.sigma * Fraction(p2 - 8, 24) * r2, "ClosedForm"
        if tag.one_v1_rest_even:
            # the V1 summand's extra term: the gamma0 ratio over the even part, a_vec
            # without its single positive V1 weight (first in a_vec), n - 1 points
            g2 -= delta_ratio((2 * ws.npos - 7,), ws.a_vec[1:])[0] / 4
    gamma = (g0, Fraction(3, 2) * g0, g2, Fraction(5, 2) * (g2 - g0))
    if tag.in_gamma2_exceptions and exp.coeffs != gamma:
        i = next(i for i, (x, y) in enumerate(zip(exp.coeffs, gamma)) if x != y)
        raise SeriesConsistencyError(rep, i, exp.coeffs[i], gamma[i], "the closed form")
    return gamma, ("ClosedForm", "ClosedForm", m2, "ClosedForm")


_MEMO = {}


def gammas(rep):
    """The four Laurent coefficients, closed forms first, and pole_and_a_invariant(rep).

    Memoized per rep for the life of the process, with no bound, as
    hilbert_series is: a GammaResult holds only immutable values, so every
    call returns the same object.  A call that raises (trivial summands,
    the zero rep) leaves nothing behind."""
    memo_key = (rep.degrees, rep.trivial_count)
    res = _MEMO.get(memo_key)
    if res is None:
        gamma, methods = _coefficients(rep, classify_case(rep))
        res = _MEMO[memo_key] = GammaResult(rep, gamma, *pole_and_a_invariant(rep), methods)
    return res


def first_coeff_sum(rep):
    """Leading coefficient of the order dim-2 pole candidate.

    The weight sum that would sit in front of 1/(1-t)^(dim-2) vanishes for
    every rep except V1, V2 and 2V1, which is why the pole order drops to
    dim-3 in general.
    """
    if not rep.degrees or rep.trivial_count:
        raise ValueError("undefined for trivial representations")
    if rep.degrees in FIRST_COEFF_EXCEPTIONS:
        return FIRST_COEFF_EXCEPTIONS[rep.degrees]
    ws = weight_system(rep)
    # 2 * Sigma_{dim-3} collapses to a Schur vector with a repeated entry.
    return delta_ratio((2 * ws.npos - 4,), ws.a_vec)[0]


def hilbert1893_gamma0(d):
    """Classical closed form for gamma0 of a single binary form of degree d."""
    if d < 5:
        raise ValueError("valid for degrees 5 and up")
    total = sum((-1) ** n * comb(d, n) * (Fraction(d, 2) - n) ** (d - 3)
                for n in range(d // 2 + 1))
    sign_factor = 3 - (-1) ** d
    return Fraction(-1, sign_factor * factorial(d)) * total


PerturbedParams = namedtuple("PerturbedParams", "rep values")
PerturbedParams.__doc__ = """Weight parameters b moved off the integer weights.

values runs parallel to weight_system(rep).weights.  Values for the
positive weights are chosen freely (pairwise distinct, positive); zero
weights stay 0 and each negative weight is minus its mirror in the same
summand, matching the symmetry of the true weights.
"""


def perturbed_params(rep, lam_values):
    ws = weight_system(rep)
    if len(lam_values) != ws.npos:
        raise ValueError("need %d values, got %d" % (ws.npos, len(lam_values)))
    vals = [Fraction(v) for v in lam_values]
    if any(v <= 0 for v in vals):
        raise ValueError("perturbed weights must stay positive")
    if len(set(vals)) != len(vals):
        raise ValueError("perturbed weights must be pairwise distinct")
    values = []
    for d in rep.degrees:
        pos, vals = vals[:(d + 1) // 2], vals[(d + 1) // 2:]
        values += [-v for v in reversed(pos)] + [Fraction(0)] * (d % 2 == 0) + pos
    return PerturbedParams(rep, tuple(values))


def random_params(rep, rng):
    npos = weight_system(rep).npos
    seen = set()
    vals = []
    while len(vals) < npos:
        v = Fraction(rng.randint(1, 60), rng.randint(1, 16))
        if v in seen:
            continue
        seen.add(v)
        vals.append(v)
    return perturbed_params(rep, vals)


def _outer(values, skip=()):
    """Each positive value b outside the positions in skip, with the product
    of b - b' and the list of the other values b', both over the values
    outside skip."""
    kept = [(i, b) for i, b in enumerate(values) if i not in skip]
    for i, b in kept:
        if b <= 0:
            continue
        others = [b2 for j, b2 in kept if j != i]
        den = 1
        for b2 in others:
            den *= b - b2
        yield b, den, others


def _distinct_sum(exps, values):
    # Sum of prod(x_j ** e_j) over ordered tuples of distinct entries of values.
    if not exps:
        return 1
    return sum(b ** exps[0] * _distinct_sum(exps[1:], values[:i] + values[i + 1:])
               for i, b in enumerate(values))


def sigma_sum_raw(exps, params):
    """Nested weight sum for exps = (r, s1, ..., sm), straight from the
    definition: the outer weight b runs over the positives with b ** r over
    the product of b - b', the inner ones over ordered tuples of distinct
    remaining weights with exponents s1..sm.  The sum is homogeneous of
    degree r + s1 + ... + sm - (n - 1) in the n values, so it runs on the
    values scaled to integers (b ** r as a Fraction: r < 0 for the smallest
    reps) and the scale is divided out once."""
    r, inner = exps[0], exps[1:]
    values, scale = _scale_to_integers(params.values)
    total = sum((Fraction(b) ** r * _distinct_sum(inner, others) / den
                 for b, den, others in _outer(values)), Fraction(0))
    return total / Fraction(scale) ** (r + sum(inner) - len(values) + 1)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def sigma_sum_schur(exps, params):
    """Same sums rewritten through Schur polynomials in the positive values.

    The inner sum over distinct weights is the Moebius sum over the set
    partitions of s1..sm; a block with exponent sum k is the power sum over
    the weights other than b, p_k(values) - b^k.  Expanding in b leaves sums
    of b^n over the product of b - b', each a Schur polynomial ratio.
    """
    blam = [b for b in params.values if b > 0]
    npos = len(blam)
    # subtracted from every exponent below: npos plus the zero count, neven
    shift = npos + params.values.count(0)
    r, inner = exps[0], exps[1:]
    coeffs = defaultdict(Fraction)  # power of b -> coefficient
    for blocks in _set_partitions(inner):
        term = {0: Fraction(1)}
        for block in blocks:
            k = sum(block)
            pk = power_sum(params.values, k)
            mu = (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            nxt = defaultdict(Fraction)
            for e, c in term.items():
                nxt[e] += mu * c * pk
                nxt[e + k] -= mu * c
            term = nxt
        for e, c in term.items():
            coeffs[e] += c
    # the staircase (r + e - shift, npos - 2, npos - 3, ..., 1, 0)
    tail = tuple(range(npos - 2, -1, -1))
    val = sum((c * schur_eval((r + e - shift,) + tail, blam)
               for e, c in coeffs.items() if c), Fraction(0))
    return val / (2 * schur_delta(blam))
