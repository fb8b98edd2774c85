"""Laurent data of the invariant Hilbert series at t = 1.

For a nontrivial representation the series has a pole at t = 1 of order
dim - 3 (with a handful of small exceptions), and the first four Laurent
coefficients gamma0..gamma3 carry the asymptotics of the invariant ring.
Closed forms evaluate them as ratios of Schur polynomials at the positive
weights; reps outside their range fall back to expanding the series.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exactalg import laurent_at_one
from .repmodel import (FIRST_COEFF_EXCEPTIONS, GAMMA0_EXCEPTIONS, Representation,
                       classify_case, weight_system)
from .schur import power_sum, schur_eval
from .series import hilbert_series


@dataclass(frozen=True)
class GammaResult:
    """Laurent coefficients, pole order, a-invariant and how each was found."""

    rep: Representation
    gamma: tuple
    pole_order: int
    a_invariant: int
    methods: tuple
    case: str

    def __repr__(self):
        parts = ", ".join(str(g) for g in self.gamma)
        return "GammaResult(%s: [%s], pole=%d, a=%d)" % (
            self.rep, parts, self.pole_order, self.a_invariant)


def _staircase(top, npos):
    # (top, npos-2, npos-3, ..., 1, 0); the tail below the leading entry
    # is the staircase shared by every vector we evaluate.
    return (top,) + tuple(range(npos - 2, -1, -1))


def _rho_leading(npos):
    # Index vector for the gamma0 numerator.  Three copies of npos-3 on
    # top of the staircase; at npos = 2 the pattern degenerates to (-1,-1).
    if npos == 2:
        return (-1, -1)
    return (npos - 3,) * 3 + tuple(range(npos - 4, -1, -1))


def _schur_ratio(rho, ws):
    den = schur_eval(tuple(range(ws.npos - 1, -1, -1)), ws.a_vec)
    return Fraction(schur_eval(rho, ws.a_vec)) / den


def gamma0(rep):
    tag = classify_case(rep)
    if tag.in_gamma0_exceptions:
        raise ValueError("no closed gamma0 form for %s" % rep)
    ws = weight_system(rep)
    return ws.sigma * _schur_ratio(_rho_leading(ws.npos), ws)


def gamma1(rep):
    # Uniformly 3/2 of gamma0 wherever the closed form applies.
    return Fraction(3, 2) * gamma0(rep)


def gamma2(rep):
    tag = classify_case(rep)
    if tag.in_gamma0_exceptions or tag.in_gamma2_exceptions:
        raise ValueError("no closed gamma2 form for %s" % rep)
    ws = weight_system(rep)
    # Power sum over the full weight multiset, zeros and negatives included.
    theta_vals = [w for (_, _, w) in ws.theta]
    p2 = power_sum(theta_vals, 2)
    val = 42 * schur_eval(_rho_leading(ws.npos), ws.a_vec)
    val += schur_eval(_staircase(ws.npos - 6, ws.npos), ws.a_vec) * (p2 - 8)
    den = 24 * schur_eval(tuple(range(ws.npos - 1, -1, -1)), ws.a_vec)
    out = ws.sigma * Fraction(val, den)
    if tag.one_v1_rest_even:
        # The V1 summand contributes one extra term built from the even part
        # alone: drop the single positive V1 weight (first in lex order).
        sub = ws.a_vec[1:]
        c1 = ws.npos - 1
        extra = Fraction(schur_eval(_rho_leading(c1), sub),
                         4 * schur_eval(tuple(range(c1 - 1, -1, -1)), sub))
        out += extra
    return out


def gamma3(rep):
    tag = classify_case(rep)
    if tag.in_gamma0_exceptions:
        raise ValueError("no closed gamma3 form for %s" % rep)
    g0 = gamma0(rep)
    if tag.in_gamma2_exceptions:
        g2 = _series_gammas(rep)[2]
    else:
        g2 = gamma2(rep)
    return Fraction(5, 2) * (g2 - g0)


def a_invariant(rep):
    """Degree of the Hilbert series as a rational function.

    Equals -dim except for a few tiny reps where the series degenerates;
    those are read off the series directly.
    """
    if not rep.degrees:
        raise ValueError("a-invariant undefined for trivial representations")
    if rep.trivial_count:
        raise ValueError("a-invariant undefined with trivial summands")
    if rep.degrees in GAMMA0_EXCEPTIONS:
        return hilbert_series(rep).degree()
    return -rep.dim


def _series_gammas(rep, count=4):
    return laurent_at_one(hilbert_series(rep), count).coeffs


def gammas(rep):
    """All four Laurent coefficients, preferring closed forms."""
    tag = classify_case(rep)
    series = hilbert_series(rep)
    exp = laurent_at_one(series, 4)
    if tag.in_gamma0_exceptions:
        gamma = list(exp.coeffs)
        methods = ["SeriesFallback"] * 4
    else:
        g0 = gamma0(rep)
        g1 = gamma1(rep)
        if tag.in_gamma2_exceptions:
            g2 = exp.coeffs[2]
            m2 = "SeriesFallback"
        else:
            g2 = gamma2(rep)
            m2 = "ClosedForm"
        g3 = Fraction(5, 2) * (g2 - g0)
        gamma = [g0, g1, g2, g3]
        methods = ["ClosedForm", "ClosedForm", m2, "ClosedForm"]
    return GammaResult(rep, tuple(gamma), exp.pole_order, a_invariant(rep),
                       tuple(methods), tag.case)


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
    num = schur_eval(_staircase(ws.npos - 3, ws.npos), ws.a_vec)
    den = schur_eval(tuple(range(ws.npos - 1, -1, -1)), ws.a_vec)
    return Fraction(num, den)


def hilbert1893_gamma0(d):
    """Classical closed form for gamma0 of a single binary form of degree d."""
    if d < 5:
        raise ValueError("valid for degrees 5 and up")
    total = sum((-1) ** n * comb(d, n) * (Fraction(d, 2) - n) ** (d - 3)
                for n in range(d // 2 + 1))
    sign_factor = 3 - (-1) ** d
    return Fraction(-1, sign_factor * factorial(d)) * total


class PerturbedParams:
    """Weight parameters b moved off the integer weights.

    Values for the positive weights are chosen freely (pairwise distinct,
    positive); zero weights stay 0 and each negative weight is minus its
    mirror, matching the symmetry of the true weights.
    """

    __slots__ = ("rep", "ws", "values")

    def __init__(self, rep, ws, values):
        self.rep = rep
        self.ws = ws
        self.values = values  # {(k, i): Fraction}

    def positive_items(self):
        return [((k, i), self.values[(k, i)]) for (k, i, _) in self.ws.lam]

    def theta_items(self):
        return [((k, i), self.values[(k, i)]) for (k, i, _) in self.ws.theta]


def perturbed_params(rep, lam_values):
    ws = weight_system(rep)
    if len(lam_values) != len(ws.lam):
        raise ValueError("need %d values, got %d" % (len(ws.lam), len(lam_values)))
    vals = [Fraction(v) for v in lam_values]
    if any(v <= 0 for v in vals):
        raise ValueError("perturbed weights must stay positive")
    if len(set(vals)) != len(vals):
        raise ValueError("perturbed weights must be pairwise distinct")
    values = {}
    for (k, i, _), v in zip(ws.lam, vals):
        values[(k, i)] = v
    for k, i, w in ws.theta:
        if (k, i) in values:
            continue
        if w == 0:
            values[(k, i)] = Fraction(0)
        else:
            d = rep.degrees[k - 1]
            values[(k, i)] = -values[(k, d - i)]
    return PerturbedParams(rep, ws, values)


def random_params(rep, rng):
    ws = weight_system(rep)
    seen = set()
    vals = []
    while len(vals) < len(ws.lam):
        v = Fraction(rng.randint(1, 60), rng.randint(1, 16))
        if v in seen:
            continue
        seen.add(v)
        vals.append(v)
    return perturbed_params(rep, vals)


def sigma_sum_raw(which, exps, params):
    """Nested weight sums over the positive weights, straight from the
    definitions: outer index runs over the positives, inner indices over the
    remaining weights, denominator only from the outer index."""
    theta = params.theta_items()
    pos = params.positive_items()
    total = Fraction(0)
    if which == "R":
        (r,) = exps
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            total += b ** r / den
    elif which == "RS":
        r, s = exps
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            inner = sum(b2 ** s for key2, b2 in theta if key2 != key)
            total += b ** r * inner / den
    elif which == "RST":
        r, s, t = exps
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            inner = Fraction(0)
            for key2, b2 in theta:
                if key2 == key:
                    continue
                for key3, b3 in theta:
                    if key3 == key or key3 == key2:
                        continue
                    inner += b2 ** s * b3 ** t
            total += b ** r * inner / den
    elif which == "RSTU":
        r, s, t, u = exps
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            inner = Fraction(0)
            for key2, b2 in theta:
                if key2 == key:
                    continue
                for key3, b3 in theta:
                    if key3 == key or key3 == key2:
                        continue
                    for key4, b4 in theta:
                        if key4 in (key, key2, key3):
                            continue
                        inner += b2 ** s * b3 ** t * b4 ** u
            total += b ** r * inner / den
    else:
        raise ValueError("unknown sum kind %r" % which)
    return total


def sigma_sum_schur(which, exps, params):
    """Same sums rewritten through Schur polynomials in the positive values."""
    ws = params.ws
    blam = [params.values[(k, i)] for (k, i, _) in ws.lam]
    theta_vals = [params.values[(k, i)] for (k, i, _) in ws.theta]
    npos = ws.npos
    shift = ws.neven + npos  # subtracted from every exponent below

    def s(top):
        return Fraction(schur_eval(_staircase(top, npos), blam))

    def p(k):
        return power_sum(theta_vals, k)

    den = 2 * schur_eval(tuple(range(npos - 1, -1, -1)), blam)
    if which == "R":
        (r,) = exps
        return s(r - shift) / den
    if which == "RS":
        r, sx = exps
        return (p(sx) * s(r - shift) - s(r + sx - shift)) / den
    if which == "RST":
        r, sx, t = exps
        val = (p(sx) * p(t) - p(sx + t)) * s(r - shift)
        val -= p(t) * s(r + sx - shift)
        val -= p(sx) * s(r + t - shift)
        val += 2 * s(r + sx + t - shift)
        return val / den
    if which == "RSTU":
        r, sx, t, u = exps
        val = (2 * p(sx + t + u) - p(sx) * p(t + u) - p(t) * p(sx + u)
               - p(u) * p(sx + t) + p(sx) * p(t) * p(u)) * s(r - shift)
        val += (p(t + u) - p(t) * p(u)) * s(r + sx - shift)
        val += (p(sx + u) - p(sx) * p(u)) * s(r + t - shift)
        val += (p(sx + t) - p(sx) * p(t)) * s(r + u - shift)
        val += 2 * p(u) * s(r + sx + t - shift)
        val += 2 * p(t) * s(r + sx + u - shift)
        val += 2 * p(sx) * s(r + t + u - shift)
        val -= 6 * s(r + sx + t + u - shift)
        return val / den
    raise ValueError("unknown sum kind %r" % which)


def gamma_raw(order, params, tag=None):
    """gamma0..gamma2 evaluated directly from the perturbed weight sums,
    before any Schur rewriting.  Test oracle for the closed forms."""
    rep = params.rep
    ws = params.ws
    if tag is None:
        tag = classify_case(rep)
    theta = params.theta_items()
    pos = params.positive_items()
    dim = ws.dim
    sigma = ws.sigma
    total = Fraction(0)
    if order == 0:
        theta_sum = sum(b for _, b in theta)
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            total += b ** (dim - 4) * (2 * b - 2 - theta_sum) / den
        return sigma * total
    if order == 1:
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            acc = Fraction(2, 3) * (b * b - 3 * b + 2)
            for key2, b2 in theta:
                if key2 == key:
                    continue
                rest = sum(b3 for key3, b3 in theta if key3 not in (key, key2))
                acc += b2 * (b2 - 5 * b + 6 + 3 * rest) / 6
            total += b ** (dim - 5) * acc / den
        total *= sigma
        if tag.one_v1_rest_even:
            total += _one_v1_correction(order, params)
        return total
    if order == 2:
        for key, b in pos:
            den = Fraction(1)
            for key2, b2 in theta:
                if key2 != key:
                    den *= b - b2
            acc = 12 * b ** 3 - 44 * b * b + 48 * b - 16
            for key2, b2 in theta:
                if key2 == key:
                    continue
                term2 = -16 * b * b + 32 * b - 16 - 4 * b2 + 4 * b * b2
                for key3, b3 in theta:
                    if key3 in (key, key2):
                        continue
                    term3 = 7 * b - 6 - 2 * b2
                    rest = sum(b4 for key4, b4 in theta
                               if key4 not in (key, key2, key3))
                    term2 += b3 * (term3 - rest)
                acc += b2 * term2
            total += b ** (dim - 6) * acc / (24 * den)
        total *= sigma
        if tag.one_v1_rest_even:
            total += _one_v1_correction(order, params)
        return total
    raise ValueError("raw forms cover orders 0..2")


def _one_v1_correction(order, params):
    # Extra terms when the rep is V1 plus even summands: the sum runs over
    # positives outside the V1 pair, with both V1 weights struck from the
    # product as well.
    rep = params.rep
    ws = params.ws
    dim = ws.dim
    theta = params.theta_items()
    v1_keys = {(1, 0), (1, 1)}
    b10 = params.values[(1, 0)]
    b11 = params.values[(1, 1)]
    total = Fraction(0)
    for k, i, _ in ws.lam:
        key = (k, i)
        if key in v1_keys:
            continue
        b = params.values[key]
        den = Fraction(1)
        rest = Fraction(0)
        for key2, b2 in theta:
            if key2 == key or key2 in v1_keys:
                continue
            den *= b - b2
            rest += b2
        if order == 1:
            total += b ** (dim - 5) / (2 * den)
        else:
            acc = 3 * b - b10 - b11 - 2 - rest
            total += b ** (dim - 6) * acc / (4 * den)
    return total
