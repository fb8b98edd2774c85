"""Reference implementations that only the tests use.

The package packs the oracle's weight counts into big-int rows and runs
its strided passes as slice operations; the plain loops here are the
references those versions must equal exactly.  The bialternant quotient
is an independent cross check of the Schur evaluations.
"""

from fractions import Fraction
from math import prod

from sl2hilb.oracle import truncated_series
from sl2hilb.schur import _scale_to_integers, bareiss_det


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
