"""Schur function evaluation at explicit points, exponents allowed negative.

Generalized weight vectors rho are straightened through the alternant
relation A_{delta+rho}: sorting delta+rho descending contributes the
sign of the permutation, a repeated entry kills the term, and a common
negative shift c comes out as (x_1...x_n)^(-c).  Values are computed by
Jacobi-Trudi determinants in the complete homogeneous basis, which is
well defined at repeated points; the bialternant quotient serves as an
independent cross check at distinct points.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class StraightenedSchur:
    """sign * (x_1...x_n)^(-shift) * s_partition, or zero when sign == 0."""

    sign: int
    partition: tuple
    shift: int


def straighten(rho):
    n = len(rho)
    if n == 0:
        return StraightenedSchur(1, (), 0)
    v = [rho[i] + n - 1 - i for i in range(n)]
    if len(set(v)) != n:
        return StraightenedSchur(0, (), 0)
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] < v[j]:
                inversions += 1
    w = sorted(v, reverse=True)
    lam = [w[i] - (n - 1 - i) for i in range(n)]
    shift = -lam[-1] if lam[-1] < 0 else 0
    return StraightenedSchur(
        -1 if inversions % 2 else 1,
        tuple(x + shift for x in lam),
        shift,
    )


def complete_homogeneous(points, k):
    """h_0, ..., h_k at the given points, by the product generating function."""
    h = [1] + [0] * k
    for a in points:
        for j in range(1, k + 1):
            h[j] += a * h[j - 1]
    return h


def bareiss_det(m):
    """Exact determinant of an integer matrix, fraction free."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[-1][-1]


def _scale_to_integers(points):
    denoms = [Fraction(p).denominator for p in points]
    scale = lcm(*denoms) if denoms else 1
    return [int(p * scale) for p in points], scale


def schur_eval(rho, points):
    """s_rho at the points, via straightening and a Jacobi-Trudi determinant.

    Points may be integers or Fractions; repeated points are fine.  A
    zero point is rejected when the straightened form carries a
    negative monomial shift.
    """
    if len(rho) != len(points):
        raise ValueError("rho and points must have the same length")
    st = straighten(rho)
    if st.sign == 0:
        return Fraction(0)
    if st.shift and any(p == 0 for p in points):
        raise ValueError("negative exponents need nonzero points")
    parts = [p for p in st.partition if p]
    ints, scale = _scale_to_integers(points)
    size = len(parts)
    if size == 0:
        det = 1
    else:
        h = complete_homogeneous(ints, parts[0] + size - 1)
        mat = [
            [h[parts[i] - i + j] if 0 <= parts[i] - i + j else 0 for j in range(size)]
            for i in range(size)
        ]
        det = bareiss_det(mat)
    value = Fraction(det, scale ** sum(parts)) * st.sign
    if st.shift:
        prod = 1
        for p in points:
            prod *= p
        value /= Fraction(prod) ** st.shift
    return value


def schur_delta(points):
    """s_delta at the points, delta = (n-1, ..., 1, 0): the product of the
    pairwise sums x_i + x_j, i < j, with no determinant."""
    value = Fraction(1)
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            value *= x + y
    return value


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
    vand = 1
    for i in range(n):
        for j in range(i + 1, n):
            vand *= ints[i] - ints[j]
    value = Fraction(top, vand)
    if shift:
        prod = 1
        for x in ints:
            prod *= x
        value /= Fraction(prod) ** shift
    # undo the clearing of denominators: s_rho is homogeneous of degree |rho|
    return value / Fraction(scale) ** sum(rho)


def power_sum(points, s):
    """Power sum p_s over the points, with p_0 = the number of points."""
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    total = Fraction(0)
    for p in points:
        total += Fraction(p) ** s if s else 1
    return total
