"""Schur function evaluation at explicit points, exponents allowed negative.

The closed forms of `laurent` need only ratios s_rho / s_delta whose
rho + delta is 2 delta with one entry changed.  `delta_ratio` evaluates
each as a single divided-difference weight sum over the squared points
(its confluent limit where points repeat), and `schur_delta` gives s_delta
as a product; neither builds a determinant.

`schur_eval` takes s_rho for any integer vector rho as one Jacobi-Trudi
determinant det(h_(rho_i - i + j)) in the complete homogeneous basis, well
defined at repeated points; it is the oracle for `delta_ratio` and the
route of `laurent.sigma_sum_schur`.  No sorting of rho is needed: trading
rho_i, rho_(i+1) for rho_(i+1) - 1, rho_i + 1 swaps two rows, which is the
alternant's sign rule, and a repeated entry of rho + delta makes two rows
equal (Macdonald I.3).  A common negative shift c comes out as
(x_1...x_n)^(-c).

Points are ints or Fractions; anything else (a float included) is a
TypeError.  The points are scaled to integers by the lcm of their
denominators and the work runs in integers, so `delta_ratio` builds one
Fraction per ratio it returns, and `power_sum` returns a value of the
points' own type (an int over int points).
"""

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import floordiv, mul, sub


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


def _check_points(points):
    for p in points:
        if not isinstance(p, (int, Fraction)):
            raise TypeError("points must be ints or Fractions, not %r (%s)"
                            % (p, type(p).__name__))


def _scale_to_integers(points):
    _check_points(points)
    scale = lcm(*(p.denominator for p in points))
    return [p.numerator * (scale // p.denominator) for p in points], scale


def schur_eval(rho, points):
    """s_rho at the points as one n-row determinant det(h_(rho_i + c - i + j))
    over (x_1...x_n)^c, c the least shift making rho + delta nonnegative.

    Points may be integers or Fractions; repeated points are fine.  A
    zero point is rejected when c > 0.
    """
    if len(rho) != len(points):
        raise ValueError("rho and points must have the same length")
    ints, scale = _scale_to_integers(points)
    n = len(rho)
    v = [r + n - 1 - i for i, r in enumerate(rho)]  # rho + delta
    if len(set(v)) != n:
        return Fraction(0)
    c = max(0, -min(v, default=0))
    if c and 0 in ints:
        raise ValueError("negative exponents need nonzero points")
    h = complete_homogeneous(ints, max(v, default=0) + c)
    det = bareiss_det([[h[k] if k >= 0 else 0 for k in range(r + c - i, r + c - i + n)]
                       for i, r in enumerate(rho)])
    return Fraction(det, scale ** (sum(rho) + n * c)) / Fraction(prod(points)) ** c


def schur_delta(points):
    """s_delta at the points, delta = (n-1, ..., 1, 0): the product of the
    pairwise sums x_i + x_j, i < j, with no determinant."""
    return prod((x + y for i, x in enumerate(points) for y in points[i + 1:]), start=Fraction(1))


def delta_ratio(es, points):
    """s_rho / s_delta at positive points for each e in the tuple es, where
    rho + delta is 2 delta = (2n-2, ..., 2, 0) with its top entry replaced by
    e: the divided difference of y^(e/2) over y_i = x_i^2 (Macdonald I.3),
    R_e = sum_i x_i^e / prod_{j != i} (x_i^2 - x_j^2), with no determinant.
    The node products are built once for all exponents.

    Where points repeat it is the confluent limit: a node x of multiplicity
    m, the other nodes z of multiplicity m_z, gives x^e / prod_z (x^2 -
    z^2)^(m_z) times the h^(m-1) coefficient of (1 + h/x^2)^(e/2) prod_z
    (1 + h/(x^2 - z^2))^(-m_z).  With h = q u, q = lcm(x^2, x^2 - z^2, ...),
    H_t = 4^t [u^t] is an integer (4^t clears the half-integer binomials),
    and Newton's identities on the log-derivative give t H_t = sum_j
    (-1)^(j-1) 2^(2j-1) T_j H_(t-j), T_j = e (q/x^2)^j - 2 sum_z m_z
    (q/(x^2 - z^2))^j.  The node terms are summed over one common
    denominator in integers.
    """
    ints, scale = _scale_to_integers(points)
    if any(x <= 0 for x in ints):  # the y^(e/2) branch needs x > 0
        raise ValueError("delta_ratio needs positive points")
    n = len(ints)
    zero = [e % 2 == 0 and 0 <= e <= 2 * n - 4 for e in es]  # e repeats an entry of 2 delta
    if all(zero):
        return (Fraction(0),) * len(es)
    mult = Counter(ints)
    xs, squares = list(mult), [x * x for x in ints]
    # e-free denominators prod_{w != y} (y - w) (filter drops w = y); only a repeated node
    # runs the confluent terms: (4q)^(m-1) more, and the pairs (up_j, down_j) of T_j below
    dens = [prod(filter(None, map(sub, repeat(x * x), squares))) for x in xs]
    confluent = []
    for i, (x, m) in enumerate(mult.items()):
        if m > 1:
            y = x * x
            others = [(y - z * z, mz) for z, mz in mult.items() if z != x]
            q = lcm(y, *(d for d, _ in others))
            dens[i] *= (4 * q) ** (m - 1)
            signs = [(-1) ** (j - 1) * 2 ** (2 * j - 1) for j in range(1, m)]
            confluent.append((i, [(s * (q // y) ** j,
                                   s * 2 * sum(mz * (q // d) ** j for d, mz in others))
                                  for j, s in enumerate(signs, 1)]))

    def ratio(e):
        nums = list(map(pow, xs, repeat(max(e, 0))))
        ds = dens if e >= 0 else list(map(mul, dens, map(pow, xs, repeat(-e))))
        for i, parts in confluent:
            steps = [e * up - down for up, down in parts]      # T_j
            h = [1]
            for t in range(1, len(steps) + 1):
                h.append(sum(steps[j - 1] * h[t - j] for j in range(1, t + 1)) // t)
            nums[i] *= h[-1]
        common = lcm(*ds)
        total = sum(map(mul, nums, map(floordiv, repeat(common), ds)))
        # R_e is homogeneous of degree k = e - 2(n-1) in the points
        k = e - 2 * n + 2
        if k < 0:
            return Fraction(total * scale ** -k, common)
        return Fraction(total, common * scale ** k)

    return tuple(Fraction(0) if z else ratio(e) for e, z in zip(es, zero))


def power_sum(points, s):
    """Power sum p_s over the points, with p_0 = the number of points; an
    int over int points, a Fraction once a point is one."""
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    _check_points(points)
    return sum(p ** s for p in points)
