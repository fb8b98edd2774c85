"""Brute force invariant dimension counts, independent of the series code.

The multiplicity of the trivial module inside the degree n part of the
polynomial ring is (number of monomials of torus weight 0) minus
(number of monomials of torus weight 2): raising by the nilpotent
matches weight 2 vectors against highest weight vectors of weight 0.
Counting monomials by weight is a coin-change count over the variable
weights, so this route shares nothing with the rational function
pipeline beyond the weight list itself.  Even that list is built here
from rep.degrees rather than read from repmodel.weight_system, so a fault
in the pipeline's weight list cannot also hide from this check.

The counts are packed by Kronecker substitution (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44 (2009)): row n, the degree n monomials, is one
Python int whose bit slot w + n*M holds the count of weight w, M the
largest |weight|.  Admitting a variable of weight a adds row n-1 shifted
by a + M slots into row n, one big-int operation per row.  A slot is
B = bitlen(C(D+N-1, N-1)) + 1 bits wide for N variables and depth D; no
count exceeds the number of degree D monomials C(D+N-1, N-1), so no slot
carries into the next.
"""

from collections import Counter
from math import comb


def _variable_weights(rep):
    ws = [2 * i - d for d in rep.degrees for i in range(d + 1)]
    ws.extend([0] * rep.trivial_count)
    return ws


def _packed_rows(ws, max_degree):
    """(rows, M, B): bit slot w + n*M, B bits wide, of rows[n] counts the
    degree n monomials of weight w in variables of weights ws."""
    m = max(max(abs(w) for w in ws), 1)
    width = comb(max_degree + len(ws) - 1, len(ws) - 1).bit_length() + 1
    rows = [1] + [0] * max_degree
    for a in ws:
        shift = (a + m) * width
        # ascending n: rows[n-1] already admits the new variable (geometric factor)
        for n in range(1, max_degree + 1):
            rows[n] += rows[n - 1] << shift
    return rows, m, width


def truncated_series(rep, max_degree):
    """Invariant dimensions in degrees 0..max_degree, as a list."""
    if max_degree < 0:
        return []
    ws = _variable_weights(rep)
    if not ws:
        raise ValueError("the zero rep has no monomials to count")
    rows, m, width = _packed_rows(ws, max_degree)
    mask = (1 << width) - 1
    return [((row >> n * m * width) & mask) - ((row >> (n * m + 2) * width) & mask)
            for n, row in enumerate(rows)]


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
