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

from math import comb


def _variable_weights(rep):
    ws = [2 * i - d for d in rep.degrees for i in range(d + 1)]
    ws.extend([0] * rep.trivial_count)
    return ws


def _slots(ws, max_degree):
    """(M, B): the largest |weight| (at least 1) and the slot width."""
    m = max(max(abs(w) for w in ws), 1)
    return m, comb(max_degree + len(ws) - 1, len(ws) - 1).bit_length() + 1


def packed_bits(rep, max_degree):
    """About how many bits truncated_series(rep, max_degree) holds in its
    rows: row n spans 2nM + 1 slots of B bits, D^2 M B over all D rows."""
    m, width = _slots(_variable_weights(rep), max_degree)
    return max_degree ** 2 * m * width


def _packed_rows(ws, max_degree):
    """(rows, M, B): bit slot w + n*M, B bits wide, of rows[n] counts the
    degree n monomials of weight w in variables of weights ws."""
    m, width = _slots(ws, max_degree)
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
