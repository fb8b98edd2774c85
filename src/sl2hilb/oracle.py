"""Brute force invariant dimension counts, independent of the series code.

The multiplicity of the trivial module inside the degree n part of the
polynomial ring is (number of monomials of torus weight 0) minus
(number of monomials of torus weight 2): raising by the nilpotent
matches weight 2 vectors against highest weight vectors of weight 0.
Counting monomials by weight is a coin-change walk over the variable
weights, so this route shares nothing with the rational function
pipeline beyond the weight list itself.  Even that list is built here
from rep.degrees rather than read from repmodel.weight_system, so a fault
in the pipeline's weight list cannot also hide from this check.
"""


def _variable_weights(rep):
    ws = [2 * i - d for d in rep.degrees for i in range(d + 1)]
    ws.extend([0] * rep.trivial_count)
    return ws


def weight_count_table(rep, max_degree):
    """counts[n][w + offset] = number of degree n monomials of weight w."""
    ws = _variable_weights(rep)
    if not ws:
        raise ValueError("the zero rep has no monomials to count")
    return _weight_counts(ws, max_degree)


def _weight_counts(ws, max_degree):
    """weight_count_table for the variable weights ws: a coin-change walk."""
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
                    v = prev[i - a]
                    if v:
                        cur[i] += v
            else:
                for i in range(width + a):
                    v = prev[i - a]
                    if v:
                        cur[i] += v
    return rows, offset


def truncated_series(rep, max_degree):
    """Invariant dimensions in degrees 0..max_degree, as a list."""
    if max_degree < 0:
        return []
    rows, offset = weight_count_table(rep, max_degree)
    out = []
    for n in range(max_degree + 1):
        row = rows[n]
        two = row[offset + 2] if offset + 2 < len(row) else 0
        out.append(row[offset] - two)
    return out


def dim_invariants(rep, n):
    """Dimension of the degree n invariants."""
    return truncated_series(rep, n)[n]


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
    total = {0: 1}
    for d, p in zip(rep.degrees, degs):
        rows, offset = _weight_counts([2 * i - d for i in range(d + 1)], p)
        dist = {j - offset: v for j, v in enumerate(rows[p]) if v}
        merged = {}
        for w1, c1 in total.items():
            for w2, c2 in dist.items():
                w = w1 + w2
                merged[w] = merged.get(w, 0) + c1 * c2
        total = merged
    return total.get(0, 0) - total.get(2, 0)

