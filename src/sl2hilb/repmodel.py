"""Finite dimensional SL2 representations and their torus weight data.

A representation is a direct sum of irreducibles V_d (binary forms of
degree d).  The diagonal torus acts on the standard basis of V_d with
weights 2i - d, i = 0..d, and every computation downstream (series,
closed forms, brute force counting) is driven by that weight multiset.

Trivial summands V_0 are tracked separately: they contribute a free
polynomial variable each, i.e. a factor 1/(1-t) in the Hilbert series,
and are excluded from the weight combinatorics.
"""

from collections import namedtuple
from fractions import Fraction


class RepParseError(ValueError):
    """Raised for malformed representation specs, with a 0-based position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class Representation:
    """Multiset of irreducible degrees, kept sorted ascending.

    degrees holds the nontrivial degrees d_k >= 1; trivial_count the
    number of V_0 summands.  dim counts the nontrivial part only.  Not a
    tuple, so that "%s" % rep formats the rep rather than unpacking it.
    """

    __slots__ = ("degrees", "trivial_count")

    def __init__(self, degrees, trivial_count=0):
        degs = tuple(sorted(degrees))
        if any(not isinstance(d, int) or d < 1 for d in degs):
            raise ValueError("degrees must be positive integers")
        if not isinstance(trivial_count, int) or trivial_count < 0:
            raise ValueError("trivial_count must be a nonnegative integer")
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "trivial_count", trivial_count)

    def __setattr__(self, *args):
        raise AttributeError("Representation is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Representation, (self.degrees, self.trivial_count)

    def __eq__(self, other):
        if other.__class__ is not Representation:
            return NotImplemented
        return self.degrees == other.degrees and self.trivial_count == other.trivial_count

    def __hash__(self):
        return hash((self.degrees, self.trivial_count))

    def __repr__(self):
        return "Representation(degrees=%r, trivial_count=%r)" % (self.degrees, self.trivial_count)

    @property
    def dim(self):
        # dim of the nontrivial part: sum of (d_k + 1)
        return len(self.degrees) + sum(self.degrees)

    @property
    def key(self):
        """Canonical text form, e.g. '2V3+V4'; '0V0', which parse_rep rejects, for the zero rep."""
        if not self.degrees and not self.trivial_count:
            return "0V0"
        parts = []
        if self.trivial_count:
            parts.append(_term_text(0, self.trivial_count))
        seen = []
        for d in self.degrees:
            if seen and seen[-1][0] == d:
                seen[-1][1] += 1
            else:
                seen.append([d, 1])
        parts.extend(_term_text(d, m) for d, m in seen)
        return "+".join(parts)

    def __str__(self):
        return self.key


def _term_text(d, m):
    return ("%dV%d" % (m, d)) if m > 1 else ("V%d" % d)


WeightSystem = namedtuple("WeightSystem", "weights a_vec npos neven sigma")
WeightSystem.__doc__ = """Torus weights of the nontrivial part, summand by summand.

weights lists 2i - d_k for i = 0..d_k, one summand after the other;
a_vec the strictly positive ones in the same order; npos their number
C; neven the number of even degrees e; sigma 2 if all degrees are even,
else 1.  Invariants: dim = 2*npos + neven, the weights sum to 0, and
every odd power sum over them vanishes.
"""


def weight_system(rep):
    weights = tuple(2 * i - d for d in rep.degrees for i in range(d + 1))
    a_vec = tuple(w for w in weights if w > 0)
    neven = sum(1 for d in rep.degrees if d % 2 == 0)
    sigma = 2 if rep.degrees and neven == len(rep.degrees) else 1
    return WeightSystem(weights, a_vec, len(a_vec), neven, sigma)


# Degree multisets whose first Laurent coefficient has no closed form;
# these also lack the closed forms for the three higher coefficients.
GAMMA0_EXCEPTIONS = frozenset({(1,), (2,), (3,), (4,), (1, 1)})

# Degree multisets where only the third coefficient lacks a closed form.
GAMMA2_ONLY_EXCEPTIONS = frozenset(
    {(5,), (6,), (8,), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (4, 4)}
)

# Degree multisets whose weight sum in front of 1/(1-t)^(dim-2) is nonzero,
# with that sum; the pole order is dim-3 for every other rep.
FIRST_COEFF_EXCEPTIONS = {(1,): Fraction(1), (2,): Fraction(-1, 4), (1, 1): Fraction(-1)}

CaseTag = namedtuple("CaseTag", "in_gamma0_exceptions in_gamma2_exceptions one_v1_rest_even")


def classify_case(rep):
    """Classify rep for dispatch of the closed coefficient formulas.

    Requires a rep without trivial summands; the coefficient formulas
    do not apply once factors of 1/(1-t) are mixed in.
    """
    if rep.trivial_count:
        raise ValueError("classify_case requires a rep without trivial summands")
    if not rep.degrees:
        raise ValueError("classify_case requires a nonzero rep")
    degs = rep.degrees
    one_v1 = degs[0] == 1 and degs.count(1) == 1 and all(d % 2 == 0 for d in degs[1:])
    return CaseTag(degs in GAMMA0_EXCEPTIONS, degs in GAMMA2_ONLY_EXCEPTIONS, one_v1)


# Largest total dimension, trivial summands included, that a spec may have.
MAX_DIM = 1000


def parse_rep(text):
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
