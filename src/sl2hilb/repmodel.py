"""Finite dimensional SL2 representations and their torus weight data.

A representation is a direct sum of irreducibles V_d (binary forms of
degree d).  The diagonal torus acts on the standard basis of V_d with
weights 2i - d, i = 0..d, and every computation downstream (series,
closed forms, brute force counting) is driven by that weight multiset.

Trivial summands V_0 are tracked separately: they contribute a free
polynomial variable each, i.e. a factor 1/(1-t) in the Hilbert series,
and are excluded from the weight combinatorics.
"""

import re
from collections import namedtuple
from fractions import Fraction
from itertools import groupby


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
        parts.extend(_term_text(d, len(list(run))) for d, run in groupby(self.degrees))
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

    Whitespace is ignored anywhere.  A term is [m[*]]Vd: the
    multiplicity m defaults to 1 and takes an optional '*', so '2*V3'
    and '2V3' agree, and the letter V is case insensitive.  A list
    names one degree per comma-separated chunk, read by int().  Degree
    0 terms are recorded as trivial summands, and specs of dimension
    above MAX_DIM are rejected.  Errors carry the 0-based position in
    text; an empty term points at the separator after it, or at the end
    of the spec (its last non-space character + 1).
    """
    if not isinstance(text, str):
        raise RepParseError("rep spec must be a string")
    idx = [i for i, ch in enumerate(text) if not ch.isspace()]
    if not idx:
        raise RepParseError("empty rep spec", 0)
    spec = "".join(text[i] for i in idx)
    idx.append(idx[-1] + 1)                 # positions in text, the end of the spec last
    terms = "v" in spec or "V" in spec
    degrees, trivial, dim, start = [], 0, 0, 0
    for chunk in spec.split("+" if terms else ","):
        end = start + len(chunk)
        if not chunk:
            raise RepParseError("empty term" if terms else "expected a degree", idx[start])
        if not terms:
            try:
                mult, degree = 1, int(chunk)
            except ValueError:
                raise RepParseError("expected an integer degree, got %r" % chunk, idx[start]) from None
            if degree < 0:
                raise RepParseError("negative degree %d" % degree, idx[start])
        else:
            # multiplicity, '*', V, degree; positions in chunk are offsets from start
            m = re.match(r"(\d*)(\*?)([vV]?)(\d*)", chunk)
            if m[2] and not m[1]:
                raise RepParseError("'*' without a multiplicity", idx[start + m.start(2)])
            mult = _int(m[1] or "1", idx[start])
            if not mult:
                raise RepParseError("zero multiplicity", idx[start])
            for group, message in ((3, "expected 'V'"), (4, "expected a degree after 'V'")):
                if not m[group]:            # at the end of a term: past its last character
                    k = start + m.start(group)
                    raise RepParseError(message, idx[k] if k < end else idx[end - 1] + 1)
            degree = _int(m[4], idx[start + m.start(4)])
            if m.end() < len(chunk):
                raise RepParseError("trailing characters %r" % chunk[m.end():], idx[start + m.end()])
        dim += mult * (degree + 1)
        if dim > MAX_DIM:
            raise RepParseError("dimension exceeds %d" % MAX_DIM, idx[start])
        if degree:
            degrees += [degree] * mult
        else:
            trivial += mult
        start = end + 1
    return Representation(degrees, trivial)


def _int(digits, position):
    try:
        return int(digits)
    except ValueError:      # more digits than int() takes
        raise RepParseError("bad integer", position) from None
