"""Write tests/series_digests.txt: sha256 digests of the series outputs of every small rep.

    PYTHONPATH=src python3 tests/make_series_digests.py

Run from the root of a checkout.  One line per rep: its key, the sha256 of
repr(hilbert_series(rep)), the sha256 of what `sl2hilb series KEY --format
latex --no-cache` prints and, for reps without trivial summands, the sha256
of repr(gammas(rep)).  The reps are every degree multiset of dimension at
most MAX_DIM, then EXTRA_REPS: trivial summands and reps past the benchmark's
sizes.  A series is written only after two checks that do not rely on the
pipeline: the brute-force oracle to degree ceil(deg N / 2) + 1, and the
functional equation H(1/t) = (-1)^d t^(-a) H(t), which together pin down the
whole numerator.  Any failed check stops the script before the file is
written.  test_series.py recomputes every line and compares.
"""

import contextlib
import io
import os
import sys
from hashlib import sha256
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sl2hilb import cli, gammas, hilbert_series, parse_rep  # noqa: E402
from sl2hilb.exactalg import taylor_coeffs  # noqa: E402
from sl2hilb.oracle import truncated_series  # noqa: E402
from sl2hilb.repmodel import Representation, pole_and_a_invariant  # noqa: E402

DIGESTS = os.path.join(HERE, "series_digests.txt")
MAX_DIM = 20
EXTRA_REPS = ("2V0+V2", "2V0+V3+V4", "3V0", "V30", "8V8", "6V10", "4V16")


def degree_multisets(dim, smallest=1):
    """Every nondecreasing degree tuple, degrees >= smallest, of dimension exactly dim."""
    if dim == 0:
        yield ()
    for d in range(smallest, dim):
        for rest in degree_multisets(dim - d - 1, d):
            yield (d,) + rest


def reps():
    for dim in range(2, MAX_DIM + 1):
        yield from (Representation(degs) for degs in degree_multisets(dim))
    yield from map(parse_rep, EXTRA_REPS)


def _sha(text):
    return sha256(text.encode()).hexdigest()


def digest_line(rep):
    """The line of rep: its key and the digests of its outputs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["series", rep.key, "--format", "latex", "--no-cache"])
    if code:
        raise SystemExit("series %s exited %d" % (rep.key, code))
    fields = [rep.key, _sha(repr(hilbert_series(rep))), _sha(out.getvalue())]
    if not rep.trivial_count:
        fields.append(_sha(repr(gammas(rep))))
    return " ".join(fields)


def certify(rep):
    """Check rep's series against the oracle and the functional equation."""
    f = hilbert_series(rep)
    c, n = f.num.c, f.num.degree
    depth = ceil(n / 2) + 1
    if taylor_coeffs(f, depth + 1) != truncated_series(rep, depth):
        raise SystemExit("%s: oracle to degree %d" % (rep.key, depth))
    # N_j = s N_(deg Q + a - j), s = (-1)^d times the sign of Q(1/t)
    d, a = pole_and_a_invariant(rep)
    sign = (-1) ** (d + sum(f.den.factors.values()))
    if n != f.den.degree + a or any(c[j] != sign * c[n - j] for j in range(n + 1)):
        raise SystemExit("%s: functional equation" % rep.key)


def main():
    lines = []
    for rep in reps():
        certify(rep)
        lines.append(digest_line(rep))
    with open(DIGESTS, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %d digests to %s" % (len(lines), DIGESTS))


if __name__ == "__main__":
    main()
