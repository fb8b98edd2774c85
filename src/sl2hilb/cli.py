"""Command-line front end.

Subcommands: series (rational function, optionally leading coefficients),
gamma (Laurent data), verify (oracle and identity checks), table (recompute
the shipped fixture table), expand (series coefficients only).  Only
series, expand and gamma take --format and --no-cache.  series, expand and
gamma --format json cache only the checked series, one JSON file per
canonical representation key, served if the file is, as JSON text, what
store_cached writes for the series in it and that series passes the
functional equation check hilbert_series runs.  series and gamma print
the JSON record through one path, its gamma and methods from gammas()
(memoized per rep) and pole order and a-invariant from pole_and_a_invariant
on every call; gamma in text or latex prints from gammas() alone, series
through format_series.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .exactalg import (LATEX, RationalFunction, format_series, laurent_at_one, rf_equal,
                       taylor_coeffs)
from .laurent import gammas, random_params, sigma_sum_raw, sigma_sum_schur
from .oracle import packed_bits, truncated_series
from .repmodel import RepParseError, parse_rep, pole_and_a_invariant
from .series import SeriesConsistencyError, _check_functional_equation, hilbert_series

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_INT64_MAX = 2 ** 63

# Largest oracle table `verify --max-degree` may build (oracle.packed_bits).
MAX_ORACLE_BYTES = 1 << 30

# Most Taylor coefficients `series --terms` and `expand --terms` print.
MAX_TERMS = 10 ** 6


class HilbertResult(namedtuple("HilbertResult", "rep series gamma a_invariant "
                                                "pole_order methods")):
    """The JSON record of a checked series: gamma (four Fractions) and methods
    from gammas(), None with trivial summands; pole_and_a_invariant the rest."""

    __slots__ = ()

    @classmethod
    def compute(cls, rep, series):
        pole, a = pole_and_a_invariant(rep)
        if not rep.degrees or rep.trivial_count:
            return cls(rep, series, None, a, pole, None)
        res = gammas(rep)
        return cls(rep, series, res.gamma, a, pole, res.methods)

    def to_json_dict(self):
        return dict(
            _entry(self.rep, self.series),
            gamma=None if self.gamma is None
                  else ["%d/%d" % (g.numerator, g.denominator) for g in self.gamma],
            a_invariant=self.a_invariant,
            pole_order=self.pole_order,
            methods=None if self.methods is None else list(self.methods),
        )


def _rep_degrees(rep):
    return [0] * rep.trivial_count + list(rep.degrees)


def _entry(rep, series):
    """The cache entry of rep's series: what store_cached writes, and what
    load_cached must read back as JSON text to serve it."""
    return {
        "rep": _rep_degrees(rep),
        "numerator": [_int_out(v) for v in series.num.c],
        "denominator": [[m, e] for m, e in series.den.items_sorted()],
        "version": __version__,
    }


def _int_out(v):
    # arbitrary precision survives JSON as decimal strings past 64 bits
    return v if -_INT64_MAX <= v < _INT64_MAX else str(v)


FixtureRow = namedtuple("FixtureRow", "key series gamma a_invariant")


def _rf(num, den):
    return RationalFunction([num.get(e, 0) for e in range(max(num) + 1)], den)


def _g(*vals):
    return tuple(Fraction(v) for v in vals)


FIXTURES = [
    FixtureRow("V1", _rf({0: 1}, {}), _g(1, 0, 0, 0), 0),
    FixtureRow("V2", _rf({0: 1}, {2: 1}), _g("1/2", "1/4", "1/8", "1/16"), -2),
    FixtureRow("V3", _rf({0: 1}, {4: 1}), _g("1/4", "3/8", "5/16", "5/32"), -4),
    FixtureRow("V4", _rf({0: 1}, {2: 1, 3: 1}),
               _g("1/6", "1/4", "17/72", "25/144"), -5),
    FixtureRow("V5", _rf({0: 1, 18: 1}, {4: 1, 8: 1, 12: 1}),
               _g("1/192", "1/128", "199/1152", "965/2304"), -6),
    FixtureRow("V6", _rf({0: 1, 15: 1}, {2: 1, 4: 1, 6: 1, 10: 1}),
               _g("1/240", "1/160", "71/720", "17/72"), -7),
    FixtureRow("V8",
               _rf({0: 1, 8: 1, 9: 1, 10: 1, 18: 1},
                   {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}),
               _g("1/1008", "1/672", "191/15120", "11/378"), -9),
    FixtureRow("2V1", _rf({0: 1}, {2: 1}), _g("1/2", "1/4", "1/8", "1/16"), -2),
    FixtureRow("2V2", _rf({0: 1}, {2: 3}), _g("1/8", "3/16", "3/16", "5/32"), -6),
    FixtureRow("2V3", _rf({0: 1, 4: 1, 6: 1, 10: 1}, {2: 1, 4: 4}),
               _g("1/128", "3/256", "23/512", "95/1024"), -8),
    FixtureRow("2V4", _rf({0: 1, 4: 1, 8: 1}, {2: 3, 3: 4}),
               _g("1/216", "1/144", "11/432", "5/96"), -10),
    FixtureRow("V1+V2", _rf({0: 1}, {2: 1, 3: 1}),
               _g("1/6", "1/4", "17/72", "25/144"), -5),
    FixtureRow("V1+V3", _rf({0: 1, 6: 1}, {4: 3}),
               _g("1/32", "3/64", "9/64", "35/128"), -6),
    FixtureRow("V1+V4", _rf({0: 1, 9: 1}, {2: 1, 3: 1, 5: 1, 6: 1}),
               _g("1/90", "1/60", "109/1080", "97/432"), -7),
    FixtureRow("V2+V3", _rf({0: 1, 7: 1}, {2: 1, 3: 1, 4: 1, 5: 1}),
               _g("1/60", "1/40", "71/720", "59/288"), -7),
    FixtureRow("V2+V4", _rf({0: 1, 6: 1}, {2: 2, 3: 2, 4: 1}),
               _g("1/72", "1/48", "29/432", "115/864"), -8),
]


def _cache_path(rep):
    base = os.environ.get("SL2HILB_CACHE_DIR")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache", "sl2hilb")
    return os.path.join(base, rep.key + ".json")


def load_cached(rep):
    """The checked series cached for rep; None unless the entry parses, is,
    as JSON text, the _entry of the series it holds (so for this rep and
    version), and that series satisfies the functional equation."""
    try:
        with open(_cache_path(rep)) as fh:
            data = json.load(fh)
        series = RationalFunction([int(v) for v in data["numerator"]],
                                  {int(m): int(e) for m, e in data["denominator"]})
        text = json.dumps(data, sort_keys=True)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError, RecursionError):
        return None
    if json.dumps(_entry(rep, series), sort_keys=True) != text:
        return None
    try:
        _check_functional_equation(rep, series)
    except SeriesConsistencyError:
        return None
    return series


def store_cached(rep, series):
    path = _cache_path(rep)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # what tempfile.mkstemp guarantees (a new file, mode 0600) without
    # importing tempfile at start-up
    tmp = "%s.%s.tmp" % (path, os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(_entry(rep, series), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _get_series(rep, use_cache):
    if use_cache:
        cached = load_cached(rep)
        if cached is not None:
            return cached
    series = hilbert_series(rep)
    if use_cache:
        try:
            store_cached(rep, series)
        except OSError as exc:
            # the series stands without the cache; say why it was not kept
            print("warning: result not cached: %s" % exc, file=sys.stderr)
    return series


def cmd_series(args):
    return _print_series(parse_rep(args.spec), args)


def _print_series(rep, args):
    series = _get_series(rep, not args.no_cache)
    if args.format == "json":
        payload = HilbertResult.compute(rep, series).to_json_dict()
        if args.terms:
            payload["coefficients"] = taylor_coeffs(series, args.terms)
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "latex":
        print("H(t) = %s" % format_series(series, LATEX))
    else:
        print(repr(series))
        if args.terms:
            coeffs = taylor_coeffs(series, args.terms)
            print("coefficients: %s" % ", ".join(str(c) for c in coeffs))
    return EXIT_OK


def cmd_expand(args):
    rep = parse_rep(args.spec)
    coeffs = taylor_coeffs(_get_series(rep, not args.no_cache), args.terms)
    if args.format == "json":
        print(json.dumps({"rep": _rep_degrees(rep), "coefficients": coeffs}, sort_keys=True))
    else:
        print(", ".join(str(c) for c in coeffs))
    return EXIT_OK


def cmd_gamma(args):
    """Laurent data; only --format json reads the cached series."""
    rep = parse_rep(args.spec)
    if not rep.degrees or rep.trivial_count:
        raise RepParseError("trivial summand not allowed for gamma")
    if args.format == "json":       # the record series --format json prints
        return _print_series(rep, args)
    res = gammas(rep)
    if args.format == "latex":
        for i, g in enumerate(res.gamma):
            print("\\gamma_%d = \\frac{%d}{%d}" % (i, g.numerator, g.denominator))
        print("a = %d" % res.a_invariant)
        return EXIT_OK
    print("rep        %s" % rep.key)
    for i, (g, m) in enumerate(zip(res.gamma, res.methods)):
        print("gamma%d     %-12s (%s)" % (i, g, m))
    print("a          %d" % res.a_invariant)
    print("pole       %d" % res.pole_order)
    return EXIT_OK


def cmd_verify(args):
    rep = parse_rep(args.spec)
    failures = []

    def check(name, ok, detail=""):
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail and not ok:
            line += ": " + detail
        print(line)
        if not ok:
            failures.append(name)

    max_degree = args.max_degree
    need = packed_bits(rep, max_degree) / 8
    if need > MAX_ORACLE_BYTES:
        print("error: verify %s --max-degree %d needs about %.1f GiB of oracle rows, "
              "over the limit of %d GiB" % (rep.key, max_degree, need / 2 ** 30,
                                            MAX_ORACLE_BYTES >> 30), file=sys.stderr)
        return EXIT_USAGE
    series = hilbert_series(rep)
    want = truncated_series(rep, max_degree)
    got = taylor_coeffs(series, max_degree + 1)
    bad = next((n for n in range(max_degree + 1) if got[n] != want[n]), None)
    check("oracle to degree %d" % max_degree, bad is None,
          "degree %s: series %s oracle %s" % (bad, got[bad] if bad is not None else "",
                                              want[bad] if bad is not None else ""))

    pole, a = pole_and_a_invariant(rep)
    exp = laurent_at_one(series, 4)
    check("series degree equals a-invariant", series.degree() == a,
          "degree %d vs %d" % (series.degree(), a))
    check("pole order %d" % pole, exp.pole_order == pole, "got %d" % exp.pole_order)

    if rep.degrees and not rep.trivial_count:
        dim = rep.dim
        res = gammas(rep)

        check("gamma methods agree with series", tuple(res.gamma) == exp.coeffs,
              "closed %s series %s" % (res.gamma, exp.coeffs))

        row = next((r for r in FIXTURES if r.key == rep.key), None)
        if row is not None:
            problems = _fixture_mismatches(row, series, res)
            check("fixture table row", not problems, "; ".join(problems))

        if args.draws:
            import random       # only --draws needs it; kept out of start-up
            rng = random.Random(args.seed)
            shapes = [(dim - 3,), (dim - 4, 1), (dim - 5, 1, 1), (dim - 6, 1, 1, 1)]
            bad_draw = None
            for n in range(args.draws):
                params = random_params(rep, rng)
                for exps in shapes:
                    if sigma_sum_raw(exps, params) != sigma_sum_schur(exps, params):
                        bad_draw = (n, len(exps))
                        break
                if bad_draw:
                    break
            check("weight sum identities (%d draws)" % args.draws, bad_draw is None,
                  "draw %s arity %s" % bad_draw if bad_draw else "")

    return EXIT_VERIFY if failures else EXIT_OK


def _fixture_mismatches(row, series, res):
    """How a computed series and GammaResult differ from a fixture row, as text."""
    problems = []
    if not rf_equal(series, row.series):
        problems.append("series %r vs %r" % (series, row.series))
    if res.gamma != row.gamma:
        problems.append("gamma %s vs %s" %
                        (list(map(str, res.gamma)), list(map(str, row.gamma))))
    if res.a_invariant != row.a_invariant:
        problems.append("a %d vs %d" % (res.a_invariant, row.a_invariant))
    return problems


def cmd_table(args):
    bad = 0
    for row in FIXTURES:
        rep = parse_rep(row.key)
        problems = _fixture_mismatches(row, hilbert_series(rep), gammas(rep))
        if problems:
            bad += 1
            print("%-6s DIFF %s" % (row.key, "; ".join(problems)))
        else:
            print("%-6s OK" % row.key)
    print("%d/%d rows match" % (len(FIXTURES) - bad, len(FIXTURES)))
    return EXIT_VERIFY if bad else EXIT_OK


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %s" % text)
    return value


def _term_count(text):
    value = _nonnegative_int(text)
    if value > MAX_TERMS:
        raise argparse.ArgumentTypeError("expected at most %d terms, got %s" % (MAX_TERMS, text))
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sl2hilb",
        description="Hilbert series and Laurent data of SL2 invariant rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "latex")):
        p.add_argument("spec", help="representation, e.g. V6, 2V3+V4, '2,3,3'")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
            p.add_argument("--no-cache", action="store_true",
                           help="skip the result cache")

    p = sub.add_parser("series", help="exact Hilbert series")
    common(p)
    p.add_argument("--terms", type=_term_count, default=0,
                   help="also print this many leading coefficients")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("expand", help="leading series coefficients")
    common(p, formats=("text", "json"))
    p.add_argument("--terms", type=_term_count, default=10)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("gamma", help="Laurent coefficients and a-invariant")
    common(p)
    p.set_defaults(func=cmd_gamma, terms=0)

    p = sub.add_parser("verify", help="oracle and identity checks")
    common(p, formats=())
    p.add_argument("--max-degree", type=_nonnegative_int, default=20)
    p.add_argument("--draws", type=_nonnegative_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="recompute the shipped fixture table")
    p.set_defaults(func=cmd_table)

    return parser


_parser = None     # built by the first main() call, then reused


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:   # argparse printed help (0) or a usage error (2)
            code = EXIT_USAGE if exc.code else EXIT_OK
        except RepParseError as exc:
            print("error: %s" % exc, file=sys.stderr)
            code = EXIT_USAGE
        except SeriesConsistencyError as exc:
            print("internal error: %s" % exc, file=sys.stderr)
            code = EXIT_INTERNAL
        sys.stdout.flush()
    except BrokenPipeError:     # the reader left early; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
