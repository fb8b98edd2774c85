"""Write perfbench/reference.json: one checked output per benchmark operation.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  An output is recorded only after checks
that do not rely on the code path being timed:

* series: the brute-force oracle to degree ceil(deg N / 2) + 1 plus the
  functional equation H(1/t) = (-1)^(dim-3) t^dim H(t), which together pin
  down the whole numerator (V1, V2 and 2V1 get a full oracle check instead);
* gammas: the Laurent expansion of that certified series, Hilbert's 1893
  closed form for gamma0 of V_d (d >= 5), and the fixture row where the rep
  has one;
* closed forms: Hilbert's 1893 gamma0 for V_d, the vanishing of
  first_coeff_sum, and gamma1 = 3/2 gamma0, gamma3 = 5/2 (gamma2 - gamma0);
* CLI requests: the same stdout from a cold and a warm cache, exit code 0,
  JSON fields equal to the certified library results, and printed series
  coefficients equal to the oracle.

Any failed check stops the script before the file is written.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import canonical  # noqa: E402
from sl2hilb import cli, gammas, hilbert_series, laurent, parse_rep  # noqa: E402
from sl2hilb.exactalg import RationalFunction, laurent_at_one, rf_equal, taylor_coeffs  # noqa: E402
from sl2hilb.oracle import truncated_series  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
TINY = {(1,), (2,), (1, 1)}


def require(ok, what):
    if not ok:
        raise SystemExit("reference check failed: %s" % what)


@functools.cache
def certified_series(rep):
    series = hilbert_series(rep)
    n = series.num.degree
    depth = n + series.den.degree if rep.degrees in TINY else ceil(n / 2) + 1
    require(taylor_coeffs(series, depth + 1) == truncated_series(rep, depth),
            "%s: oracle to degree %d" % (rep, depth))
    if rep.degrees not in TINY:
        dim = rep.dim
        mirrored = RationalFunction(series.num.shifted(dim) * (-1) ** (dim - 3),
                                    series.den)
        require(rf_equal(series.at_reciprocal(), mirrored),
                "%s: functional equation" % rep)
    return series


def single_degree(rep):
    if len(rep.degrees) == 1 and rep.degrees[0] >= 5:
        return rep.degrees[0]
    return None


def certified_gammas(rep):
    series = certified_series(rep)
    res = gammas(rep)
    exp = laurent_at_one(series, 4)
    require(tuple(res.gamma) == exp.coeffs, "%s: gammas vs series" % rep)
    require(res.pole_order == exp.pole_order, "%s: pole order" % rep)
    require(res.a_invariant == series.degree(), "%s: a-invariant" % rep)
    d = single_degree(rep)
    if d is not None:
        require(res.gamma[0] == laurent.hilbert1893_gamma0(d), "%s: Hilbert 1893" % rep)
    row = next((r for r in cli.FIXTURES if r.key == rep.key), None)
    if row is not None:
        require(res.gamma == row.gamma and res.a_invariant == row.a_invariant
                and rf_equal(series, row.series), "%s: fixture row" % rep)
    return res


def check_closed(spec):
    rep = parse_rep(spec)
    vals = {f: getattr(laurent, f)(rep) for f in workloads.CLOSED_FORMS}
    require(vals["first_coeff_sum"] == 0, "%s: first_coeff_sum" % spec)
    require(vals["gamma0"] > 0, "%s: gamma0 positive" % spec)
    require(vals["gamma1"] == Fraction(3, 2) * vals["gamma0"], "%s: gamma1" % spec)
    require(vals["gamma3"] == Fraction(5, 2) * (vals["gamma2"] - vals["gamma0"]),
            "%s: gamma3" % spec)
    d = single_degree(rep)
    if d is not None:
        require(vals["gamma0"] == laurent.hilbert1893_gamma0(d), "%s: Hilbert 1893" % spec)
    return vals


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def check_cli(argv, result):
    code, stdout = result
    require(code == 0, "%s: exit code %s" % (argv, code))
    rep = parse_rep(argv[1])
    series = certified_series(rep)
    res = certified_gammas(rep)
    want_json = {
        "numerator": list(series.num.c),
        "denominator": [list(f) for f in series.den.items_sorted()],
        "gamma": ["%d/%d" % (g.numerator, g.denominator) for g in res.gamma],
        "a_invariant": res.a_invariant,
        "pole_order": res.pole_order,
        "methods": list(res.methods),
    }
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    terms = int(argv[argv.index("--terms") + 1]) if "--terms" in argv else None
    if argv[0] in ("series", "gamma") and fmt == "json":
        got = json.loads(stdout)
        require(all(got[k] == v for k, v in want_json.items()), "%s: json fields" % argv)
    if argv[0] == "expand":
        count = terms or 10
        want = truncated_series(rep, count - 1)
        got = (json.loads(stdout)["coefficients"] if fmt == "json"
               else [int(x) for x in stdout.split(",")])
        require(got == want, "%s: coefficients vs oracle" % argv)
    if argv[0] == "series" and terms:
        line = stdout.strip().splitlines()[-1]
        require(line.startswith("coefficients: "), "%s: coefficient line" % argv)
        got = [int(x) for x in line[len("coefficients: "):].split(",")]
        require(got == truncated_series(rep, terms - 1), "%s: coefficients vs oracle" % argv)


def main():
    tmp = os.path.join(ROOT, ".perfbench_tmp", "reference")
    shutil.rmtree(tmp, ignore_errors=True)
    os.environ["SL2HILB_CACHE_DIR"] = os.path.join(tmp, "cache")
    refs = {}
    closed = {}
    try:
        for op in workloads.all_operations():
            kind = op[0]
            if kind == "series":
                value = canonical(op, certified_series(parse_rep(op[1])))
            elif kind == "gammas":
                value = canonical(op, certified_gammas(parse_rep(op[1])))
            elif kind == "closed":
                if op[2] not in closed:
                    closed[op[2]] = check_closed(op[2])
                value = canonical(op, closed[op[2]][op[1]])
            else:
                shutil.rmtree(os.environ["SL2HILB_CACHE_DIR"], ignore_errors=True)
                cold = run_cli(op[1])
                warm = run_cli(op[1])
                require(cold == warm, "%s: cold and warm cache differ" % op[1])
                check_cli(op[1], cold)
                value = cold
            refs[workloads.op_key(op)] = value
            print("ok %s" % workloads.op_key(op), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"ops": refs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d references to %s" % (len(refs), REFERENCE))


if __name__ == "__main__":
    main()
