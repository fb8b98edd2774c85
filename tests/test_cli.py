import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sl2hilb.cli as cli
import sl2hilb.laurent as laurent_mod
import sl2hilb.oracle as oracle
import sl2hilb.series as series_mod
from sl2hilb.cli import (FIXTURES, FixtureRow, HilbertResult, _entry, _entry_line, _int_out,
                         load_cached, main, store_cached)
from sl2hilb.exactalg import (LaurentExpansion, Polynomial, RationalFunction,
                              laurent_at_one, rf_equal, taylor_coeffs)
from sl2hilb.laurent import gammas
from sl2hilb.repmodel import RepParseError, parse_rep
from sl2hilb.series import SeriesConsistencyError, hilbert_series


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SL2HILB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# whole stdout of `series` in text and LaTeX: V0+V2 holds the (1 - t) factor,
# which the text writes as (1-t) and LaTeX as (1-t^{1}); V2+2V3 has
# coefficients other than +-1 of both signs; 2V0+V3+V4 raises the exponent of
# (1 - t) of a nontrivial series, 3V0 has no nontrivial summand
SERIES_TEXT = {
    "V1": "1\n",
    "V5": "(1 - t^6 + t^12)/(1-t^4)(1-t^6)(1-t^8)\n",
    "V0+V2": "(1)/(1-t)(1-t^2)\n",
    "V2+2V3": "(1 + t^3 + 3*t^4 + 4*t^5 + 5*t^6 + 8*t^7 + 7*t^8 + 3*t^9 + 2*t^10"
              " - 2*t^11 - 3*t^12 - 7*t^13 - 8*t^14 - 5*t^15 - 4*t^16 - 3*t^17 - t^18"
              " - t^21)/(1-t^2)^2(1-t^3)^2(1-t^4)^3(1-t^5)^2\n",
    "2V0+V3+V4": "(1 + t^2 - 2*t^3 + t^4 - t^5 + 4*t^6 + t^7 + 5*t^8 + t^9 + 4*t^10 - t^11"
                 " + t^12 - 2*t^13 + t^14 + t^16)/(1-t)^2(1-t^3)^3(1-t^4)(1-t^5)(1-t^7)\n",
    "3V0": "(1)/(1-t)^3\n",
}
SERIES_LATEX = {
    "V1": "H(t) = 1\n",
    "V5": "H(t) = \\frac{1 - t^{6} + t^{12}}{(1-t^{4})(1-t^{6})(1-t^{8})}\n",
    "V0+V2": "H(t) = \\frac{1}{(1-t^{1})(1-t^{2})}\n",
    "V2+2V3": "H(t) = \\frac{1 + t^{3} + 3 t^{4} + 4 t^{5} + 5 t^{6} + 8 t^{7} + 7 t^{8}"
              " + 3 t^{9} + 2 t^{10} - 2 t^{11} - 3 t^{12} - 7 t^{13} - 8 t^{14}"
              " - 5 t^{15} - 4 t^{16} - 3 t^{17} - t^{18} - t^{21}}"
              "{(1-t^{2})^{2}(1-t^{3})^{2}(1-t^{4})^{3}(1-t^{5})^{2}}\n",
    "2V0+V3+V4": "H(t) = \\frac{1 + t^{2} - 2 t^{3} + t^{4} - t^{5} + 4 t^{6} + t^{7}"
                 " + 5 t^{8} + t^{9} + 4 t^{10} - t^{11} + t^{12} - 2 t^{13} + t^{14}"
                 " + t^{16}}{(1-t^{1})^{2}(1-t^{3})^{3}(1-t^{4})(1-t^{5})(1-t^{7})}\n",
    "3V0": "H(t) = \\frac{1}{(1-t^{1})^{3}}\n",
}


def test_series_text(capsys):
    for spec, want in SERIES_TEXT.items():
        assert run(capsys, "series", spec) == (0, want, ""), spec


def test_series_latex(capsys):
    for spec, want in SERIES_LATEX.items():
        assert run(capsys, "series", spec, "--format", "latex") == (0, want, ""), spec


def test_series_trivial(capsys):
    code, out, _ = run(capsys, "series", "V0")
    assert code == 0
    assert out.strip() == "(1)/(1-t)"


def test_series_with_terms(capsys):
    code, out, _ = run(capsys, "series", "V4", "--terms", "10")
    assert code == 0
    assert "coefficients: 1, 0, 1, 1, 1, 1, 2, 1, 2, 2" in out


def test_latex_series_prints_its_terms(capsys):
    # --terms prints the same coefficients line in LaTeX as in text
    code, out, _ = run(capsys, "series", "V5", "--terms", "5", "--format", "latex")
    assert code == 0
    assert out.splitlines() == [SERIES_LATEX["V5"].rstrip("\n"), "coefficients: 1, 0, 0, 0, 1"]


GOLDEN_V2_2V3 = {
    "a_invariant": -11,
    "denominator": [[2, 2], [3, 2], [4, 3], [5, 2]],
    "gamma": ["133/28800", "133/19200", "3253/345600", "1657/138240"],
    "methods": ["ClosedForm"] * 4,
    "numerator": [1, 0, 0, 1, 3, 4, 5, 8, 7, 3, 2, -2, -3, -7, -8, -5, -4,
                  -3, -1, 0, 0, -1],
    "pole_order": 8,
    "rep": [2, 3, 3],
    "version": "0.1.0",
}


def test_series_json_golden(capsys):
    code, out, _ = run(capsys, "series", "V2+2V3", "--format", "json")
    assert code == 0
    assert json.loads(out) == GOLDEN_V2_2V3


# the keys of a cache entry: the series and the package version, nothing
# derived from them
ENTRY_KEYS = ["denominator", "numerator", "rep", "version"]


def test_json_round_trip(isolated_cache):
    rep = parse_rep("V2+2V3")
    store_cached(rep, hilbert_series(rep))
    entry = json.loads((isolated_cache / "V2+2V3.json").read_text())
    assert entry == {k: GOLDEN_V2_2V3[k] for k in ENTRY_KEYS}
    series = load_cached(rep)
    assert HilbertResult.compute(rep, series) == GOLDEN_V2_2V3
    assert rf_equal(series, hilbert_series(rep))


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "V2+V3", "--terms", "12")
    assert code == 0
    assert out.strip() == "1, 0, 1, 1, 2, 2, 3, 4, 5, 6, 8, 9"


def test_gamma_text(capsys):
    code, out, _ = run(capsys, "gamma", "V7")
    assert code == 0
    assert "11/11520" in out and "ClosedForm" in out
    assert "a          -8" in out


def test_gamma_rejects_trivial(capsys):
    code, _, err = run(capsys, "gamma", "V0+V2")
    assert code == 2
    assert "trivial" in err
    # the spec parses, so the error names no position in it
    code, _, err = run(capsys, "gamma", "V2+V0")
    assert code == 2
    assert "trivial" in err and "position" not in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "series", "Vx")
    assert code == 2
    assert "position" in err


def test_parse_error_points_at_the_empty_term(capsys):
    code, out, err = run(capsys, "series", "V2++V3")
    assert (code, out) == (2, "")
    assert "position 3" in err and "Traceback" not in err


USAGE_ERRORS = [
    ["frobnicate"],
    ["expand", "V3", "--terms", "-1"],
    ["expand", "V2", "--format", "latex"],      # expand prints no latex
    ["series", "V3", "--terms", "-2"],
    ["series", "99999999999999999999V1"],
    ["series", "V" + "9" * 5000],
    ["verify", "V3", "--max-degree", "-1", "--draws", "0"],
    ["verify", "V3", "--format", "json"],       # verify and table print text only
    ["table", "--no-cache"],                    # and never read the cache
]


def test_usage_error_exit_code(capsys):
    for argv in USAGE_ERRORS:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err, argv


def test_terms_over_the_limit_are_usage_errors(capsys, monkeypatch):
    # a huge --terms used to end in MemoryError or OverflowError inside
    # taylor_coeffs; it is refused before any series is built
    def unreached(*args):
        raise AssertionError("a series was built for an out-of-range --terms")

    monkeypatch.setattr(cli, "hilbert_series", unreached)
    monkeypatch.setattr(cli, "taylor_coeffs", unreached)
    for command in ("series", "expand"):
        for terms in ("100000000000", "99999999999999999999999", str(cli.MAX_TERMS + 1)):
            code, out, err = run(capsys, command, "V3", "--terms", terms)
            assert (code, out) == (2, ""), (command, terms)
            assert "error:" in err and "at most 1000000 terms" in err, (command, terms)
            assert "Traceback" not in err


def test_terms_at_the_limit_are_accepted():
    parser = cli.build_parser()
    for command in ("series", "expand"):
        args = parser.parse_args([command, "V3", "--terms", str(cli.MAX_TERMS)])
        assert args.terms == cli.MAX_TERMS


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "V3+V4", "--max-degree", "15",
                       "--draws", "2")
    assert code == 0
    assert "FAIL" not in out


def test_verify_pole_order_reads_the_series(capsys, monkeypatch):
    # Shift the pole of the series expansion only; gammas() is untouched,
    # so the pole-order line alone must catch it.
    def off_by_one(f, count):
        exp = laurent_at_one(f, count)
        return LaurentExpansion(exp.pole_order + 1, exp.coeffs)

    monkeypatch.setattr(cli, "laurent_at_one", off_by_one)
    code, out, _ = run(capsys, "verify", "V5", "--max-degree", "6", "--draws", "0")
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL pole order 3: got 4"]


def test_verify_checks_the_pole_and_a_invariant_of_every_rep(capsys):
    # V1 (H = 1), V2 and reps with trivial summands get the two lines too
    head = "PASS oracle to degree 5\nPASS series degree equals a-invariant\n"
    closed = "PASS gamma methods agree with series\nPASS fixture table row\n"
    want = {"V1": head + "PASS pole order 0\n" + closed,
            "V2": head + "PASS pole order 1\n" + closed,
            "3V0": head + "PASS pole order 3\n",
            "2V0+V3+V4": head + "PASS pole order 8\n"}
    for spec, out in want.items():
        assert run(capsys, "verify", spec, "--max-degree", "5", "--draws", "0") == (0, out, ""), spec


def test_verify_seed_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "V2+V3", "--draws", "3", "--seed", "9")
    _, out2, _ = run(capsys, "verify", "V2+V3", "--draws", "3", "--seed", "9")
    assert out1 == out2


def test_table_all_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "16/16 rows match" in out


def test_table_reports_tampered_row(capsys, monkeypatch):
    bad = FIXTURES[4]
    tampered = FixtureRow(bad.key, bad.series,
                          (Fraction(1, 7),) + bad.gamma[1:], bad.a_invariant)
    monkeypatch.setattr(cli, "FIXTURES",
                        FIXTURES[:4] + [tampered] + FIXTURES[5:])
    code, out, _ = run(capsys, "table")
    assert code == 1
    assert "DIFF" in out and "15/16 rows match" in out
    code, out, _ = run(capsys, "verify", bad.key, "--max-degree", "6", "--draws", "0")
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("FAIL fixture table row"))
    assert "gamma" in line


@pytest.mark.parametrize("field", ["series", "a_invariant"])
def test_edited_fixture_row_fails_in_table_and_verify(capsys, monkeypatch, field):
    # the series and a-invariant lines of _fixture_mismatches; the gamma line
    # is test_table_reports_tampered_row's
    row = FIXTURES[4]
    series = hilbert_series(parse_rep(row.key))
    if field == "series":
        edited = RationalFunction(series.num.c[:-1] + [2], series.den)
        row, problem = row._replace(series=edited), "series %r vs %r" % (series, edited)
    else:
        row, problem = row._replace(a_invariant=-5), "a -6 vs -5"
    monkeypatch.setattr(cli, "FIXTURES", FIXTURES[:4] + [row] + FIXTURES[5:])
    code, out, _ = run(capsys, "table")
    assert code == 1
    assert "V5     DIFF " + problem in out.splitlines() and "15/16 rows match" in out
    code, out, _ = run(capsys, "verify", "V5", "--max-degree", "6", "--draws", "0")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL fixture table row: " + problem]


def test_verify_reports_the_first_failing_draw(capsys, monkeypatch):
    # a Schur side that disagrees with the raw sum fails draw 0 at its first
    # shape, the arity-1 one
    def off_by_one(exps, params):
        return laurent_mod.sigma_sum_schur(exps, params) + 1

    monkeypatch.setattr(cli, "sigma_sum_schur", off_by_one)
    code, out, _ = run(capsys, "verify", "V3+V4", "--max-degree", "6", "--draws", "3")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL weight sum identities (3 draws): draw 0 arity 1"]


def test_gamma_prints_every_digit_past_the_int_text_limit(capsys):
    # 8V1+V983's exact gammas run to 4444 digits, past the 4300 that Python
    # 3.10.7+ converts to text by default; main lifts that limit for the
    # command, after parse_rep, and restores it on return
    res = gammas(parse_rep("8V1+V983"))
    assert max(g.numerator.bit_length() for g in res.gamma) > 4300 * 3.33
    limit = cli._get_digit_limit()
    code, text, err = run(capsys, "gamma", "8V1+V983")
    assert (code, err, cli._get_digit_limit()) == (0, "", limit)
    code, latex, err = run(capsys, "gamma", "8V1+V983", "--format", "latex")
    assert (code, err, cli._get_digit_limit()) == (0, "", limit)
    code, _, err = run(capsys, "series", "V" + "9" * 5000)
    assert (code, cli._get_digit_limit()) == (2, limit) and "bad integer" in err
    cli._set_digit_limit(0)
    try:
        gamma_lines = [l.split() for l in text.splitlines()[1:5]]
        want_latex = ["\\gamma_%d = \\frac{%d}{%d}" % (i, g.numerator, g.denominator)
                      for i, g in enumerate(res.gamma)]
        assert [Fraction(l[1]) for l in gamma_lines] == list(res.gamma)
    finally:
        cli._set_digit_limit(limit)
    assert latex.splitlines() == want_latex + ["a = %d" % res.a_invariant]


def test_cache_round_trip(isolated_cache, capsys):
    code, out1, _ = run(capsys, "series", "V2+V3")
    assert code == 0
    path = isolated_cache / "V2+V3.json"
    assert path.exists()
    # second call serves the cached result
    code, out2, _ = run(capsys, "series", "V2+V3")
    assert out1 == out2
    rep = parse_rep("V2+V3")
    cached = load_cached(rep)
    assert rf_equal(cached, hilbert_series(rep))
    assert HilbertResult.compute(rep, cached)["gamma"] == ["1/60", "1/40", "71/720", "59/288"]


def test_cache_dir_defaults_to_home_when_unset_or_empty(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    want = str(tmp_path / ".cache" / "sl2hilb" / "V2+V3.json")
    monkeypatch.delenv("SL2HILB_CACHE_DIR")
    assert cli._cache_path(parse_rep("V2+V3")) == want
    monkeypatch.setenv("SL2HILB_CACHE_DIR", "")
    assert cli._cache_path(parse_rep("V2+V3")) == want


def test_cache_version_mismatch_recomputes(isolated_cache, capsys):
    # the entry store_cached writes, in its layout, but of version 0.0.0
    stored = run(capsys, "series", "V4")
    path = isolated_cache / "V4.json"
    good = path.read_bytes()
    rep = parse_rep("V4")
    path.write_bytes(_entry_line(dict(_entry(rep, load_cached(rep)), version="0.0.0")))
    assert good.replace(b'"version": "%s"' % cli.__version__.encode(),
                        b'"version": "0.0.0"') == path.read_bytes()
    assert load_cached(rep) is None
    assert run(capsys, "series", "V4") == stored
    assert path.read_bytes() == good


def test_cache_entry_off_the_functional_equation_recomputes(isolated_cache, capsys):
    # canonical JSON for a record, but the series breaks the functional
    # equation: the first coefficient of V5 set from 1 to 2, and the t^2
    # coefficient of 2V0+V3+V4 changed without its mirror t^14
    for spec, index in (("V5", 0), ("2V0+V3+V4", 2)):
        run(capsys, "series", spec)
        path = isolated_cache / (spec + ".json")
        good = path.read_bytes()
        rep = parse_rep(spec)
        c = list(load_cached(rep).num.c)
        c[index] += 1
        edited = RationalFunction(c, hilbert_series(rep).den)
        with pytest.raises(SeriesConsistencyError, match="functional equation gives"):
            series_mod.check_series(rep, edited, 0)
        path.write_bytes(_entry_line(_entry(rep, edited)))
        assert load_cached(rep) is None
        code, out, err = run(capsys, "series", spec)
        assert (code, out, err) == (0, SERIES_TEXT[spec], ""), spec
        assert path.read_bytes() == good, spec


def test_edited_entries_of_the_small_series_recompute(isolated_cache, capsys):
    # entries written as store_cached writes them, for a series that is not
    # the rep's: V2's numerator edited to 1 + 7 t^5, 2V0's to 1 + t.  The
    # functional equation covers these reps, so each is a miss, and every
    # format prints what --no-cache prints
    for spec, numerator in (("V2", [1, 0, 0, 0, 0, 7]), ("2V0", [1, 1])):
        rep = parse_rep(spec)
        edited = RationalFunction(numerator, hilbert_series(rep).den.factors)
        for fmt in ("text", "json", "latex"):
            store_cached(rep, edited)
            assert load_cached(rep) is None, spec
            got = run(capsys, "series", spec, "--format", fmt)
            assert got == run(capsys, "series", spec, "--format", fmt, "--no-cache"), (spec, fmt)


def test_gamma_json_prints_the_series_record(capsys):
    # gamma --format json goes through the series --format json path; the
    # reps are the benchmark's CLI reps
    ops = json.loads(REFERENCE.read_text())["ops"]
    specs = sorted({json.loads(key)[1][1] for key in ops if json.loads(key)[0] == "cli"})
    assert len(specs) == 30
    for spec in specs:
        series = run(capsys, "series", spec, "--format", "json")
        assert series[0] == 0 and series[2] == "", spec
        assert run(capsys, "gamma", spec, "--format", "json") == series, spec


def test_cache_entry_with_edited_derived_fields_recomputes(isolated_cache, capsys):
    # an entry in the old format, the whole --format json record, written in
    # the layout store_cached writes, with its gamma, a-invariant, pole order
    # or methods edited: none of them is read from disk, so the output is the
    # uncached one and the entry is rewritten with the series alone
    edits = {
        "V5": {"gamma": ["1/191", "1/128", "199/1152", "965/2304"], "a_invariant": -7,
               "pole_order": 4, "methods": ["MadeUp"] + ["ClosedForm"] * 3},
        "2V0+V3+V4": {"a_invariant": -10, "pole_order": 9},
    }
    for spec, edit in edits.items():
        path = isolated_cache / (spec + ".json")
        commands = [("series", spec, "--format", "json")]
        if spec == "V5":
            commands.append(("gamma", spec, "--format", "json"))
        for argv in commands:
            code, want, _ = run(capsys, *argv, "--no-cache")
            assert code == 0
            old = json.loads(want)
            assert all(old[k] != v for k, v in edit.items()), spec
            isolated_cache.mkdir(exist_ok=True)
            path.write_bytes(_entry_line(dict(old, **edit)))
            assert run(capsys, *argv) == (0, want, ""), argv
            assert path.read_bytes() == _entry_line({k: old[k] for k in ENTRY_KEYS}), argv


# every kind of request the benchmark's cli workload sends
CLI_KINDS = runpy.run_path(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                        "perfbench", "workloads.py"))["CLI_KINDS"]


@pytest.mark.parametrize("spec", ["V1", "V2", "2V1", "V5", "V6", "V8", "2V4", "V9",
                                  "V2+2V3", "2V0+V3+V4", "3V0"])
def test_cache_hit_prints_what_a_miss_prints(isolated_cache, capsys, monkeypatch, spec):
    rep = parse_rep(spec)
    series = hilbert_series(rep)
    path = isolated_cache / (rep.key + ".json")

    def unreached(*args):
        raise AssertionError("a cache hit built the series, or a record was "
                             "built for text, LaTeX or expand")

    for kind in CLI_KINDS:
        argv = (kind[0], spec) + kind[1:]
        want = run(capsys, *argv, "--no-cache")
        if path.exists():
            path.unlink()
        with monkeypatch.context() as m:
            if kind[0] != "gamma" and "json" not in kind:
                m.setattr(cli, "gammas", unreached)
            assert run(capsys, *argv) == want, argv     # computes and stores
        with monkeypatch.context() as m:
            # gamma in text or latex, and gamma on a trivial summand, never
            # reach the cache
            if kind[0] != "gamma" or ("json" in kind and want[0] == 0):
                assert load_cached(rep) is not None, argv
                m.setattr(cli, "hilbert_series", unreached)
            assert run(capsys, *argv) == want, argv     # served from the cache
        if kind[1:] == ("--format", "json") and want[0] == 0:
            record = json.loads(want[1])
            if rep.degrees and not rep.trivial_count:
                res = gammas(rep)
                assert record["gamma"] == ["%d/%d" % (g.numerator, g.denominator)
                                           for g in res.gamma]
                assert (record["methods"], record["a_invariant"], record["pole_order"]) == (
                    list(res.methods), res.a_invariant, res.pole_order)
            else:
                assert (record["gamma"], record["methods"]) == (None, None)
                assert (record["a_invariant"], record["pole_order"]) == (
                    series.degree(), laurent_at_one(series, 1).pole_order)


def test_malformed_cache_entry_is_a_miss(isolated_cache, capsys):
    # gamma --format json is the gamma output that reads the cache
    code, want, _ = run(capsys, "gamma", "V5", "--format", "json", "--no-cache")
    assert code == 0
    run(capsys, "gamma", "V5", "--format", "json")
    run(capsys, "gamma", "V6", "--format", "json")
    path = isolated_cache / "V5.json"
    good = json.loads(path.read_text())
    assert sorted(good) == ENTRY_KEYS
    record = json.loads(want)       # the whole record, as entries once held it

    # each in the layout store_cached writes, so each is a miss for what it holds
    def edited(key, value):
        return _entry_line(dict(good, **{key: value}))

    payloads = [
        b"[]\n",                                        # not an object
        _entry_line({k: good[k] for k in ENTRY_KEYS if k != "version"}),   # a key too few
        _entry_line(record),                            # derived keys too many
        edited("gamma", ["1/0"] + record["gamma"][1:]),
        (isolated_cache / "V6.json").read_bytes(),      # another rep's entry
        edited("numerator", [1.5] + good["numerator"][1:]),
        edited("numerator", [float("inf")]),
        edited("denominator", [[0, 1]]),
        # equal as Python values, but not the text store_cached writes
        edited("denominator", good["denominator"][::-1]),
        edited("a_invariant", float(record["a_invariant"])),
        edited("pole_order", float(record["pole_order"])),
        edited("denominator", [[float(m), e] for m, e in good["denominator"]]),
        edited("numerator", good["numerator"] + [0]),
        edited("denominator", good["denominator"] + good["denominator"][-1:]),
        edited("rep", [float(d) for d in good["rep"]]),
        edited("version", "0.0.0"),
        # deg Q about 10^18: the functional equation fails at degree 0, with
        # no list of that length built
        edited("denominator", [[10 ** 9, 10 ** 9]]),
    ]
    for payload in payloads:
        path.write_bytes(payload)
        code, out, err = run(capsys, "gamma", "V5", "--format", "json")
        assert (code, out, err) == (0, want, ""), payload
        assert json.loads(path.read_text()) == good, payload


# the V5 entry as store_cached writes it, rewritten in another layout with
# the same values, or one 1 written as true or 1.0, which load as 1
OTHER_LAYOUTS = {
    "indent=2": lambda good: (json.dumps(json.loads(good), indent=2, sort_keys=True)
                              + "\n").encode(),
    "no trailing newline": lambda good: good[:-1],
    "true for 1": lambda good: good.replace(b'"numerator": [1,', b'"numerator": [true,'),
    "1.0 for 1": lambda good: good.replace(b'"numerator": [1,', b'"numerator": [1.0,'),
}


@pytest.mark.parametrize("layout", sorted(OTHER_LAYOUTS))
def test_entry_in_another_layout_is_a_miss(isolated_cache, capsys, layout):
    # a miss whatever the values: series prints what --no-cache prints and
    # rewrites the entry as the one canonical line
    want = run(capsys, "series", "V5", "--no-cache")
    run(capsys, "series", "V5")
    path = isolated_cache / "V5.json"
    good = path.read_bytes()
    assert good.count(b"\n") == 1 and good.endswith(b"}\n")
    other = OTHER_LAYOUTS[layout](good)
    assert other != good and json.loads(other) == json.loads(good)
    path.write_bytes(other)
    assert load_cached(parse_rep("V5")) is None
    assert run(capsys, "series", "V5") == want == (0, SERIES_TEXT["V5"], "")
    assert path.read_bytes() == good


def test_no_cache_flag(isolated_cache, capsys):
    code, _, _ = run(capsys, "series", "V4", "--no-cache")
    assert code == 0
    assert not (isolated_cache / "V4.json").exists()


def test_store_cached_atomic(isolated_cache):
    rep = parse_rep("V2")
    store_cached(rep, hilbert_series(rep))
    names = os.listdir(isolated_cache)
    assert names == ["V2.json"]      # no stray temp files


def test_store_cached_writes_mode_0600(isolated_cache):
    rep = parse_rep("V2+V3")
    series = hilbert_series(rep)
    store_cached(rep, series)
    path = isolated_cache / "V2+V3.json"
    assert path.stat().st_mode & 0o777 == 0o600
    # one line: sorted keys, default separators, a trailing newline
    assert path.read_bytes() == (
        b'{"denominator": [[2, 1], [3, 1], [4, 1], [5, 1]], "numerator": [1, 0, 0, 0, 0, 0, 0, 1], '
        b'"rep": [2, 3], "version": "%s"}\n' % cli.__version__.encode())


def test_failed_cache_write_leaves_no_temp_file(isolated_cache, monkeypatch):
    rep = parse_rep("V2")
    series = hilbert_series(rep)
    fdopen, written = os.fdopen, []

    class HalfWriter:
        # the temporary file, whose one write stops halfway
        def __init__(self, fd, mode):
            self.fh = fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            written.append(data)
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise RuntimeError("disk gave out")

    monkeypatch.setattr(cli.os, "fdopen", HalfWriter)
    with pytest.raises(RuntimeError, match="disk gave out"):
        store_cached(rep, series)
    assert written == [_entry_line(_entry(rep, series))]
    assert os.listdir(isolated_cache) == []


def test_big_int_serialization(isolated_cache):
    big = 2 ** 70 + 3
    assert _int_out(big) == str(big)
    assert _int_out(-(2 ** 70)) == str(-(2 ** 70))
    assert _int_out(12) == 12
    # 4V7's own series has 47 numerator coefficients past 64 bits, up to 72
    # bits; the entry holds them as decimal strings and is served as stored
    rep = parse_rep("4V7")
    series = hilbert_series(rep)
    wide = [v for v in series.num.c if not -2 ** 63 <= v < 2 ** 63]
    assert len(wide) == 47 and max(abs(v).bit_length() for v in wide) == 72
    store_cached(rep, series)
    entry = json.loads((isolated_cache / "4V7.json").read_text())
    assert entry["numerator"] == [_int_out(v) for v in series.num.c]
    assert [int(v) for v in entry["numerator"] if isinstance(v, str)] == wide
    assert (entry["rep"], entry["denominator"]) == ([7] * 4, [[4, 1], [6, 7], [8, 7], [10, 7],
                                                              [12, 7]])
    assert load_cached(rep).num.c == series.num.c


def test_cache_entry_of_a_scalar_multiple_is_a_miss(isolated_cache, capsys):
    # twice the V2+2V3 series keeps the functional equation, but H(0) = 2:
    # the entry is a miss, and series prints what --no-cache prints
    rep = parse_rep("V2+2V3")
    series = hilbert_series(rep)
    doubled = RationalFunction([2 * v for v in series.num.c], series.den)
    with pytest.raises(SeriesConsistencyError, match="H\\(0\\) = 1 gives 1"):
        series_mod.check_series(rep, doubled, 0)
    store_cached(rep, doubled)
    assert load_cached(rep) is None
    want = run(capsys, "series", "V2+2V3", "--no-cache")
    assert want == (0, SERIES_TEXT["V2+2V3"], "")
    assert run(capsys, "series", "V2+2V3") == want
    assert rf_equal(load_cached(rep), series)


def test_series_json_with_terms(capsys):
    code, out, _ = run(capsys, "series", "V2+V3", "--format", "json", "--terms", "9")
    assert code == 0
    rep = parse_rep("V2+V3")
    payload = json.loads(out)
    assert payload.pop("coefficients") == taylor_coeffs(hilbert_series(rep), 9)
    assert payload == HilbertResult.compute(rep, hilbert_series(rep))


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "2V3", "--format", "json", "--terms", "11")
    assert code == 0
    rep = parse_rep("2V3")
    assert json.loads(out) == {"rep": [3, 3], "coefficients":
                               taylor_coeffs(hilbert_series(rep), 11)}


def test_gamma_json(capsys):
    code, out, _ = run(capsys, "gamma", "V2+2V3", "--format", "json")
    assert code == 0
    assert json.loads(out) == GOLDEN_V2_2V3
    res = gammas(parse_rep("V2+2V3"))
    assert [Fraction(g) for g in GOLDEN_V2_2V3["gamma"]] == list(res.gamma)
    assert GOLDEN_V2_2V3["methods"] == list(res.methods)


def _no_compute(*args):
    raise AssertionError("gamma text/latex must not build the series result")


def test_gamma_text_and_latex_skip_series_and_cache(isolated_cache, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli.HilbertResult, "compute", classmethod(_no_compute))
    res = gammas(parse_rep("V9"))
    code, out, err = run(capsys, "gamma", "V9")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "rep        V9"
    for i, (g, m) in enumerate(zip(res.gamma, res.methods)):
        assert lines[1 + i].split() == ["gamma%d" % i, str(g), "(%s)" % m]
    assert lines[5:] == ["a          %d" % res.a_invariant,
                         "pole       %d" % res.pole_order]
    code, out, err = run(capsys, "gamma", "V9", "--format", "latex")
    assert (code, err) == (0, "")
    assert out.splitlines() == (
        ["\\gamma_%d = \\frac{%d}{%d}" % (i, g.numerator, g.denominator)
         for i, g in enumerate(res.gamma)] + ["a = %d" % res.a_invariant])
    assert not isolated_cache.exists()


def test_warm_cache_json_builds_no_series(capsys, monkeypatch):
    # as a fresh process finds it: the entry on disk, the gammas() memo
    # empty; the hit serves the series, and V8's gamma2 fallback reads the
    # oracle counts
    stored = run(capsys, "series", "V8", "--format", "json")
    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    computed, loads = [], []
    monkeypatch.setattr(series_mod, "_compute", computed.append)
    monkeypatch.setattr(cli, "load_cached",
                        lambda rep: loads.append(load_cached(rep)) or loads[-1])
    code, out, err = run(capsys, "series", "V8", "--format", "json")
    assert (code, out, err) == stored
    assert computed == [] and len(loads) == 1 and loads[0] is not None
    assert json.loads(out)["methods"] == ["ClosedForm", "ClosedForm", "SeriesFallback",
                                          "ClosedForm"]


@pytest.mark.parametrize("argv, builds, warm", [
    (("table",), 16, False),
    (("verify", "V8", "--draws", "0"), 1, False),
    (("series", "V8", "--format", "json", "--no-cache"), 1, False),
    (("gamma", "V5", "--format", "json", "--no-cache"), 1, False),
    (("gamma", "V8"), 0, False),
    (("series", "V6", "--format", "json"), 0, True)],
    ids=["table", "verify", "series-json-miss", "gamma-json-miss", "gamma-text", "series-json-hit"])
def test_a_command_builds_each_series_at_most_once(capsys, monkeypatch, argv, builds, warm):
    # every hilbert_series call is one computation; warm: the cache entry is
    # stored by a first run, and the counted run is a hit
    if warm:
        run(capsys, *argv)
    compute, computed = series_mod._compute, []
    monkeypatch.setattr(series_mod, "_compute", lambda rep: computed.append(rep.key) or compute(rep))
    assert run(capsys, *argv)[0] == 0
    assert len(computed) == len(set(computed)) == builds


def test_parser_built_once_and_carries_no_state(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    code, out, _ = run(capsys, "series", "V3", "--terms", "5")
    assert code == 0 and "coefficients: 1, 0, 0, 0, 1" in out
    code, out, _ = run(capsys, "series", "V3")
    assert code == 0 and out == "(1)/(1-t^4)\n"
    assert len(built) == 1


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sl2hilb.cli as c; assert c._parser is None"
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_import_leaves_out_unused_stdlib_chains():
    # start-up is most of what a cached CLI call costs; modules that site
    # already imported count as loaded before the package
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; before = set(sys.modules); import sl2hilb, sl2hilb.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    new = set(out.split())
    assert "sl2hilb.cli" in new
    assert not new & {"dataclasses", "inspect", "tempfile", "shutil", "random", "typing"}


def test_unwritable_cache_warns_and_prints(tmp_path, capsys, monkeypatch):
    code, want, _ = run(capsys, "series", "V3", "--no-cache")
    assert code == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("SL2HILB_CACHE_DIR", str(blocker / "sub"))
    code, out, err = run(capsys, "series", "V3")
    assert (code, out) == (0, want)
    assert len(err.splitlines()) == 1 and err.startswith("warning:")


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(rep):
        raise SeriesConsistencyError(rep, 4, 2, 1)

    monkeypatch.setattr(cli, "hilbert_series", broken)
    code, out, err = run(capsys, "series", "V3", "--no-cache")
    assert (code, out) == (3, "")
    assert err.startswith("internal error:") and "Traceback" not in err


def test_verify_functional_equation_failure_exit_code(capsys, monkeypatch):
    # V10's t^35 numerator coefficient raised by one escapes the oracle's
    # 31 terms; hilbert_series' own functional equation check stops verify
    reduce_exact = RationalFunction.reduce

    def reduce_perturbed(self, over=None):
        out = reduce_exact(self, over)
        c = list(out.num.c)
        assert len(c) == 43             # the numerator hilbert_series returns
        c[35] += 1
        return RationalFunction(Polynomial(c), out.den)

    monkeypatch.setattr(RationalFunction, "reduce", reduce_perturbed)
    code, out, err = run(capsys, "verify", "V10", "--draws", "0")
    assert (code, out) == (3, "")
    assert "functional equation gives" in err and "Traceback" not in err


def test_verify_prints_the_oracle_failure(capsys, monkeypatch):
    # one V8 count bumped, 4 to 5 at degree 7, in verify's table to degree 20
    # alone: hilbert_series' own check, to degree 27, passes, and verify's
    # oracle line names the first degree that differs
    counts = oracle.truncated_series

    def bumped(rep, n):
        out = counts(rep, n)
        if n == 20:
            out[7] += 1
        return out

    monkeypatch.setattr(oracle, "truncated_series", bumped)
    code, out, err = run(capsys, "verify", "V8", "--max-degree", "20", "--draws", "0")
    assert (code, err) == (1, "")
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL oracle to degree 20: degree 7: series 4 oracle 5"]


def test_verify_max_degree_over_memory_limit(capsys, monkeypatch):
    # V16 to degree 10000 would need about 16 GiB of oracle rows; the
    # estimate refuses it before the series or the oracle is built
    def unreached(*args):
        raise AssertionError("verify built something past the memory check")

    monkeypatch.setattr(cli, "hilbert_series", unreached)
    monkeypatch.setattr(oracle, "truncated_series", unreached)
    monkeypatch.setattr(oracle, "_packed_rows", unreached)
    code, out, err = run(capsys, "verify", "V16", "--max-degree", "10000", "--draws", "0")
    assert (code, out) == (2, "")
    assert "over the limit of 1 GiB" in err and "Traceback" not in err
    # the depths CI checks stay well inside the limit
    for spec, depth in (("V16", 155), ("4V7", 181), ("7V2", 36), ("5V3", 52),
                        ("4V4", 44), ("3V8", 126), ("V30", 297), ("V27", 369)):
        assert oracle.packed_bits(parse_rep(spec), depth) < cli.MAX_ORACLE_BYTES


@pytest.mark.parametrize("argv", [("gamma", "V7", "--format", "latex"),
                                  ("series", "V6", "--format", "json"),
                                  ("-h",), ("series", "--help")])
def test_closed_pipe_exits_quietly(argv):
    # the reader closes its end before the child writes (the child waits for
    # stdin to close first): exit 0, no traceback, nothing on stderr.  The
    # child's stdout is buffered, as in a shell, so the write that meets the
    # closed pipe can be a flush
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys; from sl2hilb.cli import main; sys.stdin.read(); sys.exit(main())"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-c", probe, *argv], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(env, PYTHONPATH=src))
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


# a subcommand, a spec (well formed, or any word of the spec alphabet) and up
# to three flags of any subcommand, each maybe with a value; now and then the
# words are shuffled
SPECS = st.one_of(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 6)), min_size=1, max_size=3)
    .map(lambda terms: "+".join("%dV%d" % term for term in terms)),
    st.text("Vv0123456789+,* ", max_size=7))


@st.composite
def cli_argv(draw):
    argv = [draw(st.sampled_from(["series", "expand", "gamma", "verify", "table"])), draw(SPECS)]
    for _ in range(draw(st.integers(0, 3))):
        argv.append(draw(st.sampled_from(["--format", "--no-cache", "--terms", "--max-degree",
                                          "--draws", "--seed", "-h"])))
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(["text", "json", "latex", "-1", "0", "3", "17"])))
    return draw(st.permutations(argv)) if draw(st.integers(0, 4)) == 0 else argv


def _small(word):
    """False for a word that parses as a rep of dimension above 14: the
    series cost has no bound yet, and V999 would run for months."""
    try:
        rep = parse_rep(word)
    except RepParseError:
        return True
    return rep.dim + rep.trivial_count <= 14


@given(cli_argv())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_never_lets_an_exception_escape(capsys, argv):
    # the cache directory is shared by the examples, so some of them hit it
    assume(all(map(_small, argv)))
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
