import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sl2hilb.cli as cli
import sl2hilb.oracle as oracle
import sl2hilb.series as series_mod
from sl2hilb.cli import (FIXTURES, FixtureRow, HilbertResult, _int_out,
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


def test_json_round_trip():
    result = HilbertResult.from_json_dict(GOLDEN_V2_2V3)
    assert result.to_json_dict() == GOLDEN_V2_2V3
    rep = parse_rep("V2+2V3")
    assert rf_equal(result.series, hilbert_series(rep))


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
    assert rf_equal(cached.series, hilbert_series(rep))
    assert cached.gamma == (Fraction(1, 60), Fraction(1, 40),
                            Fraction(71, 720), Fraction(59, 288))


def test_cache_version_mismatch_recomputes(isolated_cache, capsys):
    run(capsys, "series", "V4")
    path = isolated_cache / "V4.json"
    data = json.loads(path.read_text())
    data["version"] = "0.0.0"
    path.write_text(json.dumps(data))
    assert load_cached(parse_rep("V4")) is None
    code, out, _ = run(capsys, "series", "V4")
    assert code == 0
    assert json.loads(path.read_text())["version"] != "0.0.0"


def test_cache_entry_off_the_functional_equation_recomputes(isolated_cache, capsys):
    # canonical JSON for a record, but the series breaks the functional
    # equation: the first coefficient of V5 set from 1 to 2, and the t^2
    # coefficient of 2V0+V3+V4 changed without its mirror t^14
    for spec, index in (("V5", 0), ("2V0+V3+V4", 2)):
        run(capsys, "series", spec)
        path = isolated_cache / (spec + ".json")
        good = json.loads(path.read_text())
        data = json.loads(path.read_text())
        data["numerator"][index] += 1
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        assert load_cached(parse_rep(spec)) is None
        code, out, err = run(capsys, "series", spec)
        assert (code, out, err) == (0, SERIES_TEXT[spec], ""), spec
        assert json.loads(path.read_text()) == good, spec


def test_malformed_cache_entry_is_a_miss(isolated_cache, capsys):
    # gamma --format json is the gamma output that reads the cache
    code, want, _ = run(capsys, "gamma", "V5", "--format", "json", "--no-cache")
    assert code == 0
    run(capsys, "gamma", "V5", "--format", "json")
    run(capsys, "gamma", "V6", "--format", "json")
    path = isolated_cache / "V5.json"
    good = json.loads(path.read_text())

    def edited(key, value):
        return json.dumps(dict(good, **{key: value}))

    payloads = [
        "[]",                                           # not an object
        edited("gamma", ["1/0"] + good["gamma"][1:]),   # no such Fraction
        (isolated_cache / "V6.json").read_text(),       # another rep's entry
        edited("numerator", [1.5] + good["numerator"][1:]),
        edited("numerator", [float("inf")]),
        edited("denominator", [[0, 1]]),
        # equal as Python values, but not the text store_cached writes
        edited("denominator", good["denominator"][::-1]),
        edited("a_invariant", float(good["a_invariant"])),
        edited("pole_order", float(good["pole_order"])),
        edited("denominator", [[float(m), e] for m, e in good["denominator"]]),
        edited("numerator", good["numerator"] + [0]),
        edited("denominator", good["denominator"] + good["denominator"][-1:]),
        edited("rep", [float(d) for d in good["rep"]]),
    ]
    for payload in payloads:
        path.write_text(payload)
        code, out, err = run(capsys, "gamma", "V5", "--format", "json")
        assert (code, out, err) == (0, want, ""), payload
        assert json.loads(path.read_text()) == good, payload


def test_no_cache_flag(isolated_cache, capsys):
    code, _, _ = run(capsys, "series", "V4", "--no-cache")
    assert code == 0
    assert not (isolated_cache / "V4.json").exists()


def test_store_cached_atomic(isolated_cache):
    rep = parse_rep("V2")
    result = HilbertResult.compute(rep)
    store_cached(rep, result)
    names = os.listdir(isolated_cache)
    assert names == ["V2.json"]      # no stray temp files


def test_store_cached_writes_mode_0600(isolated_cache):
    rep = parse_rep("V2+V3")
    result = HilbertResult.compute(rep)
    store_cached(rep, result)
    path = isolated_cache / "V2+V3.json"
    assert path.stat().st_mode & 0o777 == 0o600
    assert path.read_text() == json.dumps(result.to_json_dict(), indent=2,
                                          sort_keys=True) + "\n"


def test_failed_cache_write_leaves_no_temp_file(isolated_cache, monkeypatch):
    rep = parse_rep("V2")
    result = HilbertResult.compute(rep)

    def dump_half(obj, fh, **kwargs):
        fh.write("{")
        raise RuntimeError("disk gave out")

    monkeypatch.setattr(cli.json, "dump", dump_half)
    with pytest.raises(RuntimeError, match="disk gave out"):
        store_cached(rep, result)
    assert os.listdir(isolated_cache) == []


def test_big_int_serialization():
    big = 2 ** 70 + 3
    assert _int_out(big) == str(big)
    assert _int_out(-(2 ** 70)) == str(-(2 ** 70))
    assert _int_out(12) == 12
    data = dict(GOLDEN_V2_2V3, numerator=[str(big), -5])
    result = HilbertResult.from_json_dict(data)
    assert result.series.num.c == [big, -5]
    assert result.to_json_dict() == data


def test_series_json_with_terms(capsys):
    code, out, _ = run(capsys, "series", "V2+V3", "--format", "json", "--terms", "9")
    assert code == 0
    rep = parse_rep("V2+V3")
    payload = json.loads(out)
    assert payload.pop("coefficients") == taylor_coeffs(hilbert_series(rep), 9)
    assert payload == HilbertResult.compute(rep).to_json_dict()


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


def _no_compute(rep):
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
    monkeypatch.setattr(series_mod, "_MEMO", {})
    code, out, err = run(capsys, "verify", "V10", "--draws", "0")
    assert (code, out) == (3, "")
    assert "functional equation gives" in err and "Traceback" not in err


def test_verify_max_degree_over_memory_limit(capsys, monkeypatch):
    # V16 to degree 10000 would need about 32 GiB of oracle rows; the
    # estimate refuses it before the series or the oracle is built
    def unreached(*args):
        raise AssertionError("verify built something past the memory check")

    monkeypatch.setattr(cli, "hilbert_series", unreached)
    monkeypatch.setattr(cli, "truncated_series", unreached)
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
