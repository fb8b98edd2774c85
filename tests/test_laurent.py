import random
import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import make_series_digests
import sl2hilb.laurent as laurent_mod
import sl2hilb.series as series_mod
from references import gamma_raw
from sl2hilb.cli import FIXTURES
from sl2hilb.exactalg import _times_over, laurent_at_one
from sl2hilb.laurent import (a_invariant, first_coeff_sum, gamma0, gamma1,
                             gamma2, gamma3, gammas, hilbert1893_gamma0,
                             perturbed_params, random_params, sigma_sum_raw,
                             sigma_sum_schur)
from sl2hilb.oracle import SeriesConsistencyError
from sl2hilb.repmodel import (FIRST_COEFF_EXCEPTIONS, GAMMA0_EXCEPTIONS, GAMMA2_ONLY_EXCEPTIONS,
                              MAX_DIM, Representation, capped_denominator, classify_case,
                              parse_rep, weight_system)
from sl2hilb.schur import power_sum, schur_delta, schur_eval
from sl2hilb.series import hilbert_series


def F(text):
    return Fraction(text)


def test_gamma0_closed_values():
    assert gamma0(parse_rep("V5")) == F("1/192")
    assert gamma0(parse_rep("V7")) == F("11/11520")
    assert gamma0(parse_rep("2V3")) == F("1/128")
    assert gamma0(parse_rep("V2+V3")) == F("1/60")


def test_gamma0_exceptions_raise():
    for text in ["V1", "V2", "V3", "V4", "2V1"]:
        with pytest.raises(ValueError):
            gamma0(parse_rep(text))


def test_closed_form_refusals_name_the_rep():
    # On every tabled rep, gamma_i refuses exactly where gammas found
    # coefficient i by SeriesFallback, and elsewhere reads gammas.  The
    # message formats the rep with "%s" % rep, which a tuple would unpack.
    for rep in TABLED_REPS:
        res = gammas(rep)
        for i, closed in enumerate((gamma0, gamma1, gamma2, gamma3)):
            if res.methods[i] == "ClosedForm":
                assert closed(rep) == res.gamma[i], (rep, i)
                continue
            with pytest.raises(ValueError, match="^no closed gamma%d form for %s$"
                               % (i, re.escape(str(rep)))):
                closed(rep)


def test_gamma1_is_three_halves_gamma0():
    for text in ["V5", "V7", "2V3", "V2+V4", "V9"]:
        rep = parse_rep(text)
        assert gamma1(rep) == Fraction(3, 2) * gamma0(rep)


def test_gamma2_closed_values():
    assert gamma2(parse_rep("V7")) == F("311/138240")
    assert gamma2(parse_rep("V10")) == F("2057/2903040")
    assert gamma2(parse_rep("V1+2V2")) == F("17/216")


def test_gamma2_exceptions_raise():
    for text in ["V4", "V5", "V8", "2V3", "V1+V4", "2V2"]:
        with pytest.raises(ValueError):
            gamma2(parse_rep(text))


def test_gamma3_with_fallback_gamma2():
    # 2V3 has no closed gamma2, but gamma3 still comes out right
    assert gamma3(parse_rep("2V3")) == F("95/1024")
    assert gamma3(parse_rep("V5")) == F("965/2304")


def test_gamma_linear_identity():
    # 10 g1 - 15 g2 + 6 g3 = 0 wherever all closed forms apply
    for text in ["V7", "V9", "V10", "2V4+V2", "V1+2V2"]:
        rep = parse_rep(text)
        g1, g2, g3 = gamma1(rep), gamma2(rep), gamma3(rep)
        assert 10 * g1 - 15 * g2 + 6 * g3 == 0


def test_gammas_frozen_rows():
    res = gammas(parse_rep("V9"))
    assert res.gamma == (F("289/1032192"), F("289/688128"),
                         F("1331/2211840"), F("2491/3096576"))
    assert res.a_invariant == -10
    assert res.pole_order == 7
    assert res.methods == ("ClosedForm",) * 4

    res = gammas(parse_rep("2V4+V2"))
    assert res.gamma == (F("1/288"), F("1/192"), F("73/10368"), F("185/20736"))
    assert res.a_invariant == -13


def test_gammas_method_patterns():
    assert gammas(parse_rep("V2")).methods == ("SeriesFallback",) * 4
    assert gammas(parse_rep("V5")).methods == (
        "ClosedForm", "ClosedForm", "SeriesFallback", "ClosedForm")
    assert gammas(parse_rep("V1+2V2")).methods == ("ClosedForm",) * 4


SMALL_REPS = [Representation(degs) for dim in range(2, 21)
              for degs in make_series_digests.degree_multisets(dim)]
TABLED_REPS = [Representation(degs) for degs in sorted(GAMMA0_EXCEPTIONS | GAMMA2_ONLY_EXCEPTIONS)]


def test_gammas_match_series_expansion():
    # Every degree multiset of dim <= 20: closed forms, the exceptions whose
    # fallback expands H built from the oracle counts, and the pole order
    # and a-invariant gammas takes from pole_and_a_invariant; two routes
    # that share no code past the weights on every rep.
    assert len(SMALL_REPS) == 626
    for rep in SMALL_REPS:
        series = hilbert_series(rep)
        exp = laurent_at_one(series, 4)
        res = gammas(rep)
        assert res.gamma == exp.coeffs, rep
        assert res.pole_order == exp.pole_order, rep
        assert res.a_invariant == series.degree(), rep


def test_tabled_reps_build_no_series(monkeypatch):
    # the 16 exception reps are the 16 fixture rows; their fallback reads the
    # oracle counts, and series._compute never runs
    calls = []
    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    monkeypatch.setattr(series_mod, "_compute", calls.append)
    assert sorted(row.key for row in FIXTURES) == sorted(rep.key for rep in TABLED_REPS)
    for row in FIXTURES:
        assert gammas(parse_rep(row.key)).gamma == row.gamma, row.key
    assert calls == []


def test_capped_denominator_clears_every_small_series():
    # D H(t) is a polynomial: the cyclotomic valuations of the weights' wide
    # denominator capped at the pole order at t = 1 still cover H's own
    for rep in SMALL_REPS:
        f = hilbert_series(rep)
        assert _times_over(f.num.c, capped_denominator(rep), f.den.factors) is not None, rep.key


@pytest.mark.parametrize("rep", TABLED_REPS, ids=str)
def test_the_count_past_the_half_is_checked(monkeypatch, rep):
    # the count one past the half must equal the numerator's mirror: one
    # more there is a SeriesConsistencyError
    counts = laurent_mod.truncated_series

    def one_more_at_the_end(rep, max_degree):
        c = counts(rep, max_degree)
        c[-1] += 1
        return c

    monkeypatch.setattr(laurent_mod, "truncated_series", one_more_at_the_end)
    with pytest.raises(SeriesConsistencyError, match="its mirror"):
        laurent_mod._series_from_counts(rep)


@pytest.mark.parametrize("spec, m, e", [("V8", 7, 0), ("V8", 3, 0), ("V2+V3", 5, 0),
                                        ("V4", 3, 0), ("V6", 2, 0), ("2V2", 2, 2)])
def test_a_denominator_short_of_h_fails_the_check(monkeypatch, spec, m, e):
    # a factor (1 - t^m) of D lowered to the exponent e, so that D no longer
    # clears H: N is no polynomial, and the count past the half sees it
    rep = parse_rep(spec)
    den = {k: v for k, v in capped_denominator(rep).items() if k != m}
    if e:
        den[m] = e
    f = hilbert_series(rep)
    assert _times_over(f.num.c, den, f.den.factors) is None
    monkeypatch.setattr(laurent_mod, "capped_denominator", lambda rep: den)
    with pytest.raises(SeriesConsistencyError):
        laurent_mod._series_from_counts(rep)


@pytest.mark.parametrize("spec, den", [
    ("V1+V3", {4: 1, 2: 1}), ("V1+V4", {5: 1, 2: 4}), ("2V3", {4: 1, 2: 2}),
    ("2V3", {4: 2, 2: 2}), ("2V3", {4: 3}), ("V5", {6: 1, 4: 2}), ("V5", {8: 1, 6: 1})])
def test_wrong_data_past_the_mirror_check_is_caught(monkeypatch, spec, den):
    # D short of H, yet the count past the half matches its mirror: the
    # expansion comes out wrong, and gammas sees it in the pole order or
    # against the closed gamma0, gamma1 and gamma3 computed beside it
    rep = parse_rep(spec)
    monkeypatch.setattr(laurent_mod, "capped_denominator", lambda rep: den)
    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    laurent_mod._series_from_counts(rep)
    with pytest.raises(SeriesConsistencyError,
                       match="the (pole order at t = 1|closed form)") as err:
        gammas(rep)
    # a pole order or a gamma is no degree of the series: the message names
    # it in place of "at degree"
    assert re.fullmatch(r"series check failed for %s (in the pole order at t = 1: series gives "
                        r"\d+, the pole order at t = 1 gives \d+|in gamma[0-3]: series gives "
                        r"\S+, the closed form gives \S+)" % re.escape(spec), str(err.value))
    assert "at degree" not in str(err.value) and err.value.degree is None


def test_a_denominator_that_still_clears_h_gives_the_same_data(monkeypatch):
    # V1+V2's D = (1 - t^2)^2 (1 - t^3) has a spare 1 - t^2; without it N
    # is another polynomial, and the Laurent data do not change
    rep = parse_rep("V1+V2")
    want = laurent_at_one(laurent_mod._series_from_counts(rep), 4)
    assert capped_denominator(rep) == {3: 1, 2: 2}
    monkeypatch.setattr(laurent_mod, "capped_denominator", lambda rep: {3: 1, 2: 1})
    assert laurent_at_one(laurent_mod._series_from_counts(rep), 4) == want


def test_closed_forms_on_the_tabled_reps():
    # The closed forms forced on the 16 tabled reps: V1+V2 and 2V2 agree
    # with the series in all four coefficients, although
    # GAMMA2_ONLY_EXCEPTIONS lists them; each of the other 14 differs in at
    # least one.  A change to the tables is a decision this test makes
    # visible.
    agree = []
    for rep in TABLED_REPS:
        forced = classify_case(rep)._replace(in_gamma0_exceptions=False,
                                             in_gamma2_exceptions=False)
        want = laurent_at_one(hilbert_series(rep), 4).coeffs
        if laurent_mod._coefficients(rep, forced)[0] == want:
            agree.append(rep.key)
    assert agree == ["V1+V2", "2V2"]


def test_no_float_in_the_laurent_data():
    # Closed forms (V7, V30, 4V9), one_v1_rest_even (V1+2V4, V1+V2+V4), the
    # gamma2 exceptions (V5, 2V4, V8) and the full series fallback (V1, V4):
    # every value is an exact int or Fraction, never a float from an int
    # power sum divided by an int.
    for text in ["V7", "V30", "4V9", "V1+2V4", "V1+V2+V4", "V5", "2V4", "V8", "V1", "V4"]:
        rep = parse_rep(text)
        values = list(gammas(rep).gamma)
        for closed in (gamma0, gamma1, gamma2, gamma3, first_coeff_sum):
            try:
                values.append(closed(rep))
            except ValueError:
                pass
        assert all(type(v) in (int, Fraction) for v in values), (text, values)


def test_a_invariant():
    assert a_invariant(parse_rep("V1")) == 0
    assert a_invariant(parse_rep("V2")) == -2
    assert a_invariant(parse_rep("2V1")) == -2
    assert a_invariant(parse_rep("V3")) == -4
    assert a_invariant(parse_rep("V7")) == -8
    assert a_invariant(parse_rep("2V3+V4")) == -13
    with pytest.raises(ValueError):
        a_invariant(parse_rep("V0+V2"))


def test_a_invariant_builds_no_series(monkeypatch):
    # V8 is a gamma2 exception; the a-invariant is read from
    # pole_and_a_invariant alone
    calls = []
    compute = series_mod._compute

    def counted(rep):
        calls.append(rep)
        return compute(rep)

    monkeypatch.setattr(series_mod, "_compute", counted)
    assert a_invariant(parse_rep("V8")) == -9
    assert calls == []


def test_hilbert1893_values():
    assert hilbert1893_gamma0(5) == F("1/192")
    assert hilbert1893_gamma0(6) == F("1/240")
    assert hilbert1893_gamma0(7) == F("11/11520")
    with pytest.raises(ValueError):
        hilbert1893_gamma0(4)


def test_first_coeff_sum():
    assert first_coeff_sum(parse_rep("V1")) == 1
    assert first_coeff_sum(parse_rep("V2")) == F("-1/4")
    assert first_coeff_sum(parse_rep("2V1")) == -1
    for text in ["V3", "V4", "V5", "2V2", "V2+V3", "V1+V2"]:
        assert first_coeff_sum(parse_rep(text)) == 0


def test_perturbed_params_validation():
    rep = parse_rep("V2+V3")
    with pytest.raises(ValueError):
        perturbed_params(rep, [1, 2])            # wrong count
    with pytest.raises(ValueError):
        perturbed_params(rep, [1, 2, 2])         # repeated
    with pytest.raises(ValueError):
        perturbed_params(rep, [1, -2, 3])        # not positive
    params = perturbed_params(rep, [Fraction(5, 2), 1, 3])
    # negatives mirror their partners, zeros stay put
    assert params.values == (-Fraction(5, 2), 0, Fraction(5, 2), -3, -1, 1, 3)


def test_random_params_deterministic():
    rep = parse_rep("2V3")
    a = random_params(rep, random.Random(11)).values
    b = random_params(rep, random.Random(11)).values
    assert a == b


def test_sigma_sums_match_schur_side():
    rng = random.Random(5150)
    for text in ["V2+V3", "2V3", "V9"]:
        rep = parse_rep(text)
        dim = rep.dim
        for _ in range(4):
            params = random_params(rep, rng)
            shapes = [(dim - 3,), (dim - 4, 1), (dim - 5, 1, 1), (dim - 6, 1, 1, 1),
                      (dim - 6, 2, 1), (dim - 7, 1, 1, 1, 1)]
            for exps in shapes:
                assert sigma_sum_raw(exps, params) == sigma_sum_schur(exps, params)


def test_only_two_positive_weights_reach_a_jacobi_trudi_determinant(monkeypatch):
    # A term of sigma_sum_schur is nonzero only if its power sums have even
    # exponents 2k, k <= 1 on verify's four shapes; then rho + delta is
    # (2n - 4 - 2k, 2n - 4, 2n - 6, ..., 0) over the n positive weights, which
    # repeats an entry once n >= 3.  So there the Schur side is 0 and
    # `verify --draws` checks that the raw nested weight sums vanish.
    reached = []

    def spy(rho, points):
        n = len(rho)
        if len({r + n - 1 - i for i, r in enumerate(rho)}) == n:
            reached.append((len(points), rho))
        return schur_eval(rho, points)

    monkeypatch.setattr(laurent_mod, "schur_eval", spy)
    rng = random.Random(1)
    for rep in (r for r in SMALL_REPS if r.dim <= 12):
        dim = rep.dim
        params = random_params(rep, rng)
        for exps in [(dim - 3,), (dim - 4, 1), (dim - 5, 1, 1), (dim - 6, 1, 1, 1)]:
            sigma_sum_schur(exps, params)
    assert reached and all(npos <= 2 for npos, _ in reached)
    assert (2, (-3, 0)) in reached


def test_gamma_raw_recombines_into_weight_sums():
    rng = random.Random(77)
    for text in ["V2+V3", "2V3", "V2+V4"]:
        rep = parse_rep(text)
        dim = rep.dim
        sigma = weight_system(rep).sigma
        params = random_params(rep, rng)

        def S(*exps):
            return sigma_sum_raw(exps, params)

        assert gamma_raw(0, params) == sigma * (
            S(dim - 3) - 2 * S(dim - 4) - S(dim - 4, 1))

        assert gamma_raw(1, params) == sigma * (
            Fraction(2, 3) * S(dim - 3) - 2 * S(dim - 4)
            + Fraction(4, 3) * S(dim - 5)
            + Fraction(1, 6) * S(dim - 5, 2)
            - Fraction(5, 6) * S(dim - 4, 1)
            + S(dim - 5, 1)
            + Fraction(1, 2) * S(dim - 5, 1, 1))

        assert gamma_raw(2, params) == sigma * Fraction(1, 24) * (
            12 * S(dim - 3) - 44 * S(dim - 4)
            + 48 * S(dim - 5) - 16 * S(dim - 6)
            - 16 * S(dim - 4, 1) + 32 * S(dim - 5, 1)
            - 16 * S(dim - 6, 1) - 4 * S(dim - 6, 2)
            + 4 * S(dim - 5, 2) + 7 * S(dim - 5, 1, 1)
            - 6 * S(dim - 6, 1, 1) - 2 * S(dim - 6, 2, 1)
            - S(dim - 6, 1, 1, 1))


def test_gamma_raw_at_true_weights():
    # With no repeated weight the raw sums can run at the integer weights
    # themselves, where they must give the closed forms; V1+V6 and V1+V8
    # also run the OneV1RestEven terms.
    for text in ["V7", "V9", "V10", "V3+V6", "V1+V6", "V1+V8"]:
        rep = parse_rep(text)
        params = perturbed_params(rep, weight_system(rep).a_vec)
        assert gamma_raw(0, params) == gamma0(rep), text
        assert gamma_raw(1, params) == gamma1(rep), text
        assert gamma_raw(2, params) == gamma2(rep), text


def test_gammas_computes_once_per_rep(monkeypatch):
    calls = []
    coefficients = laurent_mod._coefficients

    def counted(rep, tag):
        calls.append(rep.key)
        return coefficients(rep, tag)

    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    monkeypatch.setattr(laurent_mod, "_coefficients", counted)
    rep = parse_rep("V9")
    closed = [gamma0(rep), gamma1(rep), gamma2(rep), gamma3(rep)]
    first = gammas(rep)
    assert gammas(parse_rep("V9")) is first
    assert list(first.gamma) == closed
    assert calls == ["V9"]


@pytest.mark.parametrize("spec", ["V4", "V8", "2V4", "V9", "V2+2V3", "V1+2V4"])
def test_memoized_gammas_equal_a_fresh_computation(monkeypatch, spec):
    # V4 and 2V4 fall back to the series for every coefficient, V8 for
    # gamma2; V1+2V4 is OneV1RestEven
    memoized = gammas(parse_rep(spec))
    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    assert gammas(parse_rep(spec)) == memoized


def test_gammas_refusal_is_not_memoized(monkeypatch):
    monkeypatch.setattr(laurent_mod, "_MEMO", {})
    for _ in range(3):
        with pytest.raises(ValueError):
            gammas(parse_rep("2V0+V3"))
    assert laurent_mod._MEMO == {}


def test_trivial_rejected():
    with pytest.raises(ValueError):
        gammas(parse_rep("V0"))
    with pytest.raises(ValueError):
        first_coeff_sum(parse_rep("V0+V3"))


def _jt_ratio(rho, points):
    # s_rho / s_delta with s_rho a Jacobi-Trudi determinant
    return schur_eval(rho, points) / schur_delta(points)


def _rho0(n):
    # gamma0 numerator vector: three copies of n-3 on top of the staircase,
    # (-1, -1) at n = 2
    return (-1, -1) if n == 2 else (n - 3,) * 3 + tuple(range(n - 4, -1, -1))


def _staircase(top, n):
    return (top,) + tuple(range(n - 2, -1, -1))


def test_closed_forms_match_jacobi_trudi():
    # The closed forms as Schur ratios with determinant numerators, against
    # the divided-difference sums gamma0 / gamma2 / gamma3 / first_coeff_sum
    # now use: values and types.
    reps = [Representation(degs) for n in range(1, 8)
            for degs in combinations_with_replacement(range(1, 14), n)
            if n + sum(degs) <= 14]
    # the closed-form reps of the gammas benchmark, then high multiplicities
    reps += [parse_rep(text) for text in (
        "V30", "V40", "V50", "V60", "4V9", "5V11", "3V7+V8", "V10+V11+V12",
        "7V2", "12V1", "5V2+5V4", "4V1+2V5")]
    for rep in reps:
        tag = classify_case(rep)
        ws = weight_system(rep)
        n = ws.npos
        if rep.degrees not in FIRST_COEFF_EXCEPTIONS:
            fcs = _jt_ratio(_staircase(n - 3, n), ws.a_vec)
            assert first_coeff_sum(rep) == fcs and type(first_coeff_sum(rep)) is type(fcs), rep
        if tag.in_gamma0_exceptions:
            continue
        g0 = ws.sigma * _jt_ratio(_rho0(n), ws.a_vec)
        assert gamma0(rep) == g0 and type(gamma0(rep)) is type(g0), rep
        if tag.in_gamma2_exceptions:
            continue
        p2 = power_sum(ws.weights, 2)
        g2 = (Fraction(7, 4) * g0
              + ws.sigma * _jt_ratio(_staircase(n - 6, n), ws.a_vec) * (p2 - 8) / 24)
        if tag.one_v1_rest_even:
            g2 += _jt_ratio(_rho0(n - 1), ws.a_vec[1:]) / 4
        g3 = Fraction(5, 2) * (g2 - g0)
        assert gamma2(rep) == g2 and type(gamma2(rep)) is type(g2), rep
        assert gamma3(rep) == g3 and type(gamma3(rep)) is type(g3), rep


@pytest.mark.parametrize("d", [151, 333, 500, 777, 999])
def test_gamma0_matches_hilbert1893_past_150(d):
    # the closed gamma0 against Hilbert's 1893 form, which shares no code
    # with it, up to the largest V_d parse_rep admits
    assert gamma0(Representation((d,))) == hilbert1893_gamma0(d)


def test_closed_forms_reach_max_dim():
    # gamma0(V_d) against Hilbert's 1893 form up to d = 150, and gammas at
    # dim MAX_DIM, all well inside 10 s.
    start = time.perf_counter()
    for d in range(5, 151):
        assert gamma0(Representation((d,))) == hilbert1893_gamma0(d), d
    res = gammas(Representation((MAX_DIM - 1,)))
    assert res.rep.dim == MAX_DIM
    assert res.methods == ("ClosedForm",) * 4
    assert res.pole_order == MAX_DIM - 3
    assert time.perf_counter() - start < 10
