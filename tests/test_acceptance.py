"""Acceptance gate: one test per shipped claim, exact arithmetic throughout.

Each test prints a single PASS line on success; any failure shows up as a
normal pytest failure for that criterion.
"""

import random
import time
from fractions import Fraction

from references import bialternant_eval
from sl2hilb.cli import FIXTURES
from sl2hilb.exactalg import (FactoredDenominator, Polynomial,
                              RationalFunction, laurent_at_one, rf_equal,
                              taylor_coeffs)
from sl2hilb.laurent import (first_coeff_sum, gamma0, gamma1, gamma2, gamma3,
                             gammas, hilbert1893_gamma0, random_params,
                             sigma_sum_raw, sigma_sum_schur)
from sl2hilb.oracle import truncated_series
from sl2hilb.repmodel import Representation, classify_case, parse_rep, \
    weight_system
from sl2hilb.schur import schur_delta, schur_eval
from sl2hilb.series import hilbert_series


def degree_multisets(max_dim):
    """All nondecreasing degree tuples with len + sum <= max_dim."""
    found = []

    def rec(start, budget, cur):
        for d in range(start, budget):
            cur.append(d)
            found.append(tuple(cur))
            rec(d, budget - d - 1, cur)
            cur.pop()

    rec(1, max_dim, [])
    return found


def report(n, label, t0):
    print("ACCEPTANCE %d %s: PASS (%.1fs)" % (n, label, time.perf_counter() - t0))


def test_acceptance_1_fixture_table():
    t0 = time.perf_counter()
    for row in FIXTURES:
        rep = parse_rep(row.key)
        series = hilbert_series(rep)
        assert rf_equal(series, row.series), row.key
        exp = laurent_at_one(series, 4)
        assert exp.coeffs == row.gamma, row.key
        res = gammas(rep)
        assert res.gamma == row.gamma, row.key
        assert res.a_invariant == row.a_invariant, row.key
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(1, "fixture table, 16 rows", t0)


def test_acceptance_2_worked_example():
    t0 = time.perf_counter()
    exps = {0: 1, 3: 1, 4: 3, 5: 4, 6: 5, 7: 8, 8: 7, 9: 3, 10: 2, 11: -2,
            12: -3, 13: -7, 14: -8, 15: -5, 16: -4, 17: -3, 18: -1, 21: -1}
    coeffs = [0] * 22
    for e, c in exps.items():
        coeffs[e] = c
    want = RationalFunction(Polynomial(coeffs),
                            FactoredDenominator({2: 2, 3: 2, 4: 3, 5: 2}))
    got = hilbert_series(parse_rep("V2+2V3"))
    assert rf_equal(got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    report(2, "V2+2V3 worked example", t0)


def test_acceptance_3_classical_cross_check():
    t0 = time.perf_counter()
    for d in range(5, 21):
        assert hilbert1893_gamma0(d) == gamma0(Representation((d,))), d
    assert gamma0(Representation((7,))) == Fraction(11, 11520)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    report(3, "19th century closed form, d=5..20", t0)


def test_acceptance_4_oracle_equivalence():
    t0 = time.perf_counter()
    small = degree_multisets(12)
    assert len(small) == 76
    pool = [degs for degs in degree_multisets(16)
            if len(degs) + sum(degs) > 12]
    rng = random.Random(2024)
    picks = rng.sample(pool, 25)
    for degs in small + picks:
        rep = Representation(degs)
        got = taylor_coeffs(hilbert_series(rep), 31)
        want = truncated_series(rep, 30)
        assert got == want, degs
    report(4, "oracle equivalence, %d reps" % (len(small) + 25), t0)


def test_acceptance_5_closed_form_vs_series():
    t0 = time.perf_counter()
    pool = []
    for degs in degree_multisets(14):
        rep = Representation(degs)
        tag = classify_case(rep)
        if not tag.in_gamma0_exceptions and not tag.in_gamma2_exceptions:
            pool.append(rep)
    rng = random.Random(515)
    for rep in rng.sample(pool, 25):
        g0, g1, g2, g3 = gamma0(rep), gamma1(rep), gamma2(rep), gamma3(rep)
        exp = laurent_at_one(hilbert_series(rep), 4)
        assert (g0, g1, g2, g3) == exp.coeffs, rep
        assert 10 * g1 - 15 * g2 + 6 * g3 == 0, rep
        assert g1 == Fraction(3, 2) * g0, rep
    report(5, "closed forms vs series, 25 reps", t0)


def test_acceptance_6_weight_sum_identities():
    t0 = time.perf_counter()
    reps = ["V2+V3", "V9", "2V3", "V1+V2+V2", "2V4+V2"]
    rng = random.Random(6161)
    for text in reps:
        rep = parse_rep(text)
        dim = rep.dim
        shapes = [(dim - 3,), (dim - 4, 1), (dim - 5, 1, 1), (dim - 6, 1, 1, 1)]
        for _ in range(100):
            params = random_params(rep, rng)
            for exps in shapes:
                assert sigma_sum_raw(exps, params) == \
                    sigma_sum_schur(exps, params), (text, exps)
    report(6, "weight sum identities, 5 reps x 100 draws", t0)


def test_acceptance_7_structural_invariants():
    t0 = time.perf_counter()
    pool = degree_multisets(14)
    rng = random.Random(747)
    small = {(1,), (1, 1), (2,)}
    degenerate_a = {(1,): 0, (1, 1): -2, (2,): -2, (3,): -4, (4,): -5}
    exceptional_sum = {(1,): Fraction(1), (1, 1): Fraction(-1),
                       (2,): Fraction(-1, 4)}
    for degs in rng.sample(pool, 50):
        rep = Representation(degs)
        dim = rep.dim
        series = hilbert_series(rep)
        if degs not in small:
            exp = laurent_at_one(series, 1)
            assert exp.pole_order == dim - 3, degs
            flip = series.at_reciprocal()
            shifted = RationalFunction(
                series.num.shifted(dim) * ((-1) ** (dim - 3)), series.den)
            assert rf_equal(flip, shifted), degs
        want_a = degenerate_a.get(degs, -dim)
        assert series.degree() == want_a, degs
        assert first_coeff_sum(rep) == exceptional_sum.get(degs, 0), degs
    report(7, "structural invariants, 50 reps", t0)


def test_acceptance_8_scale_check():
    t0 = time.perf_counter()
    rep = Representation((16,))
    series = hilbert_series(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    assert series.degree() == -17
    assert taylor_coeffs(series, 41) == truncated_series(rep, 40)
    report(8, "V16 scale check", t0)


def test_acceptance_9_schur_properties():
    t0 = time.perf_counter()
    rng = random.Random(909)

    def rand_points(n):
        pts = set()
        while len(pts) < n:
            pts.add(Fraction(rng.randint(1, 60), rng.randint(1, 16)))
        return tuple(pts)

    for _ in range(200):
        n = rng.randint(1, 5)
        rho = tuple(sorted((rng.randint(-4, 7) for _ in range(n)),
                           reverse=True))
        pts = rand_points(n)
        assert bialternant_eval(rho, pts) == schur_eval(rho, pts)

    for _ in range(100):
        n = rng.randint(1, 4)
        rho = tuple(sorted((rng.randint(-3, 6) for _ in range(n)),
                           reverse=True))
        pts = rand_points(n)
        c = rng.randint(-3, 3)
        prod = Fraction(1)
        for p in pts:
            prod *= p
        assert schur_eval(tuple(r + c for r in rho), pts) == \
            prod ** c * schur_eval(rho, pts)

    pool = [degs for degs in degree_multisets(12) if degs != (1,)]
    for degs in rng.sample(pool, 50):
        ws = weight_system(Representation(degs))
        delta = tuple(range(ws.npos - 1, -1, -1))
        prod = Fraction(1)
        for i in range(ws.npos):
            for j in range(i + 1, ws.npos):
                prod *= ws.a_vec[i] + ws.a_vec[j]
        assert schur_eval(delta, ws.a_vec) == prod, degs
        assert schur_delta(ws.a_vec) == prod, degs
    report(9, "Schur property suite", t0)
