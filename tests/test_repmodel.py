import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import parse_rep_scanner
from sl2hilb.laurent import perturbed_params
from sl2hilb.oracle import _variable_weights
from sl2hilb.repmodel import (MAX_DIM, Representation, RepParseError,
                              classify_case, parse_rep, weight_system)


def test_parse_basic_forms():
    assert parse_rep("V6").degrees == (6,)
    assert parse_rep("2V3+V4").degrees == (3, 3, 4)
    assert parse_rep("2*V3").degrees == (3, 3)
    assert parse_rep("v3 + v4").degrees == (3, 4)
    assert parse_rep(" V2 +2 V3 ").degrees == (2, 3, 3)
    assert parse_rep(" 2 * v3 + V0 ") == parse_rep("V0+2V3")


def test_parse_list_form():
    assert parse_rep("2,3,3").degrees == (2, 3, 3)
    assert parse_rep("3, 2").degrees == (2, 3)
    rep = parse_rep("0,0,2")
    assert rep.degrees == (2,)
    assert rep.trivial_count == 2


def test_parse_trivial():
    rep = parse_rep("V0")
    assert rep.degrees == ()
    assert rep.trivial_count == 1
    rep = parse_rep("3V0+V2")
    assert rep.trivial_count == 3
    assert rep.degrees == (2,)


def test_degrees_sorted_and_key_canonical():
    rep = parse_rep("V4+2V3")
    assert rep.degrees == (3, 3, 4)
    assert rep.key == "2V3+V4"
    assert parse_rep("V0").key == "V0"
    assert Representation((), 0).key == "0V0"
    # no spec names the zero rep, so its key must not parse to another rep
    # such as V0, which the list "0" names
    with pytest.raises(RepParseError):
        parse_rep(Representation(()).key)
    assert parse_rep("0") == Representation((), 1)
    assert parse_rep("V3+V2+V3").key == "V2+2V3"


def test_representation_is_an_immutable_sorted_record():
    rep = Representation((3, 1), 2)
    assert rep.degrees == (1, 3) and rep.trivial_count == 2
    for degrees, trivial in [((0,), 0), ((-2,), 0), (("3",), 0), ((2.0,), 0),
                             ((2,), -1), ((2,), 1.0)]:
        with pytest.raises(ValueError):
            Representation(degrees, trivial)
    with pytest.raises(AttributeError):
        rep.degrees = (5,)
    with pytest.raises(AttributeError):
        rep.label = "V1+V3"
    same = parse_rep("V3+V1+2V0")
    assert same == rep and hash(same) == hash(rep)
    # only another Representation compares equal, not a tuple of its fields
    assert (Representation((3,)) == ((3,), 0)) is False
    assert str(rep) == "%s" % rep == rep.key == "2V0+V1+V3"
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_parse_errors_carry_position():
    for text in ["2V", "V", "+V2", "0V3", "Vx", "V2+", "V2 junk", "2,x", ""]:
        with pytest.raises(RepParseError) as err:
            parse_rep(text)
        assert "position" in str(err.value)
    # a spec that is not a string has no position to report
    with pytest.raises(RepParseError, match="must be a string"):
        parse_rep(None)


def test_empty_term_positions():
    # an empty term or degree points at the separator after it, or at the
    # end of the spec: its last non-space character + 1, in both forms
    cases = {"+V2": 0, "V2++V3": 3, "2,,3": 2, "V2+": 3, "V2 + ": 4, "2,3, ": 4}
    for text, position in cases.items():
        with pytest.raises(RepParseError) as err:
            parse_rep(text)
        assert err.value.position == position, text


def _outcome(parse, text):
    try:
        return parse(text)
    except RepParseError as exc:
        return str(exc), exc.position


EMPTY_TERM_MESSAGES = ("empty term", "expected a degree")


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet="0123456789 vV+*, x-_", max_size=12))
@example("2 * v3 + V0")
@example("2V +V3")
@example("3_0,+3")
@example("9" * 5000)
@example("V" + "9" * 5000)
@example("5,%d" % MAX_DIM)
def test_parse_matches_the_scanner(text):
    # the regular expression accepts what the character scanner accepted,
    # and rejects the rest with the same message at the same position;
    # empty terms, whose positions moved on purpose, compare by message
    got, want = _outcome(parse_rep, text), _outcome(parse_rep_scanner, text)
    if isinstance(want, tuple) and want[0].startswith(EMPTY_TERM_MESSAGES):
        assert isinstance(got, tuple) and got[0].split(" (at")[0] == want[0].split(" (at")[0]
    else:
        assert got == want


def test_non_ascii_digits_parse_as_int_or_fail_with_a_position():
    # '²' passes str.isdigit but not int(); '٣' is a digit int() reads as 3
    assert parse_rep("٣V2") == parse_rep("3V2")
    assert parse_rep("٣,2") == parse_rep("3,2")
    for text, position in (("V²", 1), ("²V3", 0)):
        with pytest.raises(RepParseError) as err:
            parse_rep(text)
        assert err.value.position == position, text


def test_dim():
    assert parse_rep("V6").dim == 7
    assert parse_rep("2V3+V4").dim == 13
    assert parse_rep("V1").dim == 2


def test_weight_system_v4():
    ws = weight_system(parse_rep("V4"))
    assert ws.weights == (-4, -2, 0, 2, 4)
    assert ws.a_vec == (2, 4)
    assert ws.npos == 2
    assert ws.neven == 1
    assert ws.sigma == 2


def test_weight_system_mixed():
    ws = weight_system(parse_rep("V2+V3"))
    # lex order over (summand, position)
    assert ws.a_vec == (2, 1, 3)
    assert ws.sigma == 1
    assert ws.npos == 3
    assert ws.neven == 1


def test_dim_identity():
    # dim = 2 * npos + zero-weight count
    for text in ["V1", "V5", "2V3+V4", "V1+V2+V6", "4V2", "V7+V8"]:
        rep = parse_rep(text)
        ws = weight_system(rep)
        assert rep.dim == 2 * ws.npos + ws.neven


def _flags(text):
    tag = classify_case(parse_rep(text))
    return (tag.in_gamma0_exceptions, tag.in_gamma2_exceptions, tag.one_v1_rest_even)


def test_classify_exceptions():
    for text in ["V1", "V2", "V3", "V4", "2V1"]:
        assert _flags(text)[0], text
    for text in ["V5", "V6", "V8", "V1+V2", "V1+V3", "V1+V4",
                 "2V2", "V2+V3", "V2+V4", "2V3", "2V4"]:
        assert _flags(text)[:2] == (False, True), text


def test_classify_one_v1_rest_even():
    assert _flags("V1+2V2") == (False, False, True)
    # two copies of V1 do not qualify
    assert _flags("2V1+V2") == (False, False, False)
    # an odd summand above 1 does not qualify
    assert _flags("V1+V2+V3") == (False, False, False)


def test_classify_generic():
    for text in ["V7", "V9", "V2+V5", "3V2", "2V3+V4"]:
        assert _flags(text) == (False, False, False), text


def test_classify_rejects_trivial():
    with pytest.raises(ValueError):
        classify_case(parse_rep("V0"))
    with pytest.raises(ValueError):
        classify_case(parse_rep("V0+V2"))
    with pytest.raises(ValueError, match="nonzero rep"):
        classify_case(Representation(()))


def _mults(text):
    # series reads its distinct weights and multiplicities off this Counter
    return Counter(weight_system(parse_rep(text)).weights)


def test_grouped_weights_single_odd():
    mults = _mults("V3")
    assert [w for w in mults if w % 2 == 0] == []
    assert mults == {3: 1, 1: 1, -1: 1, -3: 1}


def test_grouped_weights_combined():
    mults = _mults("V2+2V3")
    assert {w: m for w, m in mults.items() if w % 2 == 0} == {2: 1, 0: 1, -2: 1}
    assert {w: m for w, m in mults.items() if w % 2} == {3: 2, 1: 2, -1: 2, -3: 2}


def test_grouped_weights_nested_even():
    mults = _mults("V2+V4")
    # weight 2 appears in both summands, weight 4 only in V4
    assert mults == {4: 1, 2: 2, 0: 2, -2: 2, -4: 1}


@st.composite
def reps_up_to_dim_30(draw):
    degrees = []
    budget = 30
    while budget >= 2 and (not degrees or draw(st.booleans())):
        d = draw(st.integers(1, budget - 1))
        degrees.append(d)
        budget -= d + 1
    return Representation(tuple(degrees), draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(reps_up_to_dim_30(), st.data())
def test_weight_list_properties(rep, data):
    ws = weight_system(rep)
    weights = ws.weights
    assert rep.dim == len(weights) == 2 * ws.npos + ws.neven
    for s in (1, 3, 5, 7):
        assert sum(w ** s for w in weights) == 0
    assert ws.a_vec == tuple(w for w in weights if w > 0)
    mults = Counter(weights)
    for w in range(-max(rep.degrees), max(rep.degrees) + 1):
        assert mults[w] == sum(1 for d in rep.degrees if d >= abs(w) and (d - w) % 2 == 0)
    # the oracle's own list, which ends in one 0 per trivial summand
    assert mults == Counter(_variable_weights(rep)[:rep.dim])

    vals = data.draw(st.lists(st.fractions(Fraction(1, 16), 60, max_denominator=16),
                              min_size=ws.npos, max_size=ws.npos, unique=True))
    values = perturbed_params(rep, vals).values
    assert all((b > 0) - (b < 0) == (w > 0) - (w < 0) for b, w in zip(values, weights))
    start = 0
    for d in rep.degrees:
        block = values[start:start + d + 1]
        assert block == tuple(-b for b in reversed(block))
        start += d + 1
    assert [b for b in values if b > 0] == vals


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_key_parses_back(degrees):
    # every rep a spec can name; the zero rep, which none names, is checked
    # in test_degrees_sorted_and_key_canonical
    rep = Representation(tuple(d for d in degrees if d), degrees.count(0))
    assert parse_rep(rep.key) == rep


def test_parse_rejects_dimension_over_limit():
    assert parse_rep("%dV0" % MAX_DIM).trivial_count == MAX_DIM
    for text in ["%dV0" % (MAX_DIM + 1), "99999999999999999999V1", "5,%d" % MAX_DIM]:
        with pytest.raises(RepParseError):
            parse_rep(text)
