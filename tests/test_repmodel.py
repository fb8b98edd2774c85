import pytest

from sl2hilb.repmodel import (MAX_DIM, Representation, RepParseError,
                              classify_case, grouped_weights, parse_rep,
                              weight_system)


def test_parse_basic_forms():
    assert parse_rep("V6").degrees == (6,)
    assert parse_rep("2V3+V4").degrees == (3, 3, 4)
    assert parse_rep("2*V3").degrees == (3, 3)
    assert parse_rep("v3 + v4").degrees == (3, 4)
    assert parse_rep(" V2 +2 V3 ").degrees == (2, 3, 3)


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
    assert Representation((), 0).key == "0"
    assert parse_rep("V3+V2+V3").key == "V2+2V3"


def test_parse_errors_carry_position():
    for text in ["2V", "V", "+V2", "0V3", "Vx", "V2+", "V2 junk", "2,x", ""]:
        with pytest.raises(RepParseError) as err:
            parse_rep(text)
        assert "position" in str(err.value)


def test_dim():
    assert parse_rep("V6").dim == 7
    assert parse_rep("2V3+V4").dim == 13
    assert parse_rep("V1").dim == 2


def test_weight_system_v4():
    ws = weight_system(parse_rep("V4"))
    assert [w for (_, _, w) in ws.theta] == [-4, -2, 0, 2, 4]
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


def test_grouped_weights_single_odd():
    gw = grouped_weights(parse_rep("V3"))
    assert gw.even_weights == ()
    assert gw.odd_weights == (3, 1, -1, -3)
    assert gw.odd_mults == (1, 1, 1, 1)


def test_grouped_weights_combined():
    gw = grouped_weights(parse_rep("V2+2V3"))
    assert gw.even_weights == (2, 0, -2)
    assert gw.even_mults == (1, 1, 1)
    assert gw.odd_weights == (3, 1, -1, -3)
    assert gw.odd_mults == (2, 2, 2, 2)


def test_grouped_weights_nested_even():
    gw = grouped_weights(parse_rep("V2+V4"))
    assert gw.even_weights == (4, 2, 0, -2, -4)
    # weight 2 appears in both summands, weight 4 only in V4
    assert gw.even_mults == (1, 2, 2, 2, 1)


def test_parse_rejects_dimension_over_limit():
    assert parse_rep("%dV0" % MAX_DIM).trivial_count == MAX_DIM
    for text in ["%dV0" % (MAX_DIM + 1), "99999999999999999999V1", "5,%d" % MAX_DIM]:
        with pytest.raises(RepParseError):
            parse_rep(text)
