from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import (dim_invariants, multigraded_dim, multigraded_dim_walk,
                        truncated_series_walk)
from sl2hilb.exactalg import taylor_coeffs
from sl2hilb.oracle import _packed_rows, _slots, _variable_weights, packed_bits, truncated_series
from sl2hilb.repmodel import Representation, parse_rep


def test_single_even_form():
    # invariants of V2 are generated by the discriminant, degree 2
    assert truncated_series(parse_rep("V2"), 8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_single_v3():
    assert truncated_series(parse_rep("V3"), 8) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_v4_matches_known_series():
    # 1/((1-t^2)(1-t^3))
    want = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2]
    assert truncated_series(parse_rep("V4"), 9) == want


def test_trivial_summands():
    assert truncated_series(parse_rep("V0"), 5) == [1] * 6
    # V0 + V2: product of 1/(1-t) and 1/(1-t^2)
    assert truncated_series(parse_rep("V0+V2"), 6) == [1, 1, 2, 2, 3, 3, 4]


def test_dim_invariants():
    rep = parse_rep("V4")
    assert dim_invariants(rep, 6) == 2      # t^2 and t^3 generators give 2 in degree 6
    assert dim_invariants(rep, 1) == 0


def test_truncated_series_empty():
    assert truncated_series(parse_rep("V2"), -1) == []
    with pytest.raises(ValueError, match="zero rep"):
        truncated_series(Representation(()), 3)


def test_multigraded_sums_to_single_grading():
    rep = parse_rep("V2+V3")
    for n in range(9):
        total = sum(multigraded_dim(rep, (a, n - a)) for a in range(n + 1))
        assert total == dim_invariants(rep, n)


def test_multigraded_known_value():
    # degree (1,2) invariant of V2+V3: the unique covariant pairing
    assert multigraded_dim(parse_rep("V2+V3"), (1, 2)) == 1


def test_multigraded_validation():
    rep = parse_rep("V2+V3")
    with pytest.raises(ValueError):
        multigraded_dim(rep, (1,))
    with pytest.raises(ValueError):
        multigraded_dim(rep, (-1, 0))


def test_oracle_matches_series_smoke():
    from sl2hilb.series import hilbert_series
    for text in ["V5", "2V2", "V1+V4"]:
        rep = parse_rep(text)
        f = hilbert_series(rep)
        assert taylor_coeffs(f, 21) == truncated_series(rep, 20)


@st.composite
def _reps(draw):
    # nontrivial dim <= 14, V0 summands allowed, V0-only reps included
    degrees, dim = [], 0
    for d in draw(st.lists(st.integers(1, 13), max_size=6)):
        if dim + d + 1 <= 14:
            degrees.append(d)
            dim += d + 1
    trivial = draw(st.integers(0 if degrees else 1, 3))
    return Representation(tuple(degrees), trivial)


@given(_reps(), st.integers(0, 40))
@example(Representation((), 1), 40)           # V0 alone: M = 1
@example(Representation((), 3), 40)
@example(Representation((13,), 0), 40)        # largest weight at the largest depth
@example(Representation((1, 1, 2), 2), 40)
@example(Representation((1, 3, 5), 0), 40)    # all odd: halved lattice, odd rows 0
@example(Representation((2, 4), 2), 40)       # all even with trivial summands
@example(Representation((3,), 1), 40)         # odd with a trivial summand: mixed parity
@settings(max_examples=100, deadline=None)
def test_packed_counts_equal_the_walk(rep, depth):
    assert truncated_series(rep, depth) == truncated_series_walk(rep, depth)


@pytest.mark.parametrize("rep", [Representation((), 30), Representation((1,), 20)])
def test_counts_near_the_slot_width(rep):
    # 30V0: the degree 40 count C(69, 29) fills exactly B - 1 bits of its
    # slot; a carry would show in the weight 2 slot truncated_series subtracts.
    # 20V0+V1 fills B - 3 bits with both weight parities present
    ws = _variable_weights(rep)
    rows, m, width = _packed_rows(ws, 40)
    mask = (1 << width) - 1
    top = max((row >> k * width) & mask for row in rows for k in range(2 * 40 * m + 1))
    assert top.bit_length() >= width - 3
    if not rep.degrees:
        assert top.bit_length() == width - 1
        assert truncated_series(rep, 40) == [comb(n + 29, 29) for n in range(41)]
    assert truncated_series(rep, 40) == truncated_series_walk(rep, 40)


def test_packed_bits_reads_the_lattice_truncated_series_builds():
    # V16's weights are all even, so truncated_series counts in the halved
    # lattice, M = 8 in place of 16; V3+V4 mixes parities and keeps M = 4
    for spec, halved in (("V16", True), ("V3+V4", False)):
        rep = parse_rep(spec)
        m, width = _slots(_variable_weights(rep), 100)
        full = 100 ** 2 * m * width
        assert packed_bits(rep, 100) == (full // 2 if halved else full)


def test_multigraded_dim_equals_the_walk():
    for text in ["V2+V3", "V1+V4", "2V2", "V1+V2+V3", "V5+V6"]:
        rep = parse_rep(text)
        for degs in product(range(5), repeat=len(rep.degrees)):
            assert multigraded_dim(rep, degs) == multigraded_dim_walk(rep, degs)
