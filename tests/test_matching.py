import pytest

from matchdescents import matching as mm
from matchdescents import perm

from oracles import (
    crossing_number_oracle,
    enumerate_inkj,
    matching_from_json,
    matching_to_json,
    nesting_number_oracle,
)

FIG1 = mm.matching(8, (1, 6), (3, 4), (5, 7))


def test_involution_conversion():
    assert mm.to_involution(FIG1) == (6, 2, 4, 3, 7, 1, 5, 8)
    assert mm.to_involution(mm.matching(3)) == (1, 2, 3)
    assert mm.from_involution((2, 1, 4, 3)) == mm.matching(4, (1, 2), (3, 4))
    with pytest.raises(ValueError):
        mm.from_involution((2, 3, 1))
    with pytest.raises(ValueError):
        mm.matching(4, (1, 2), (2, 3))


def test_des():
    assert sorted(mm.des(FIG1).members) == [1, 3, 5]
    assert mm.des(mm.matching(3)).members == frozenset()
    assert mm.des(mm.matching(4, (1, 3), (2, 4))).members == frozenset({2})


def test_mdes():
    assert sorted(mm.mdes(FIG1).members) == [2, 3, 5, 6]
    assert mm.mdes(mm.matching(3)).members == frozenset()
    assert sorted(mm.mdes(mm.matching(4, (1, 3), (2, 4))).members) == [1, 2, 3]


def test_cmdes():
    assert sorted(mm.cmdes(FIG1).members) == [2, 3, 5, 6, 8]
    assert sorted(mm.cmdes(mm.matching(8, (2, 7), (4, 5), (6, 8))).members) == [1, 3, 4, 6, 7]
    assert mm.cmdes(mm.matching(2, (1, 2))).members == frozenset({1, 2})


def test_rotate():
    assert mm.rotate(FIG1) == mm.matching(8, (2, 7), (4, 5), (6, 8))
    assert mm.rotate(mm.matching(3)) == mm.matching(3)
    m = FIG1
    for _ in range(8):
        m = mm.rotate(m)
    assert m == FIG1


def test_crossing_nesting():
    assert mm.crossing_number(FIG1) == 2
    assert mm.nesting_number(FIG1) == 2
    one_arc = mm.matching(2, (1, 2))
    assert mm.crossing_number(one_arc) == 1
    assert mm.nesting_number(one_arc) == 1
    assert mm.crossing_number(mm.matching(4, (1, 3), (2, 4))) == 2
    assert mm.nesting_number(mm.matching(4, (1, 3), (2, 4))) == 1
    assert mm.crossing_number(mm.matching(4, (1, 4), (2, 3))) == 1
    assert mm.nesting_number(mm.matching(4, (1, 4), (2, 3))) == 2
    assert mm.crossing_number(mm.matching(3)) == 0
    for n in (4, 6, 8):
        maximal = mm.matching(n, *((i, i + n // 2) for i in range(1, n // 2 + 1)))
        assert mm.crossing_number(maximal) == n // 2


@pytest.mark.parametrize("n", range(1, 10))
def test_oracle_agreement(n):
    for m in mm.enumerate_all_matchings(n):
        assert mm.crossing_number(m) == crossing_number_oracle(m)
        assert mm.nesting_number(m) == nesting_number_oracle(m)


def test_counts():
    assert [mm.count_matchings(n2, 0) for n2 in (2, 4, 6, 8, 10)] == [1, 3, 15, 105, 945]
    for n in range(1, 10):
        for k in range(n % 2, n + 1, 2):
            listed = list(mm.enumerate_matchings(n, k))
            assert len(listed) == len(set(listed)) == mm.count_matchings(n, k)


def test_enumerate_inkj():
    for m in enumerate_inkj(6, 2, 1):
        assert m.unmatched == 2 and mm.nesting_number(m) == 1
    sizes = [len(list(enumerate_inkj(6, 0, j))) for j in range(4)]
    assert sum(sizes) == mm.count_matchings(6, 0)
    with pytest.raises(ValueError):
        list(enumerate_inkj(6, 0, 4))


def test_codecs():
    assert mm.parse_matching("1-6,3-4,5-7", 8) == FIG1
    assert mm.format_matching(FIG1) == "1-6,3-4,5-7"
    assert mm.parse_matching("", 3) == mm.matching(3)
    assert matching_from_json(matching_to_json(FIG1)) == FIG1
    with pytest.raises(mm.ParseError):
        mm.parse_matching("1-2,2-3", 3)
    with pytest.raises(mm.ParseError):
        mm.parse_matching("1:2", 3)


@pytest.mark.parametrize(
    "arcs,message",
    [
        (((1, 1),), "degenerate arc"),
        (((1, 2), (3, 3)), "degenerate arc"),
        (((9, 9),), "degenerate arc"),
        (((1, 2), (2, 3)), "arcs are not pairwise disjoint"),
        (((1, 9),), r"endpoint out of range \[1,4\]"),
    ],
)
def test_constructor_names_the_fault(arcs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mm.Matching(4, arcs)


def test_constructor_refuses_a_negative_n():
    for n, arcs in ((-1, ()), (-5, ()), (-3, ((1, 2),))):
        with pytest.raises(ValueError, match=f"^invalid n = {n}$"):
            mm.Matching(n, arcs)
    assert mm.Matching(0, ()).unmatched == 0


def test_unmatched():
    assert FIG1.unmatched == 2
    assert FIG1.unmatched_points() == frozenset({2, 8})
    assert FIG1.partner(1) == 6 and FIG1.partner(2) is None
