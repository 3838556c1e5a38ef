import pytest

from matchdescents import matching as mm
from matchdescents import oscillating as osc
from matchdescents import perm

from oracles import enumerate_oscillating

EX_SHAPES = ((), (1,), (1, 1), (2, 1), (2,), (1,), (1, 1), (1,), ())
EX_WORD = (5, 4, 8, 2, 1, 7, 6, 3)  # (1,5)(2,4)(3,8)(6,7)


def test_sundaram():
    assert osc.sundaram(EX_WORD).shapes == EX_SHAPES
    assert osc.sundaram((2, 1)).shapes == ((), (1,), ())
    assert osc.sundaram((3, 4, 1, 2)).shapes == ((), (1,), (2,), (1,), ())
    with pytest.raises(ValueError):
        osc.sundaram((1, 2))  # has fixed points


def test_sundaram_inverse():
    assert osc.sundaram_inverse(osc.OscillatingTableau(EX_SHAPES)) == EX_WORD
    assert osc.sundaram_inverse(osc.OscillatingTableau(((), (1,), ()))) == (2, 1)
    assert osc.sundaram_inverse(
        osc.OscillatingTableau(((), (1,), (1, 1), (1,), ()))
    ) == (4, 3, 2, 1)


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10])
def test_sundaram_bijection(n2):
    images = set()
    for m in mm.enumerate_matchings(n2, 0):
        word = mm.to_involution(m)
        o = osc.sundaram(word)
        assert osc.sundaram_inverse(o) == word
        images.add(o)
    # forward images exhaust the oscillating tableaux of that size
    assert images == set(enumerate_oscillating(n2))


def test_transpose():
    o = osc.transpose(osc.OscillatingTableau(EX_SHAPES))
    assert o.shapes == ((), (1,), (2,), (2, 1), (1, 1), (1,), (2,), (1,), ())
    trivial = osc.OscillatingTableau(((), (1,), ()))
    assert osc.transpose(trivial) == trivial


def test_chen_iota():
    m = mm.from_involution(EX_WORD)
    assert osc.chen_iota(m) == mm.matching(8, (1, 4), (2, 7), (3, 5), (6, 8))
    assert osc.chen_iota(mm.matching(2, (1, 2))) == mm.matching(2, (1, 2))
    assert osc.chen_iota(mm.matching(4, (1, 3), (2, 4))) == mm.matching(4, (1, 4), (2, 3))
    with pytest.raises(ValueError):
        osc.chen_iota(mm.matching(3, (1, 2)))


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10])
def test_chen_iota_properties(n2):
    for m in mm.enumerate_matchings(n2, 0):
        image = osc.chen_iota(m)
        assert osc.chen_iota(image) == m
        assert mm.crossing_number(image) == mm.nesting_number(m)
        assert mm.nesting_number(image) == mm.crossing_number(m)
        assert mm.des(image).members == mm.mdes(m).members


def test_chen_iota_negative_witness():
    # descent transport fails once unmatched points are present
    pi = mm.matching(5, (1, 4), (2, 5))
    sigma = mm.matching(5, (1, 5), (2, 4))
    assert mm.des(pi).members == frozenset({2, 3})
    assert mm.mdes(sigma).members == frozenset({3})
    assert mm.des(pi).members != mm.mdes(sigma).members
    assert mm.des(sigma).members == frozenset({1, 2, 3, 4})
    assert mm.mdes(pi).members == frozenset({1, 3, 4})
    assert mm.des(sigma).members != mm.mdes(pi).members


def test_kim_des():
    assert sorted(osc.kim_des(osc.OscillatingTableau(EX_SHAPES)).members) == [1, 3, 4, 6, 7]
    assert osc.kim_des(osc.OscillatingTableau(((), (1,), ()))).members == frozenset({1})
    assert osc.kim_des(
        osc.OscillatingTableau(((), (1,), (2,), (1,), ()))
    ).members == frozenset({2})


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10])
def test_kim_des_matches_des(n2):
    for m in mm.enumerate_matchings(n2, 0):
        word = mm.to_involution(m)
        assert osc.kim_des(osc.sundaram(word)).members == perm.des(word).members


@pytest.mark.parametrize("n2", [2, 4, 6, 8])
def test_w0_conjugation_reverses(n2):
    # conjugating the involution by the reversal complements MDes
    for m in mm.enumerate_matchings(n2, 0):
        flipped = mm.from_involution(perm.conjugate_w0(mm.to_involution(m)))
        assert mm.mdes(flipped).members == frozenset(n2 - i for i in mm.mdes(m).members)


def test_validate():
    assert osc.validate_shapes(EX_SHAPES) is None
    assert "box" in osc.validate_shapes(((), (2,), ()))
    assert "nonempty" in osc.validate_shapes(((), (1,), (1,)))
    assert "odd" in osc.validate_shapes(((), (1,), (1, 1), ()))
    # step 3 grows by one box in size but changes two rows
    assert (
        osc.validate_shapes(((), (1,), (2,), (1, 1, 1), (1, 1), (1,), ()))
        == "step 3: shapes differ by other than one box"
    )


@pytest.mark.parametrize(
    "shapes, message", [((), "empty shape sequence"), (((1,), (), ()), "first shape nonempty")]
)
def test_constructor_refuses_a_walk_that_does_not_start_empty(shapes, message):
    with pytest.raises(ValueError, match=message):
        osc.OscillatingTableau(shapes)


def test_step():
    o = osc.OscillatingTableau(EX_SHAPES)
    assert o.step(1) == ("add", 1)
    assert o.step(2) == ("add", 2)
    assert o.step(4) == ("del", 2)
    assert o.step(8) == ("del", 1)
    assert o.size == 8
    short = osc.OscillatingTableau(((), (1,), (1, 1), (1,), ()))
    for walk, i in [(o, 0), (o, 9), (short, 0), (short, -1), (short, 5)]:
        with pytest.raises(ValueError, match="outside"):
            walk.step(i)


def test_enumerate_oscillating():
    # counts match the perfect-matching counts (Sundaram bijectivity)
    assert [len(list(enumerate_oscillating(s))) for s in (2, 4, 6, 8)] == [1, 3, 15, 105]


def test_codec():
    text = "-;1;1,1;2,1;2;1;1,1;1;-"
    o = osc.parse_oscillating(text)
    assert o.shapes == EX_SHAPES
    assert osc.format_oscillating(o) == text == str(o)
    with pytest.raises(osc.ParseError):
        osc.parse_oscillating("-;2;-")
