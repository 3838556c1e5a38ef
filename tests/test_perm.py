import itertools
import math

import pytest
from hypothesis import given, strategies as st

from matchdescents import perm

from oracles import compose

permutations = st.permutations(range(1, 8)).map(tuple)


def test_des_examples():
    assert sorted(perm.des((6, 2, 4, 3, 7, 1, 5, 8)).members) == [1, 3, 5]
    assert perm.des(perm.identity(5)).members == frozenset()
    assert sorted(perm.des((5, 4, 8, 2, 1, 7, 6, 3)).members) == [1, 3, 4, 6, 7]


def test_cellini_cdes_examples():
    assert sorted(perm.cellini_cdes((3, 2, 1, 4)).members) == [1, 2, 4]
    assert sorted(perm.cellini_cdes((2, 1, 3, 4)).members) == [1, 4]
    # the identity descends only at the wraparound position
    assert perm.cellini_cdes(perm.identity(4)).members == frozenset({4})


def test_cellini_s4_transposition_class():
    # the six transpositions of S_4 and their Cellini cyclic descent sets
    pairs = {
        (2, 1, 3, 4): {1, 4},
        (3, 2, 1, 4): {1, 2, 4},
        (4, 2, 3, 1): {1, 3},
        (1, 3, 2, 4): {2, 4},
        (1, 4, 3, 2): {2, 3, 4},
        (1, 2, 4, 3): {3, 4},
    }
    for word, expected in pairs.items():
        assert perm.cellini_cdes(word).members == frozenset(expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_cellini_extension_and_equivariance(n):
    for word in perm.enumerate_sn(n):
        cdes = perm.cellini_cdes(word)
        assert cdes.restrict_linear().members == perm.des(word).members
        rotated = (word[-1],) + word[:-1]
        assert perm.cellini_cdes(rotated).members == cdes.shifted().members


def test_fixed_points():
    assert perm.fixed_points((4, 2, 6, 1, 5, 3)) == frozenset({2, 5})
    assert perm.fixed_points(perm.identity(3)) == frozenset({1, 2, 3})
    assert perm.fixed_points((2, 1)) == frozenset()


def test_cycle_type_and_involution():
    assert perm.cycle_type((3, 1, 2, 4)) == (3, 1)
    assert perm.cycle_type((2, 1, 4, 3)) == (2, 2)
    assert perm.is_involution((2, 1, 4, 3))
    assert perm.cycle_type((4, 2, 6, 1, 5, 3)) == (2, 2, 1, 1)
    assert perm.is_involution((4, 2, 6, 1, 5, 3))
    assert not perm.is_involution((3, 1, 2, 4))


def _cycles_by_definition(word):
    """The orbits of a permutation, each from its least element, by least element."""
    out = []
    for i in range(1, len(word) + 1):
        orbit = [i]
        while word[orbit[-1] - 1] != i:
            orbit.append(word[orbit[-1] - 1])
        if min(orbit) == i:
            out.append(tuple(orbit))
    return out


@pytest.mark.parametrize("n", range(5))
def test_cycles_refuse_exactly_the_non_permutations(n):
    # every word of length n with letters in [-2, n + 2]
    for word in itertools.product(range(-2, n + 3), repeat=n):
        if perm.is_perm(word):
            assert perm.cycles(word) == _cycles_by_definition(word)
        else:
            with pytest.raises(ValueError, match=r"not a permutation of \[n\]"):
                perm.cycles(word)


@pytest.mark.parametrize("word", [(0, 3), (3, 1), (2, 2)])
@pytest.mark.parametrize("codec", [perm.cycles, perm.cycle_type, perm.format_cycles])
def test_cycle_codecs_refuse_a_non_permutation(codec, word):
    # these raised IndexError, or for (2, 2) returned a cycle that is not one
    with pytest.raises(ValueError, match=r"not a permutation of \[n\]: "):
        codec(word)


def _is_involution_by_definition(word):
    n = len(word)
    return sorted(word) == list(range(1, n + 1)) and all(word[v - 1] == i for i, v in enumerate(word, start=1))


@pytest.mark.parametrize("n", range(5))
def test_is_involution_on_every_small_word(n):
    # every word of length n with letters in [-1, n + 1]: the test is total
    for word in itertools.product(range(-1, n + 2), repeat=n):
        assert perm.is_involution(word) == _is_involution_by_definition(word)


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.one_of(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n), st.permutations(range(1, n + 1)))
    )
)
def test_is_involution_is_total(word):
    # True exactly for the permutations w of [n] with w∘w = id, and it never raises
    word = tuple(word)
    assert perm.is_involution(word) == _is_involution_by_definition(word)


def test_conjugate_w0():
    assert perm.conjugate_w0((2, 1, 4, 3)) == (2, 1, 4, 3)
    assert perm.conjugate_w0(perm.identity(5)) == perm.identity(5)
    assert perm.conjugate_w0((3, 4, 1, 2)) == (3, 4, 1, 2)
    # oracle: direct composition with the reversal
    w = (5, 3, 1, 2, 4)
    w0 = tuple(range(5, 0, -1))
    assert perm.conjugate_w0(w) == compose(compose(w0, w), w0)


@given(permutations)
def test_conjugate_w0_is_involution(word):
    assert perm.conjugate_w0(perm.conjugate_w0(word)) == word


def test_shuffles_paper_set():
    words = perm.shuffle_sets([(1, 2), (2, 1)], [(4, 3)])
    expected = {
        (1, 2, 4, 3), (1, 4, 2, 3), (1, 4, 3, 2), (4, 1, 2, 3), (4, 1, 3, 2), (4, 3, 1, 2),
        (2, 1, 4, 3), (2, 4, 1, 3), (2, 4, 3, 1), (4, 2, 1, 3), (4, 2, 3, 1), (4, 3, 2, 1),
    }
    assert len(words) == 12
    assert set(words) == expected


def test_shuffles_small():
    assert perm.shuffles((3, 1, 2), (4,)) == [
        (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2), (4, 3, 1, 2)
    ]
    assert perm.shuffles((1,), (2,)) == [(1, 2), (2, 1)]
    with pytest.raises(ValueError):
        perm.shuffles((1, 2), (2, 3))


@given(st.integers(1, 5), st.integers(1, 5))
def test_shuffle_count(a, b):
    words = perm.shuffles(tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1)))
    assert len(words) == len(set(words)) == math.comb(a + b, a)


def test_standardize():
    assert perm.standardize((4, 6, 1, 3)) == (3, 4, 1, 2)
    assert perm.standardize((9, 2, 7)) == (3, 1, 2)
    with pytest.raises(ValueError):
        perm.standardize((1, 1))


@given(permutations)
def test_standardize_idempotent(word):
    assert perm.standardize(word) == word


def test_codecs():
    assert perm.parse_cycles("(1,6)(3,4)(5,7)", 8) == (6, 2, 4, 3, 7, 1, 5, 8)
    assert perm.parse_cycles("", 3) == perm.identity(3)
    assert perm.parse_cycles("( 1 ,6)( 3,4)(5,7)", 8) == (6, 2, 4, 3, 7, 1, 5, 8)
    with pytest.raises(perm.ParseError):
        perm.parse_cycles("(1,2)(2,3)", 3)
    with pytest.raises(perm.ParseError):
        perm.parse_cycles("(1,9)", 3)
    with pytest.raises(perm.ParseError):
        perm.parse_cycles("(1,2", 3)
    for text in ("", "()"):
        with pytest.raises(perm.ParseError, match="^invalid n = -2$"):
            perm.parse_cycles(text, -2)
    assert perm.parse_cycles("()", 0) == ()
    assert perm.format_cycles((6, 2, 4, 3, 7, 1, 5, 8)) == "(1,6)(3,4)(5,7)"
    assert perm.parse_one_line("[6,2,4,3,7,1,5,8]") == (6, 2, 4, 3, 7, 1, 5, 8)
    with pytest.raises(perm.ParseError):
        perm.parse_one_line("6,2,4")


@given(permutations)
def test_one_line_roundtrip(word):
    assert perm.parse_one_line(perm.format_one_line(word)) == word
