import itertools
import time

import pytest
from hypothesis import given, strategies as st

from matchdescents import perm, tableau
from matchdescents.tableau import EMPTY_TABLEAU, from_rows

from oracles import enumerate_syt_n, hook_length_count, jdt_delete, oracle_partitions, reverse_jdt_place, rs_insert

permutations = st.permutations(range(1, 8)).map(tuple)


def test_shape_stats():
    assert tableau.height((4, 3, 2)) == 3
    assert tableau.transpose_shape((4, 3, 2)) == (3, 3, 2, 1)
    # the conjugate (3,3,2,1) has three odd parts
    assert tableau.odd_cols((4, 3, 2)) == 3
    assert tableau.height(()) == 0
    assert tableau.odd_cols(()) == 0
    assert tableau.height((3, 1, 1, 1)) == 4
    assert tableau.transpose_shape((3, 1, 1, 1)) == (4, 1, 1)
    assert tableau.odd_cols((3, 1, 1, 1)) == 2
    with pytest.raises(ValueError):
        tableau.check_shape((2, 3))


def test_odd_cols_parity():
    for n in range(1, 10):
        for shape in tableau.partitions(n):
            assert tableau.odd_cols(shape) % 2 == n % 2
            assert tableau.transpose_shape(tableau.transpose_shape(shape)) == shape


def test_partitions():
    assert list(tableau.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(tableau.partitions(0)) == [()]
    counts = [len(list(tableau.partitions(n))) for n in range(1, 10)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert list(tableau.partitions(-1)) == []
    for n in range(17):
        assert list(tableau.partitions(n)) == oracle_partitions(n), n


def test_tableau_validation():
    with pytest.raises(ValueError):
        from_rows(((1, 3), (2, 2)))
    with pytest.raises(ValueError):
        from_rows(((2, 1),))
    with pytest.raises(ValueError):
        from_rows(((1, 2), (1,)))
    with pytest.raises(ValueError):
        from_rows(((1,), (2, 3)))
    with pytest.raises(ValueError, match="column not increasing"):
        from_rows(((2, 3), (1,)))


def test_des():
    assert sorted(tableau.des(from_rows(((1, 3, 5, 9), (2, 4, 6), (7, 8)))).members) == [1, 3, 5, 6]
    assert tableau.des(from_rows(((1, 2, 3),))).members == frozenset()
    assert tableau.des(from_rows(((1,), (2,), (3,), (4,)))).members == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        tableau.des(from_rows(((2, 3),)))


def test_rs_insert():
    t, cell = rs_insert(from_rows(((5,),)), 4)
    assert t == from_rows(((4,), (5,))) and cell == (2, 1)
    t, cell = rs_insert(t, 8)
    assert t == from_rows(((4, 8), (5,))) and cell == (1, 2)
    t, cell = rs_insert(EMPTY_TABLEAU, 3)
    assert t == from_rows(((3,),)) and cell == (1, 1)


def test_rs_pair():
    assert tableau.rs_pair_q((4, 5, 3, 2, 6, 1)) == from_rows(((1, 2, 5), (3,), (4,), (6,)))
    p, q = tableau.rs_pair((2, 1))
    assert p == q == from_rows(((1,), (2,)))
    p, q = tableau.rs_pair((3, 5, 1, 6, 2, 4))
    assert p == q == from_rows(((1, 2, 4), (3, 5, 6)))


def test_rs_inverse():
    q = from_rows(((1, 2, 5), (3,), (4,), (6,)))
    assert tableau.rs_inverse(q, q) == (1, 6, 4, 3, 5, 2)
    q = from_rows(((1, 2, 4), (3, 5, 6)))
    assert tableau.rs_inverse(q, q) == (3, 5, 1, 6, 2, 4)
    cell = from_rows(((1,),))
    assert tableau.rs_inverse(cell, cell) == (1,)
    with pytest.raises(ValueError):
        tableau.rs_inverse(from_rows(((1, 2),)), from_rows(((1,), (2,))))
    with pytest.raises(ValueError, match="recording tableau must hold 1..n"):
        tableau.rs_inverse(from_rows(((1, 2),)), from_rows(((1, 3),)))


@given(permutations)
def test_rs_roundtrip(word):
    assert tableau.rs_inverse(*tableau.rs_pair(word)) == word


@pytest.mark.parametrize("n", range(1, 8))
def test_rs_roundtrip_exhaustive(n):
    for word in perm.enumerate_sn(n):
        p, q = tableau.rs_pair(word)
        assert tableau.rs_inverse(p, q) == word


def test_jdt_delete():
    assert jdt_delete(from_rows(((4, 8), (5,))), 4) == from_rows(((5, 8),))
    assert jdt_delete(from_rows(((5, 8),)), 5) == from_rows(((8,),))
    assert jdt_delete(from_rows(((3,),)), 3) == EMPTY_TABLEAU


def test_reverse_jdt_place():
    assert reverse_jdt_place(from_rows(((5, 8),)), 4, (2, 1)) == from_rows(((4, 8), (5,)))
    assert reverse_jdt_place(EMPTY_TABLEAU, 7, (1, 1)) == from_rows(((7,),))
    # the hole at (2,1) pulls 8 down past the smaller letter
    assert reverse_jdt_place(from_rows(((8,),)), 7, (2, 1)) == from_rows(((7,), (8,)))
    with pytest.raises(ValueError):
        reverse_jdt_place(from_rows(((5, 8),)), 4, (3, 1))


def test_q_inverse_shuffle():
    q = from_rows(((1, 2, 4, 6), (3, 5, 8), (7,)))
    assert tableau.q_inverse_shuffle(q) == (3, 5, 1, 7, 6, 8, 2, 4)
    # first extraction is from the bottom of the rightmost odd column and
    # expels the position of the largest letter
    _, pos = tableau.reverse_rs_insert(q, (2, 3))
    assert pos == 6
    with pytest.raises(ValueError, match="not an outer corner"):
        tableau.reverse_rs_insert(from_rows(((1, 2), (3, 4))), (1, 2))  # (2, 2) lies below it
    single_row = from_rows(((1, 2, 3, 4),))
    assert tableau.q_inverse_shuffle(single_row) == (1, 2, 3, 4)


def test_enumerate_counts():
    assert len(list(tableau.enumerate_syt((2, 2)))) == 2
    assert len(list(tableau.enumerate_syt_nk(4, 4))) == 1
    for shape in tableau.partitions(7):
        assert len(list(tableau.enumerate_syt(shape))) == hook_length_count(shape)
    # RS restricted to involutions shows |SYT_n| = telephone numbers
    telephone = [1, 2, 4, 10, 26, 76, 232]
    for n, expected in enumerate(telephone, start=1):
        assert len(list(enumerate_syt_n(n))) == expected


def test_codecs():
    t = from_rows(((1, 2, 4, 6), (3, 5, 8), (7,)))
    assert tableau.parse_tableau("1,2,4,6/3,5,8/7") == t
    assert tableau.format_tableau(t) == "1,2,4,6/3,5,8/7"
    assert tableau.parse_shape("4,3,2") == (4, 3, 2)
    assert tableau.format_shape((4, 3, 2)) == "4,3,2"
    with pytest.raises(tableau.ParseError):
        tableau.parse_tableau("1,2/2,3")
    # blank text is the empty tableau, which enum syt --n 0 lists
    assert tableau.parse_tableau("") == tableau.parse_tableau(" ") == EMPTY_TABLEAU
    with pytest.raises(tableau.ParseError):
        tableau.parse_shape("2,3")


def test_syt_shapes_are_listed_one_at_a_time(monkeypatch):
    # enum syt writes its first shape's rows before the later partitions of n exist
    def first_then_fail(n):
        yield (n,)
        raise AssertionError("the shapes were listed ahead of use")

    monkeypatch.setattr(tableau, "partitions", first_then_fail)
    assert next(iter(tableau._syt_shapes(60))) == (60,)
    with pytest.raises(ValueError, match="invalid"):
        tableau._syt_shapes(-1)  # the refusals stay eager


@pytest.mark.parametrize("n", range(15))
def test_syt_shapes_cut_only_what_the_filter_drops(n):
    for k in range(n % 2, n + 1, 2):
        for j in (None, *range((n - k) // 2 + 1)):
            expected = [
                shape
                for shape in oracle_partitions(n)
                if tableau.odd_cols(shape) == k and (j is None or 2 * j <= tableau.height(shape) <= 2 * j + 1)
            ]
            assert list(tableau._syt_shapes(n, k, j)) == expected


def test_syt_move_table_is_filled_on_first_visit():
    # an eager table of the staircase would hold about Catalan(20) sub-shapes;
    # the first leaf is reached through n sub-shapes
    class FirstLeaf(Exception):
        pass

    def fold(rows, mask, texts):
        raise FirstLeaf(tuple(map(tuple, rows)), mask)

    shape = tuple(range(19, 0, -1))
    start = time.perf_counter()
    with pytest.raises(FirstLeaf) as leaf:
        tableau._syt_des(shape, fold)
    assert time.perf_counter() - start < 1
    rows, mask = leaf.value.args
    ends = list(itertools.accumulate(shape))
    assert rows == tuple(tuple(range(end - part + 1, end + 1)) for part, end in zip(shape, ends))
    assert mask == sum(1 << end for end in ends[:-1])  # 19, 37, 54, ...
