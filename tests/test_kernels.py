"""
Differential tests for the kernels behind the tableau algorithms and the
matching statistics.

The public algorithms run on plain row lists or partner arrays, and the
enumerators wrap their results without re-validating them.  These tests
re-validate those results in full, compare each kernel-backed operation
with the earlier implementation (kept below as an oracle), and check the
round trips, the input checks and the statistics' properties at sizes
beyond the exhaustive range.
"""
import bisect
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from matchdescents import bijection as bj
from matchdescents import matching as mm
from matchdescents import oscillating as osc
from matchdescents import perm, tableau
from matchdescents.tableau import EMPTY_TABLEAU, check_shape, from_rows

# ---------------------------------------------------------------------------
# Oracle: the tableau operations as they were before the kernels, each step
# building and validating a full StandardTableau.


def oracle_rs_insert(t, x):
    if x in t.entries():
        raise ValueError(f"{x} already present")
    rows = [list(r) for r in t.rows]
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            cell = (r + 1, 1)
            break
        row = rows[r]
        bump_idx = next((i for i, e in enumerate(row) if e > x), None)
        if bump_idx is None:
            row.append(x)
            cell = (r + 1, len(row))
            break
        x, row[bump_idx] = row[bump_idx], x
        r += 1
    return from_rows(rows), cell


def oracle_reverse_rs_insert(t, corner):
    r, c = corner
    if r < 1 or r > len(t.rows) or c != len(t.rows[r - 1]):
        raise ValueError(f"{corner} is not an outer corner")
    if r < len(t.rows) and len(t.rows[r]) >= c:
        raise ValueError(f"{corner} is not an outer corner")
    rows = [list(row) for row in t.rows]
    x = rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop()
    for row in reversed(rows[: r - 1]):
        i = max(i for i, e in enumerate(row) if e < x)
        x, row[i] = row[i], x
    return from_rows(rows), x


def oracle_jdt_delete(t, x):
    r, c = t.find(x)
    rows = [list(row) for row in t.rows]
    while True:
        right = rows[r - 1][c] if c < len(rows[r - 1]) else None
        below = rows[r][c - 1] if r < len(rows) and len(rows[r]) >= c else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[r - 1][c - 1] = right
            c += 1
        else:
            rows[r - 1][c - 1] = below
            r += 1
    rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop()
    return from_rows(rows)


def oracle_reverse_jdt_place(t, x, corner):
    r, c = corner
    shape = t.shape
    enlarged = list(shape)
    if r == len(shape) + 1:
        if c != 1:
            raise ValueError(f"invalid corner {corner}")
        enlarged.append(1)
    elif 1 <= r <= len(shape) and c == shape[r - 1] + 1:
        enlarged[r - 1] += 1
        check_shape(enlarged)
    else:
        raise ValueError(f"invalid corner {corner}")
    if x in t.entries():
        raise ValueError(f"{x} already present")
    rows = [list(row) for row in t.rows]
    if r > len(rows):
        rows.append([])
    rows[r - 1].append(0)
    while True:
        left = rows[r - 1][c - 2] if c > 1 else None
        above = rows[r - 2][c - 1] if r > 1 else None
        candidates = [v for v in (left, above) if v is not None and v > x]
        if not candidates:
            break
        if above is not None and above > x and (left is None or above >= left):
            rows[r - 1][c - 1] = above
            r -= 1
        else:
            rows[r - 1][c - 1] = left
            c -= 1
        rows[r - 1][c - 1] = 0
    rows[r - 1][c - 1] = x
    return from_rows(rows)


def oracle_rs_pair(word):
    p = EMPTY_TABLEAU
    q_rows = []
    for step, x in enumerate(word, start=1):
        p, (r, _) = oracle_rs_insert(p, x)
        if r > len(q_rows):
            q_rows.append([])
        q_rows[r - 1].append(step)
    return p, from_rows(q_rows)


def oracle_sundaram_shapes(word):
    t = EMPTY_TABLEAU
    shapes = [()]
    for d, partner in enumerate(word, start=1):
        if d < partner:
            t, _ = oracle_rs_insert(t, partner)
        else:
            t = oracle_jdt_delete(t, d)
        shapes.append(t.shape)
    return tuple(shapes)


# ---------------------------------------------------------------------------
# Oracle: the matching statistics as they were before the partner array
# and the one-sweep crossing/nesting kernel.


def oracle_mdes(m):
    """
    Geometric descent set: i is a descent iff {i, i+1} is an arc, the
    arcs through i and i+1 cross, or i is unmatched while i+1 is matched.
    """
    members = set()
    for i in range(1, m.n):
        if _geometric_descent(m, i, i + 1, mm._arcs_cross):
            members.add(i)
    return perm.DescentSet(m.n, frozenset(members))


def _geometric_descent(m, i, succ, cross):
    pi = m.partner(i)
    ps = m.partner(succ)
    if pi == succ:
        return True
    if pi is not None and ps is not None:
        return cross(tuple(sorted((i, pi))), tuple(sorted((succ, ps))))
    return pi is None and ps is not None


def _chords_cross(a, b, n):
    """Circle: chords cross iff exactly one endpoint of b lies on the
    cyclic arc from a[0] to a[1]."""

    def between(x):
        lo, hi = a
        return lo < x < hi

    return between(b[0]) != between(b[1])


def oracle_cmdes(m):
    """Cyclic geometric descent set, with i+1 read mod n and crossing
    read as chord intersection on the circle."""
    members = set()
    for i in range(1, m.n + 1):
        succ = i % m.n + 1
        if succ == i:
            continue
        if _geometric_descent(m, i, succ, lambda a, b: _chords_cross(a, b, m.n)):
            members.add(i)
    return perm.DescentSet(m.n, frozenset(members), cyclic=True)


def _longest_increasing(seq):
    tails = []
    for x in seq:
        i = bisect.bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def oracle_crossing_number(m):
    """
    Largest r with arcs i1<...<ir<j1<...<jr.  Any such family spans a
    common gap, so scanning gaps and chaining the spanning arcs by both
    endpoints increasing is exact.
    """
    best = 0
    for t in range(1, m.n):
        spanning = sorted((a, b) for a, b in m.arcs if a <= t < b)
        best = max(best, _longest_increasing([b for _, b in spanning]))
    return best


def oracle_nesting_number(m):
    """Largest r with arcs i1<...<ir<jr<...<j1 (a nested family)."""
    best = 0
    for t in range(1, m.n):
        spanning = sorted((a, b) for a, b in m.arcs if a <= t < b)
        rights = [-b for _, b in spanning]  # decreasing right endpoints
        best = max(best, _longest_increasing(rights))
    return best


def oracle_syt_des(t):
    n = t.size
    if t.entries() != frozenset(range(1, n + 1)):
        raise ValueError("descent set requires entries 1..n")
    row_of = {t.entry((r, c)): r for r in range(1, len(t.rows) + 1) for c in range(1, len(t.rows[r - 1]) + 1)}
    return perm.DescentSet(n, frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i]))


# ---------------------------------------------------------------------------
# Helpers


def revalidated(t):
    """Re-check t in full through the public constructor."""
    assert from_rows(t.rows) == t


def involutions(n):
    for k in range(n % 2, n + 1, 2):
        for m in mm.enumerate_matchings(n, k):
            yield mm.to_involution(m)


def outer_corners(shape):
    """Cells that can be removed from the shape, 1-based."""
    return [(r, length) for r, length in enumerate(shape, start=1) if r == len(shape) or shape[r] < length]


def addable_cells(shape):
    """Cells that can be added to the shape, 1-based."""
    return [(r, shape[r - 1] + 1) for r in range(1, len(shape) + 1) if r == 1 or shape[r - 2] > shape[r - 1]] + [
        (len(shape) + 1, 1)
    ]


def doubled_tableaux(max_n):
    """Every SYT of size <= max_n with entries doubled, so that each odd
    letter can be inserted at any relative position."""
    for n in range(max_n + 1):
        for t in tableau.enumerate_syt_n(n):
            yield from_rows(tuple(tuple(2 * e for e in row) for row in t.rows))


# ---------------------------------------------------------------------------
# Exhaustive differential tests


@pytest.mark.parametrize("n", range(1, 8))
def test_rs_pair_outputs_revalidate(n):
    for word in perm.enumerate_sn(n):
        p, q = tableau.rs_pair(word)
        revalidated(p)
        revalidated(q)
        assert p.shape == q.shape
        if n <= 6:
            assert (p, q) == oracle_rs_pair(word)


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10])
def test_sundaram_walks_revalidate(n2):
    for m in mm.enumerate_matchings(n2, 0):
        word = mm.to_involution(m)
        o = osc.sundaram(word)
        assert osc.validate_shapes(o.shapes) is None
        assert osc.validate_shapes(osc.transpose(o).shapes) is None
        assert o.shapes == oracle_sundaram_shapes(word)


@pytest.mark.parametrize("n", range(1, 9))
def test_q_map_inverse_revalidates(n):
    for word in involutions(n):
        t = bj.q_map_inverse(word)
        assert bj.ShuffleElement(t.word, t.k) == t
        assert t.k == len(perm.fixed_points(word))


@pytest.mark.parametrize("n", [*range(11), pytest.param(11, marks=pytest.mark.slow)])
def test_matching_statistics_match_oracle(n):
    # n <= 10: all 13,232 matchings; n = 11 adds 35,696 more
    for k in range(n % 2, n + 1, 2):
        seen = set()
        for m in mm.enumerate_matchings(n, k):
            assert mm.Matching(m.n, m.arcs) == m
            seen.add(m)
            cr, ne = mm.crossing_nesting(m)
            assert (cr, ne) == (mm.crossing_number(m), mm.nesting_number(m))
            assert (cr, ne) == (oracle_crossing_number(m), oracle_nesting_number(m))
            assert mm.mdes(m) == oracle_mdes(m)
            assert mm.cmdes(m) == oracle_cmdes(m)
        assert len(seen) == mm.count_matchings(n, k)


@pytest.mark.parametrize("n", range(9))
def test_enumerate_syt_outputs_revalidate(n):
    for shape in tableau.partitions(n):
        syt = list(tableau.enumerate_syt(shape))
        assert len(set(syt)) == tableau.hook_length_count(shape)
        for t in syt:
            revalidated(t)
            assert t.shape == shape
            assert tableau.des(t) == oracle_syt_des(t)


def test_syt_des_keeps_entry_check():
    for rows in [((2, 3),), ((1, 3), (2, 5)), ((1, 4), (2,))]:
        with pytest.raises(ValueError):
            tableau.des(from_rows(rows))
        with pytest.raises(ValueError):
            oracle_syt_des(from_rows(rows))


def test_random_matching_is_uniform():
    rng = random.Random(0)
    draws = Counter(mm.random_matching(6, 2, rng) for _ in range(9000))
    assert set(draws) == set(mm.enumerate_matchings(6, 2))  # 45 matchings
    assert all(100 <= c <= 300 for c in draws.values())  # expected 200 each
    for n, k in [(5, 0), (4, 6), (3, -1)]:
        with pytest.raises(ValueError):
            mm.random_matching(n, k, rng)


def test_rs_insert_matches_oracle():
    for t in doubled_tableaux(6):
        for x in range(1, 2 * t.size + 2, 2):
            got = tableau.rs_insert(t, x)
            assert got == oracle_rs_insert(t, x)
            revalidated(got[0])


def test_reverse_rs_insert_matches_oracle():
    for t in doubled_tableaux(7):
        for corner in outer_corners(t.shape):
            got = tableau.reverse_rs_insert(t, corner)
            assert got == oracle_reverse_rs_insert(t, corner)
            revalidated(got[0])


def test_jdt_delete_matches_oracle():
    for t in doubled_tableaux(7):
        for x in t.entries():
            got = tableau.jdt_delete(t, x)
            assert got == oracle_jdt_delete(t, x)
            revalidated(got)


def test_reverse_jdt_place_matches_oracle():
    for t in doubled_tableaux(6):
        for corner in addable_cells(t.shape):
            for x in range(1, 2 * t.size + 2, 2):
                got = tableau.reverse_jdt_place(t, x, corner)
                assert got == oracle_reverse_jdt_place(t, x, corner)
                revalidated(got)


def test_wrappers_keep_input_checks():
    t = from_rows(((2, 4), (6,)))
    with pytest.raises(ValueError):
        tableau.rs_insert(t, 4)
    with pytest.raises(ValueError):
        tableau.reverse_rs_insert(t, (1, 1))
    with pytest.raises(ValueError):
        tableau.jdt_delete(t, 5)
    with pytest.raises(ValueError):
        tableau.reverse_jdt_place(t, 4, (1, 3))  # 4 already present
    with pytest.raises(ValueError):
        tableau.reverse_jdt_place(t, 5, (3, 2))  # not an addable cell
    with pytest.raises(ValueError):
        tableau.q_inverse_shuffle(t)
    with pytest.raises(ValueError):
        bj.emb(frozenset({1}), (1, 2), 3)  # core has fixed points


# ---------------------------------------------------------------------------
# Properties beyond the exhaustive range


@st.composite
def random_involutions(draw, min_n=12, max_n=20, min_fixed=0, fixed_point_free=False):
    """Involutions of n in [min_n, max_n]: the first 2a letters of a random
    order are paired into arcs, the rest are fixed."""
    if fixed_point_free:
        n = 2 * draw(st.integers(min_n // 2, max_n // 2))
        arcs = n // 2
    else:
        n = draw(st.integers(min_n, max_n))
        arcs = draw(st.integers(0, (n - min_fixed) // 2))
    order = draw(st.permutations(range(1, n + 1)))
    word = list(range(1, n + 1))
    for a, b in zip(order[: 2 * arcs : 2], order[1 : 2 * arcs : 2]):
        word[a - 1], word[b - 1] = b, a
    return tuple(word)


random_fpf_involutions = random_involutions(fixed_point_free=True)


@settings(deadline=None, max_examples=50)
@given(random_involutions())
def test_rs_roundtrip_large(word):
    assert tableau.rs_inverse(*tableau.rs_pair(word)) == word


@settings(deadline=None, max_examples=50)
@given(random_fpf_involutions)
def test_sundaram_roundtrip_large(word):
    o = osc.sundaram(word)
    assert osc.validate_shapes(o.shapes) is None
    assert osc.sundaram_inverse(o) == word


@settings(deadline=None, max_examples=50)
@given(random_fpf_involutions)
def test_chen_iota_involutive_large(word):
    m = mm.from_involution(word)
    assert osc.chen_iota(osc.chen_iota(m)) == m


@settings(deadline=None, max_examples=50)
@given(random_involutions())
def test_iota_hat_roundtrip_large(word):
    image = bj.iota_hat(word)
    assert len(perm.fixed_points(image)) == len(perm.fixed_points(word))
    assert bj.iota_hat_inverse(image) == word


@settings(deadline=None, max_examples=50)
@given(random_involutions())
def test_rs_entry_points_reject_bad_input(word):
    with pytest.raises(ValueError):
        tableau.rs_pair((1, 1, 2))
    with pytest.raises(ValueError):
        tableau.rs_pair((word[1],) + word[1:])  # a repeated letter
    p, q = tableau.rs_pair(word)
    shifted = from_rows(tuple(tuple(e + 1 for e in row) for row in p.rows))
    with pytest.raises(ValueError):
        tableau.rs_inverse(shifted, q)  # P not on 1..n
    column = from_rows(tuple((i,) for i in range(1, len(word) + 1)))
    row = from_rows((tuple(range(1, len(word) + 1)),))
    other = row if q.shape != row.shape else column
    with pytest.raises(ValueError):
        tableau.rs_inverse(p, other)  # shapes differ


@settings(deadline=None, max_examples=50)
@given(random_involutions(min_fixed=1))
def test_sundaram_rejects_fixed_points(word):
    with pytest.raises(ValueError):
        osc.sundaram(word)


@st.composite
def sampled_matchings(draw, min_n=12, max_n=32):
    """Uniform matchings from M_{n,k}, with n in [min_n, max_n] and k of
    the right parity drawn by hypothesis."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.sampled_from(range(n % 2, n + 1, 2)))
    return mm.random_matching(n, k, draw(st.randoms(use_true_random=False)))


@settings(deadline=None, max_examples=30)
@given(sampled_matchings())
def test_crossing_nesting_matches_subset_oracles_large(m):
    # at most 16 arcs for n <= 32, within the oracles' size guard
    assert mm.crossing_nesting(m) == (mm.crossing_number_oracle(m), mm.nesting_number_oracle(m))


@settings(deadline=None, max_examples=50)
@given(sampled_matchings())
def test_nesting_number_is_half_the_rs_height_large(m):
    _, q = tableau.rs_pair(mm.to_involution(m))
    assert mm.nesting_number(m) == tableau.height(q.shape) // 2


@settings(deadline=None, max_examples=50)
@given(sampled_matchings())
def test_cmdes_rotation_equivariance_large(m):
    assert mm.cmdes(mm.rotate(m)) == mm.cmdes(m).shifted()
