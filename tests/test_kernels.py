"""
Differential tests for the list kernels behind the tableau algorithms.

The public algorithms run on plain row lists and wrap their results
without re-validating them.  These tests re-validate those results in
full, compare each kernel-backed operation with the earlier
one-tableau-per-step implementation (kept below as an oracle), and check
the round trips and the input checks at sizes beyond the exhaustive
range.
"""
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
