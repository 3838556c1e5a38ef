"""
Differential tests for the kernels behind the tableau algorithms, the
matching statistics, the cyclic transport and the Gessel class/shuffle
placements.

The public algorithms run on plain row lists, involution words or a
table of placements, and the enumerators and statistics wrap their
results (tableaux, matchings, descent sets) without re-validating them.
These tests re-validate those results in full, compare each
kernel-backed operation with the earlier implementation (kept below as
an oracle), and check the round trips, the input checks and the
statistics' properties at sizes beyond the exhaustive range.
"""
import ast
import gc
import io
import itertools
import math
import operator
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matchdescents import bijection as bj
from matchdescents import cli, cyclic
from matchdescents import matching as mm
from matchdescents import oscillating as osc
from matchdescents import perm, symfun, tableau
from matchdescents.tableau import EMPTY_TABLEAU, check_shape, from_rows

from oracles import (
    TABLE_CHARACTERS,
    _des_counts,
    _descent_counts,
    _inkj_words,
    arcs_cross,
    crossing_number_oracle,
    enumerate_syt_n,
    h_map_by_composition,
    hook_length_count,
    iota_hat_by_composition,
    iota_hat_by_reverse_rs,
    jdt_delete,
    longest_increasing,
    mask_of,
    member_sets,
    nesting_number_oracle,
    oracle_cr_ne,
    oracle_emit_text,
    oracle_geometric_descents,
    oracle_words,
    per_word_stats,
    phi_inverse,
    q_map_inverse,
    random_matching,
    reverse_jdt_place,
    rs_insert,
    verify_gessel,
)

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
# Oracle: chen's iota as it was before the cell list, through the shape
# tuples of the walk: the walk, every shape conjugated, and the reverse
# reading of the conjugate walk with the box between each pair of shapes
# searched for.


def oracle_box_difference(a, b):
    small, large = (a, b) if sum(a) < sum(b) else (b, a)
    for r in range(len(large)):
        s = small[r] if r < len(small) else 0
        if large[r] != s:
            return (r + 1, large[r])
    raise ValueError("shapes are equal")


def oracle_sundaram_inverse(shapes):
    n = len(shapes) - 1
    rows = []
    word = list(range(1, n + 1))
    for d in range(n, 0, -1):
        prev, cur = shapes[d - 1], shapes[d]
        r, c = oracle_box_difference(prev, cur)
        if sum(prev) > sum(cur):
            tableau._slide_in(rows, d, r - 1, c - 1)
        else:
            partner = tableau._unbump(rows, r - 1)
            word[d - 1], word[partner - 1] = partner, d
    return tuple(word)


def oracle_iota(word):
    return oracle_sundaram_inverse(tuple(tableau.transpose_shape(s) for s in oracle_sundaram_shapes(word)))


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
        if _geometric_descent(m, i, i + 1, arcs_cross):
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


def oracle_crossing_number(m):
    """
    Largest r with arcs i1<...<ir<j1<...<jr.  Any such family spans a
    common gap, so scanning gaps and chaining the spanning arcs by both
    endpoints increasing is exact.
    """
    best = 0
    for t in range(1, m.n):
        spanning = sorted((a, b) for a, b in m.arcs if a <= t < b)
        best = max(best, longest_increasing([b for _, b in spanning]))
    return best


def oracle_nesting_number(m):
    """Largest r with arcs i1<...<ir<jr<...<j1 (a nested family)."""
    best = 0
    for t in range(1, m.n):
        spanning = sorted((a, b) for a, b in m.arcs if a <= t < b)
        rights = [-b for _, b in spanning]  # decreasing right endpoints
        best = max(best, longest_increasing(rights))
    return best


def oracle_syt_des(t):
    n = t.size
    if t.entries() != frozenset(range(1, n + 1)):
        raise ValueError("descent set requires entries 1..n")
    row_of = {t.entry((r, c)): r for r in range(1, len(t.rows) + 1) for c in range(1, len(t.rows[r - 1]) + 1)}
    return perm.DescentSet(n, frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i]))


def oracle_matching_des(m):
    """Standard descent set, via the one-line form of the involution."""
    return perm.des(mm.to_involution(m))


# ---------------------------------------------------------------------------
# Oracle: the cyclic transport as it was before the word kernels, going
# through Matching at every step.  The transport runs the composite and H
# the way they were before H became its primitive: phi and its inverse on
# the oracle iota, H as Q of the composite image, and H inverse through RS
# inverse of (t, t).  Its steps are the maps as they were before they ran
# on row lists: res and emb with their checks, the core standardized, Q
# and its inverse through full tableaux, and the shuffle read off Q with
# the column lengths recomputed for every large letter.  A shuffle is a
# pair (word, k).


def oracle_rotate(m):
    return mm.Matching(m.n, tuple((a % m.n + 1, b % m.n + 1) for a, b in m.arcs))


def oracle_res(word):
    if not perm.is_involution(word):
        raise ValueError(f"not an involution: {word}")
    fixed = perm.fixed_points(word)
    moved = [v for i, v in enumerate(word, start=1) if i not in fixed]
    return fixed, perm.standardize(moved)


def oracle_emb(fixed, sigma, n):
    k = len(fixed)
    if len(sigma) != n - k or not fixed <= frozenset(range(1, n + 1)):
        raise ValueError(f"size mismatch: |J|={k}, |sigma|={len(sigma)}, n={n}")
    if not perm.is_perm(sigma) or not perm.is_involution(sigma) or perm.fixed_points(sigma):
        raise ValueError(f"not a fixed-point-free involution: {sigma}")
    word = [0] * n
    for big, pos in enumerate(sorted(fixed), start=n - k + 1):
        word[pos - 1] = big
    small_positions = [i for i in range(1, n + 1) if i not in fixed]
    for pos, v in zip(small_positions, sigma):
        word[pos - 1] = v
    return tuple(word), k


def oracle_small_involution(word, k):
    return perm.standardize(tuple(v for v in word if v <= len(word) - k))


def oracle_q_inverse_shuffle(q_tab):
    n = q_tab.size
    if q_tab.entries() != frozenset(range(1, n + 1)):
        raise ValueError("tableau must hold 1..n")
    rows = [list(row) for row in q_tab.rows]
    word = [0] * n
    for big in range(n, n - tableau.odd_cols(q_tab.shape), -1):
        cols = tableau.transpose_shape(tuple(map(len, rows)))
        col = max(c for c, length in enumerate(cols) if length % 2 == 1)
        word[tableau._unbump(rows, cols[col] - 1) - 1] = big
    rank = {v: r for r, v in enumerate(sorted(e for row in rows for e in row), start=1)}
    q_sigma = [[rank[e] for e in row] for row in rows]
    sigma = tableau._reverse_rs([row[:] for row in q_sigma], q_sigma)
    if not perm.is_involution(sigma) or perm.fixed_points(sigma):
        raise ValueError("residue tableau does not encode a fixed-point-free involution")
    small = iter(sigma)
    return tuple(v or next(small) for v in word)


def oracle_phi(word):
    fixed, sigma = oracle_res(word)
    return oracle_emb(fixed, oracle_iota(sigma), len(word))


def oracle_phi_inverse(shuffle_word, k):
    n = len(shuffle_word)
    fixed = frozenset(i for i, v in enumerate(shuffle_word, start=1) if v > n - k)
    sigma_image = oracle_iota(oracle_small_involution(shuffle_word, k))
    word = [0] * n
    for pos in fixed:
        word[pos - 1] = pos
    small_positions = [i for i in range(1, n + 1) if i not in fixed]
    for a, b in zip(small_positions, (small_positions[v - 1] for v in sigma_image)):
        word[a - 1] = b
    return perm.check_perm(word)


def oracle_rs_q(word):
    """The recording tableau, in the insertion loop of its own that RS had
    before Q and the insertion rows shared one."""
    p_rows = []
    q_rows = []
    for step, x in enumerate(word, start=1):
        r = tableau._insert(p_rows, x)
        if r == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[r].append(step)
    return from_rows(q_rows)


def oracle_q_map(shuffle_word):
    q_tab = oracle_rs_q(shuffle_word)
    return tableau.rs_inverse(q_tab, q_tab)


def oracle_q_map_inverse(word):
    if not perm.is_involution(word):
        raise ValueError(f"not an involution: {word}")
    return oracle_q_inverse_shuffle(oracle_rs_q(word)), len(perm.fixed_points(word))


def oracle_iota_hat(word):
    return oracle_q_map(oracle_phi(word)[0])


def oracle_iota_hat_inverse(word):
    return oracle_phi_inverse(*oracle_q_map_inverse(word))


def oracle_h_map(word):
    """H through the RS round trip: Q of the composite image."""
    return oracle_rs_q(oracle_iota_hat(word))


def oracle_h_map_inverse(t):
    return oracle_iota_hat_inverse(tableau.rs_inverse(t, t))


def _oracle_transport(pre, forward):
    m = mm.from_involution(pre)
    return oracle_cmdes(m), forward(mm.to_involution(oracle_rotate(m)))


def oracle_transport_involution(word):
    return _oracle_transport(oracle_iota_hat_inverse(word), oracle_iota_hat)


def oracle_transport_syt(t):
    return _oracle_transport(oracle_h_map_inverse(t), oracle_h_map)


# ---------------------------------------------------------------------------
# Oracle: the Gessel split class, the shuffles and their verifier as they
# were before the placement kernel, each word built position by position.


def oracle_gessel_class(pi, sigma_word):
    m = len(pi)
    n = len(sigma_word)
    if sorted(sigma_word) != list(range(m + 1, m + n + 1)):
        raise ValueError("second permutation must act on the letters m+1..m+n")
    sigma_std = perm.standardize(sigma_word)
    mu = perm.cycle_type(pi)
    nu = perm.cycle_type(sigma_std)
    if set(mu) & set(nu):
        raise ValueError(f"cycle types {mu} and {nu} share a part")
    out = []
    universe = range(1, m + n + 1)
    for support in itertools.combinations(universe, m):
        word = [0] * (m + n)
        sup = list(support)
        for i, v in zip(sup, (sup[pi[r] - 1] for r in range(m))):
            word[i - 1] = v
        rest = [i for i in universe if i not in set(support)]
        for i, v in zip(rest, (rest[sigma_std[r] - 1] for r in range(n))):
            word[i - 1] = v
        out.append(perm.check_perm(word))
    return out


def oracle_shuffles(word_a, word_b):
    if set(word_a) & set(word_b):
        raise ValueError("letter sets of the two words overlap")
    n = len(word_a) + len(word_b)
    out = []
    for positions in itertools.combinations(range(n), len(word_a)):
        word = [0] * n
        it_a = iter(word_a)
        it_b = iter(word_b)
        pos_a = set(positions)
        for i in range(n):
            word[i] = next(it_a) if i in pos_a else next(it_b)
        out.append(tuple(word))
    return out


def oracle_gessel_des_multisets(pi, sigma_word):
    """The (lhs, rhs) Des multisets of the old verify_gessel."""
    cls = oracle_gessel_class(pi, sigma_word)
    shuf = oracle_shuffles(pi, sigma_word)
    return Counter(perm.des(w).members for w in cls), Counter(perm.des(w).members for w in shuf)


def oracle_gessel_pairs(max_total):
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            for pi in perm.enumerate_sn(m):
                mu = set(perm.cycle_type(pi))
                for sigma_std in perm.enumerate_sn(n):
                    if mu & set(perm.cycle_type(sigma_std)):
                        continue
                    yield pi, tuple(v + m for v in sigma_std)


# ---------------------------------------------------------------------------
# Oracle: the SYT enumerator, the tableau Des and the ``enum`` table writer
# as they were before the single-frame enumeration kernel: a recursive
# generator, a row table rebuilt per tableau, every row built before any
# was written.


def oracle_enumerate_syt(shape):
    shape = check_shape(shape)
    n = sum(shape)

    def gen(rows, step):
        if step > n:
            yield tableau._tableau(rows)
            return
        for r in range(len(shape)):
            c = len(rows[r])
            if c >= shape[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            rows[r].append(step)
            yield from gen(rows, step + 1)
            rows[r].pop()

    yield from gen([[] for _ in shape], 1)


def oracle_tableau_des(t):
    n = t.size
    row_of = [0] * (n + 1)
    for r, row in enumerate(t.rows, start=1):
        for e in row:
            if not 1 <= e <= n or row_of[e]:
                raise ValueError("descent set requires entries 1..n")
            row_of[e] = r
    return perm.DescentSet(n, frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i]))


def oracle_syt_stream(n, k, j):
    for shape in tableau.partitions(n):
        if k is not None and tableau.odd_cols(shape) != k:
            continue
        if j is not None and not 2 * j <= tableau.height(shape) <= 2 * j + 1:
            continue
        yield from oracle_enumerate_syt(shape)


def _oracle_set_str(members):
    return "{" + ",".join(map(str, sorted(members))) + "}"


def oracle_enum_rows(family, n, k, j):
    if family == "syt":
        header = ["tableau", "shape", "height", "odd_cols", "des"]
        rows = []
        for t in oracle_syt_stream(n, k, j):
            rows.append(
                [
                    tableau.format_tableau(t),
                    tableau.format_shape(t.shape),
                    tableau.height(t.shape),
                    tableau.odd_cols(t.shape),
                    _oracle_set_str(oracle_tableau_des(t).members),
                ]
            )
        return header, rows
    matchings = family == "matchings"
    header = ["matching", "n", "k"] if matchings else ["cycles", "one_line"]
    header += ["des", "mdes", "cmdes", "cr", "ne", "um"]
    rows = []
    for w in oracle_words(n, k) if j is None else _inkj_words(n, k, j):
        cr, ne = oracle_cr_ne(w)
        first = [mm._format_word(w), n, k] if matchings else [perm.format_cycles(w), perm.format_one_line(w)]
        descents = (perm._descents(w), oracle_geometric_descents(w, n - 1), oracle_geometric_descents(w, n))
        rows.append([*first, *map(_oracle_set_str, descents), cr, ne, k])
    return header, rows


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
        for t in enumerate_syt_n(n):
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
        t = q_map_inverse(word)
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


@pytest.mark.parametrize("n", range(11))
def test_word_enumerator_matches_oracle(n):
    for k in range(n % 2, n + 1, 2):
        expected = list(oracle_words(n, k))
        assert [mm.to_involution(m) for m in mm.enumerate_matchings(n, k)] == expected
    for k in [n + 1, n + 2, -2]:
        with pytest.raises(ValueError):
            mm.enumerate_matchings(n, k)


@pytest.mark.parametrize("n", range(11))
def test_kernel_leaves_arrive_in_increasing_word_order(n):
    # the order that enumerate_matchings, orbits and the bijection identities promise
    def recorder(seen):
        return lambda cr, ne, mdes, des, word: seen.append(word)

    every = []
    mm._stat_counts(n, None, lambda k: recorder(every), words=True)  # every class in one search
    assert all(a < b for a, b in zip(every, every[1:]))
    assert every == sorted(w for k in range(n % 2, n + 1, 2) for w in oracle_words(n, k))
    for k in range(n % 2, n + 1, 2):
        seen = []
        mm._stat_counts(n, k, recorder(seen), words=True)
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert seen == sorted(oracle_words(n, k))


def test_words_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(list(mm.enumerate_matchings(10, 0))) == 945
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_syt_search_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(list(tableau.enumerate_syt((4, 3, 2)))) == 168
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n", range(11))
def test_cr_ne_classes_match_per_word_split(n):
    for k in range(n % 2, n + 1, 2):
        by_cr = {j: [] for j in range((n - k) // 2 + 1)}
        by_ne = {j: [] for j in by_cr}
        for w in oracle_words(n, k):
            cr, ne = oracle_cr_ne(w)
            by_cr[cr].append(w)
            by_ne[ne].append(w)
        split = cyclic._cr_ne_classes(n, k)
        assert tuple({j: list(words) for j, words in classes.items()} for classes in split) == (by_cr, by_ne)


@pytest.mark.parametrize("n", [*range(11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))])
def test_stat_counts_match_per_word_path(n):
    # n <= 10: all 13,232 matchings, in increasing order of words; n = 11, 12 add 35,696 + 140,152
    for k in range(n % 2, n + 1, 2):
        folded = []
        mm._stat_counts(n, k, lambda *stats: folded.append(stats))
        per_word = per_word_stats(n, k)
        assert folded == [(cr, ne, mask_of(g), mask_of(d)) for cr, ne, g, d in per_word]
        assert len(folded) == mm.count_matchings(n, k)


@pytest.mark.parametrize("n", [*range(11), pytest.param(11, marks=pytest.mark.slow)])
def test_kernel_counters_match_per_word_path(n):
    # the mask counts that main11, main111 and main0 compare, against the
    # masks of the per-word sets; the public main0 multiset against the sets
    main0, main0_sets = Counter(), Counter()
    refined = list(symfun._cr_ne_counts(n, None))
    coarse = list(symfun._cr_ne_counts(n, None, refined=False))
    assert [k for k, _, _ in refined] == [k for k, _, _ in coarse] == list(range(n % 2, n + 1, 2))
    for (k, lhs, rhs), (_, lhs2, rhs2) in zip(refined, coarse):
        set_stats = list(per_word_stats(n, k))
        stats = [(cr, ne, mask_of(g), mask_of(d)) for cr, ne, g, d in set_stats]
        assert lhs == Counter((cr, ne, g) for cr, ne, g, _ in stats)
        assert rhs == Counter((ne, cr, d) for cr, ne, _, d in stats)
        assert lhs2 == Counter((cr, g) for cr, _, g, _ in stats)
        assert rhs2 == Counter((ne, d) for _, ne, _, d in stats)
        assert list(symfun._cr_ne_counts(n, k)) == [(k, lhs, rhs)]
        main0.update((k, cr, g) for cr, _, g, _ in stats)
        main0_sets.update((k, cr, g) for cr, _, g, _ in set_stats)
    assert symfun._lhs_main0_masks(n) == main0
    assert symfun.lhs_main0(n) == main0_sets


@pytest.mark.parametrize("n", [*range(11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))])
def test_one_search_gives_every_class_its_folds(n):
    # the search over every k at once folds, per class, exactly what the
    # search over that class alone folds, in the same order
    per_class = {}

    def class_fold(k):
        assert k not in per_class  # one fold per class
        folded = per_class[k] = []
        return lambda *stats: folded.append(stats)

    mm._stat_counts(n, None, class_fold)
    assert list(per_class) == list(range(n % 2, n + 1, 2))
    for k, folded in per_class.items():
        alone = []
        mm._stat_counts(n, k, lambda *stats: alone.append(stats))
        assert folded == alone, k


def _appender(out, k):
    """A fold that appends each matching's statistics to ``out``; for k None,
    the class fold of every class, which puts the class first."""
    if k is None:
        return lambda kk: lambda *stats: out.append((kk, *stats))
    return lambda *stats: out.append(stats)


@pytest.mark.parametrize("n", range(11))
def test_ne_ceiling_folds_exactly_the_matchings_below_it(n):
    # with words, each fold's last argument is the word, so ne is one place further back;
    # j cuts the branches whose ne passes it or can no longer reach it, and ne = j is what enum --j lists
    for words, at_ne in ((False, -3), (True, -4)):
        for k in (None, *range(n % 2, n + 1, 2)):
            folded = []
            mm._stat_counts(n, k, _appender(folded, k), words=words)
            for j in range(n // 2 + 1):
                cut = []
                mm._stat_counts(n, k, _appender(cut, k), j=j, words=words)
                assert cut == [stats for stats in folded if stats[at_ne] == j], (words, k, j)


def test_stat_counts_refuses_invalid_classes():
    folded = []
    for n, k in [(4, 1), (4, 6), (4, -2), (3, 0), (0, 1), (-1, None)]:
        with pytest.raises(ValueError, match="invalid"):
            mm._stat_counts(n, k, _appender(folded, k))
    assert folded == []


@pytest.mark.parametrize("n", [*range(9), *(pytest.param(n, marks=pytest.mark.slow) for n in (9, 10))])
def test_transport_matches_oracle(n):
    for word in involutions(n):
        assert cyclic.transport_involution(word) == oracle_transport_involution(word)
        assert bj.iota_hat(word) == oracle_iota_hat(word)
        assert bj.iota_hat_inverse(word) == oracle_iota_hat_inverse(word)
        assert bj.h_map(word) == oracle_h_map(word)
        element = bj.phi(word)
        assert (element.word, element.k) == oracle_phi(word)
        assert phi_inverse(element) == oracle_phi_inverse(*oracle_phi(word)) == word
        element = q_map_inverse(word)
        assert (element.word, element.k) == oracle_q_map_inverse(word)
        assert bj.q_map(element) == oracle_q_map(element.word) == word
    for t in enumerate_syt_n(n):
        assert cyclic.transport_syt(t) == oracle_transport_syt(t)
        assert bj.h_map_inverse(t) == oracle_h_map_inverse(t)


@pytest.mark.parametrize("n", [*range(11), pytest.param(11, marks=pytest.mark.slow)])
def test_h_rows_match_the_composition(n):
    # every involution: 13,232 for n <= 10 and 35,696 at n = 11.  One table
    # serves every class of n, as P(ι(core)) is a function of the core alone
    table = {}
    for k in range(n % 2, n + 1, 2):
        for word in oracle_words(n, k):
            assert tableau._tableau(bj._h_rows(word, table)) == h_map_by_composition(word)
            assert bj._iota_hat(word, table) == iota_hat_by_composition(word)


def test_sweep_of_a_long_nested_word_stays_small():
    # 1-400, 2-399, ..., 200-201; an eager grid of every (LIS, LDS) pair
    # would hold 401 * 401 = 160,801 tuples, about 9 MB
    n = 400
    word = tuple(range(n, 0, -1))
    tracemalloc.start()
    try:
        cr, ne, mdes, des = mm._sweep(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cr, ne, mdes, des) == (1, n // 2, 1 << n // 2, (1 << n) - 2)  # MDes {200}, Des {1..399}
    assert peak < 1_000_000


def _nest_around_neighbours(n):
    """The involution word of 1-n, 2-(n-1), ..., (n/4)-(3n/4+1) around
    (n/4+1)-(n/4+2), ..., (3n/4-1)-(3n/4), for n a multiple of 4."""
    word = list(range(1, n + 1))
    for a in range(1, n // 4 + 1):
        word[a - 1], word[n - a] = n + 1 - a, a
    for a in range(n // 4 + 1, 3 * n // 4, 2):
        word[a - 1], word[a] = a + 1, a
    return tuple(word)


def _oracle_sweep(word):
    """What ``_sweep`` returns, from the oracles: (cr, ne, MDes, Des), the sets as masks."""
    n = len(word)
    return (*oracle_cr_ne(word), mask_of(oracle_geometric_descents(word, n - 1)), mask_of(perm._descents(word)))


def test_sweep_of_one_word_keeps_no_cache():
    # each of the 500 arcs i-(i+1) closes under 500 open arcs, so a table
    # entry per read would keep 500 tuples of 501 endpoints, about 2 MB
    word = _nest_around_neighbours(2000)
    tracemalloc.start()
    try:
        stats = mm._sweep(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats[:2] == (1, 501)
    assert stats == _oracle_sweep(word)
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "word",
    [
        pytest.param(tuple(range(300, 0, -1)), id="nested"),
        pytest.param(tuple(range(151, 301)) + tuple(range(1, 151)), id="crossing"),
        pytest.param(_nest_around_neighbours(300), id="nest-around-neighbours"),
    ],
)
def test_sweep_of_a_long_word_matches_the_oracles(word):
    assert mm._sweep(word) == _oracle_sweep(word)


def test_mask_sets_stay_bounded_under_one_object_calls():
    # mdes, cmdes and stats read their sets through perm._members; a cache
    # there would keep one entry per distinct mask a process ever reads
    m = mm.matching(40, *((i, i + 20) for i in range(1, 21)))
    assert mm.mdes(m).members == frozenset(range(1, 40))  # every pair of neighbours crosses
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for mask in range(1 << 12):
            perm._members(mask)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 10_000  # 4,096 cached sets held 2.3 MB


def test_lis_and_lds_are_read_only_inside_the_search():
    # one home per rule: a second cr/ne sweep in the package would need the LIS
    readers = set()
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "_longest_increasing":
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("matching.py", "_search")}


def _src_tops():
    """(file name, source, top-level statement) for each module of the package."""
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        source = path.read_text()
        for top in ast.parse(source).body:
            yield path.name, source, top


def _names_read(node):
    """The names an AST node reads: a name, an attribute, or what an import brings in."""
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)}


def test_the_class_walk_is_read_only_by_its_two_callers():
    # one class walk for verify cdes, cdes-syt and orbits, and no second ι̂ or H loop in cli
    readers, cli_names = set(), set()
    for name, _, top in _src_tops():
        for node in ast.walk(top):
            names = _names_read(node)
            if name == "cli.py":
                cli_names.update(names)
            if "_class_table" in names:
                readers.add((name, getattr(top, "name", None)))
    assert readers == {("cli.py", "cmd_orbits"), ("cyclic.py", "_check_class")}
    assert not cli_names & {"_iota_hat", "_h_rows"}


def test_the_gessel_class_layouts_are_read_only_by_their_callers():
    # the word-level class layout serves gessel_class, the packed one the verifier
    readers = {"_class_words": set(), "_class_packed": set()}
    for name, _, top in _src_tops():
        for node in ast.walk(top):
            for read in _names_read(node) & readers.keys():
                readers[read].add((name, getattr(top, "name", None)))
    assert readers == {
        "_class_words": {("symfun.py", "gessel_class")},
        "_class_packed": {("symfun.py", "_gessel_counts")},
    }


def test_the_fixed_point_free_rule_is_raised_only_in_perm():
    raisers = set()
    for name, source, top in _src_tops():
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and "fixed-point-free" in ast.get_source_segment(source, node):
                raisers.add((name, getattr(top, "name", None)))
    assert raisers == {("perm.py", "_fixed_point_free")}


def test_a_fixed_point_is_refused_with_one_message(capsys):
    refusals = [
        lambda: osc.sundaram((2, 1, 3)),
        lambda: bj.emb(frozenset({1}), (1, 2), 3),
        lambda: bj.ShuffleElement((1, 2, 3), 1),  # the core (1, 2) fixes both letters
        lambda: tableau._q_inverse_shuffle([[1, 4], [3, 2]]),  # rows whose residue is (3, 2, 1, 4)
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=r"^not a fixed-point-free involution: "):
            refuse()
    assert cli.main(["map", "iota", "[1]"]) == 2
    assert capsys.readouterr() == ("", "error: not a fixed-point-free involution: (1,)\n")
    # map q checks the core of the word it was given, and names both
    assert cli.main(["map", "q", "[1,3,2]"]) == 2
    assert capsys.readouterr() == ("", "error: not a fixed-point-free involution: (1, 2), the core of (1, 3, 2)\n")


def test_descent_sets_are_read_only_for_witnesses_and_public_multisets():
    # symfun and cyclic compare descent masks; a mask becomes a set only in a
    # failed comparison's witness, by the key reader that each identity hands
    # _compared, and in the public frozenset-keyed multisets
    readers, handed, diffs = set(), set(), set()
    for module in (symfun, cyclic):
        path = Path(module.__file__)
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in ("_members", "_mask_last"):
                    readers.add(where)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id == "_compared":
                        handed.add((*where, ast.unparse(node.args[-1])))
                    elif node.func.id == "multiset_diff":
                        diffs.add(where)
    witness = {
        "verify_main0": "_mask_last",
        "verify_lemma_main1": "read",
        "_main11_results": "_mask_last",
        "_gessel_result": "perm._members",
    }
    assert handed == {("symfun.py", name, read) for name, read in witness.items()}
    public = ("lhs_main0", "rhs_main0", "schur_descent_multiset")
    assert readers == {("symfun.py", name) for name in ("_mask_last", *witness, *public)}
    assert diffs == {("symfun.py", "_compared")}  # the one code that applies a reader


@pytest.mark.parametrize("n", range(11))
def test_cmdes_mask_matches_the_geometric_test(n):
    # the wrap bit at n, read off the word, on every matching with n <= 10
    for k in range(n % 2, n + 1, 2):
        seen = []

        def fold(cr, ne, mdes, des, word):
            seen.append(word)
            assert mm._cmdes_mask(word, mdes) == sum(1 << i for i in oracle_geometric_descents(word, n))

        mm._stat_counts(n, k, fold, words=True)
        assert len(seen) == mm.count_matchings(n, k)


@pytest.mark.parametrize("n", range(11))
def test_class_masks_match_the_per_word_sets(n):
    # the cMDes and Des masks that the walk and the class check read, on all of M_{n,k}
    for k in range(n % 2, n + 1, 2):
        by_cr, by_ne = cyclic._cr_ne_classes(n, k)
        for words in by_cr.values():
            for word, mask in words.items():
                assert perm._members(mask) == mm._cmdes(word).members
        for words in by_ne.values():
            for word, mask in words.items():
                assert perm._members(mask) == perm._descents(word)


@pytest.mark.parametrize("n", [*range(10), pytest.param(10, marks=pytest.mark.slow)])
def test_q_inverse_shuffle_matches_oracle(n):
    for t in enumerate_syt_n(n):
        assert tableau.q_inverse_shuffle(t) == oracle_q_inverse_shuffle(t)


def test_transport_wrappers_keep_input_checks():
    shifted = from_rows(((2, 3), (4,)))  # not on 1..3
    for q_inverse_shuffle in (tableau.q_inverse_shuffle, oracle_q_inverse_shuffle):
        with pytest.raises(ValueError, match=r"^tableau must hold 1\.\.n$"):
            q_inverse_shuffle(shifted)
    with pytest.raises(ValueError, match=r"^not an involution: \(2, 3, 1\)$"):
        cyclic.transport_involution((2, 3, 1))
    with pytest.raises(ValueError, match=r"^not an involution: \(2, 3, 1\)$"):
        oracle_transport_involution((2, 3, 1))


@pytest.mark.parametrize("n2", [0, 2, 4, 6, 8, 10, pytest.param(12, marks=pytest.mark.slow)])
def test_iota_matches_oracle(n2):
    # n2 <= 10: all 1,069 perfect matchings; n2 = 12 adds 10,395 more
    for word in oracle_words(n2, 0):
        assert osc._iota(word) == oracle_iota(word)
        assert mm.to_involution(osc.chen_iota(mm._matching(word))) == oracle_iota(word)


@pytest.mark.parametrize("n", range(9))
def test_enumerate_syt_outputs_revalidate(n):
    for shape in tableau.partitions(n):
        syt = list(tableau.enumerate_syt(shape))
        assert len(set(syt)) == hook_length_count(shape)
        for t in syt:
            revalidated(t)
            assert t.shape == shape
            assert tableau.des(t) == oracle_syt_des(t)


@pytest.mark.parametrize("n", [*range(10), *(pytest.param(n, marks=pytest.mark.slow) for n in (10, 11))])
def test_syt_kernel_matches_oracle(n):
    # n = 0 and n = 1 included: the empty tableau, and the one box
    for shape in tableau.partitions(n):
        expected = list(oracle_enumerate_syt(shape))
        got = []
        tableau._syt_des(shape, lambda rows, d, texts: got.append((tuple(map(tuple, rows)), d, "/".join(texts))))
        masks = [sum(1 << i for i in oracle_tableau_des(t).members) for t in expected]
        assert got == [(t.rows, mask, tableau._format_rows(t.rows)) for t, mask in zip(expected, masks)]
        assert list(tableau.enumerate_syt(shape)) == expected


@pytest.mark.parametrize("n", [*range(11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))])
def test_lattice_counts_match_syt_kernel(n):
    # one forward pass over Young's lattice counts the Des masks of every
    # shape as the tableau search lists them; bounded by a shape, it counts
    # that shape alone, which is the Schur function's descent multiset
    expected = {shape: Counter() for shape in tableau.partitions(n)}
    for shape, masks in expected.items():
        tableau._syt_des(shape, lambda rows, d, texts: masks.update((d,)))
    assert tableau._shape_des_counts(n) == expected
    for shape, masks in expected.items():
        assert tableau._shape_des_counts(n, shape) == {shape: masks}
        assert symfun.schur_descent_multiset(shape) == Counter({perm._members(d): c for d, c in masks.items()})
    rhs = Counter()
    for shape, masks in expected.items():
        for d, c in masks.items():
            rhs[tableau.odd_cols(shape), tableau.height(shape) // 2, perm._members(d)] += c
    assert symfun.rhs_main0(n) == rhs


def test_lattice_counts_refuse_a_negative_n():
    with pytest.raises(ValueError, match="invalid n = -1"):
        tableau._shape_des_counts(-1)


ENUM_FAMILIES = ("matchings", "involutions", "syt")


def _enum_cases(max_n, min_n=0, families=ENUM_FAMILIES):
    """(family, n, k, j) for every family, min_n <= n <= max_n and every
    valid k, j; for syt also without --k."""
    for n in range(min_n, max_n + 1):
        if "syt" in families:
            yield "syt", n, None, None
        for k in range(n % 2, n + 1, 2):
            for j in (None, *range((n - k) // 2 + 1)):
                for family in families:
                    yield family, n, k, j


# the two commands of perfbench's enum workload, run here in csv and json
BENCHMARK_ENUM_CASES = {
    "n12-k0": (("matchings", 12, 0, None), ("involutions", 12, 0, None)),
    "syt-n11": tuple(_enum_cases(11, 11, ("syt",))),
}


@pytest.mark.parametrize(
    "fmt, cases",
    [
        *(pytest.param(fmt, tuple(_enum_cases(7)), id=fmt) for fmt in ("csv", "json", "plain")),
        pytest.param("csv", tuple(_enum_cases(8, 8)), id="csv-n8"),
        pytest.param("csv", tuple(_enum_cases(10, 10)), id="csv-n10", marks=pytest.mark.slow),
        *(
            pytest.param(fmt, cases, id=f"{fmt}-{name}", marks=pytest.mark.slow)
            for name, cases in BENCHMARK_ENUM_CASES.items()
            for fmt in ("csv", "json")
        ),
    ],
)
def test_enum_output_matches_oracle(capsys, fmt, cases):
    for family, n, k, j in cases:
        argv = ["enum", family, "--n", str(n), "--format", fmt]
        argv += [] if k is None else ["--k", str(k)]
        argv += [] if j is None else ["--j", str(j)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == oracle_emit_text(*oracle_enum_rows(family, n, k, j), fmt), argv


def test_enum_cells_hold_only_table_characters():
    """The premise of the CLI's line templates: with no cell holding a quote,
    a backslash, a control character or a letter, a csv cell needs quotes
    exactly when it holds a comma, and a json string needs no escaping."""
    for case in _enum_cases(7):
        header, rows = oracle_enum_rows(*case)
        assert all(name.isidentifier() for name in header)
        for row in rows:
            assert all(set(str(cell)) <= TABLE_CHARACTERS for cell in row), (case, row)


def test_enum_output_file_matches_oracle(tmp_path):
    target = tmp_path / "rows.csv"
    assert cli.main(["enum", "syt", "--n", "6", "--format", "csv", "--output", str(target)]) == 0
    assert target.read_text() == oracle_emit_text(*oracle_enum_rows("syt", 6, None, None), "csv")


@pytest.mark.parametrize("fmt, header_lines", [("csv", 1), ("json", 0), ("plain", None)])
@pytest.mark.parametrize("family", ["matchings", "syt"])
def test_enum_streams_rows(monkeypatch, family, fmt, header_lines):
    """A stand-in row source records how many lines were written each time
    it hands out an object: csv and json have written every earlier row,
    plain has written nothing yet."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []
    if family == "matchings":
        real_stat_counts = mm._stat_counts

        def source(n, k, fold, *rest, **bounds):
            def recorded(*stats):
                written.append(out.getvalue().count("\n"))
                fold(*stats)

            real_stat_counts(n, k, recorded, *rest, **bounds)

        monkeypatch.setattr(mm, "_stat_counts", source)
        argv = ["enum", "matchings", "--n", "6", "--k", "0"]
    else:
        real_syt = tableau._syt_des

        def source(shape, fold):
            def recorded(*leaf):
                written.append(out.getvalue().count("\n"))
                fold(*leaf)

            real_syt(shape, recorded)

        monkeypatch.setattr(tableau, "_syt_des", source)
        argv = ["enum", "syt", "--n", "5"]
    assert cli.main([*argv, "--format", fmt]) == 0
    objects = len(written)
    assert objects == (15 if family == "matchings" else 26)
    if header_lines is None:
        assert written == [0] * objects
        header_lines = 1
    else:
        assert written == [header_lines + i for i in range(objects)]
    assert out.getvalue().count("\n") == header_lines + objects


@pytest.mark.parametrize("n", range(11))
def test_matching_des_matches_oracle(n):
    for m in mm.enumerate_all_matchings(n):
        assert mm.des(m) == oracle_matching_des(m)


def _kernel_descent_sets(n):
    """Every descent set the statistics build on objects of size n."""
    for word in perm.enumerate_sn(n):
        yield perm.des(word)
        cyclic = perm.cellini_cdes(word)
        yield cyclic
        yield cyclic.shifted()
        yield cyclic.restrict_linear()
    for m in mm.enumerate_all_matchings(n):
        yield mm.des(m)
        yield mm.mdes(m)
        yield mm.cmdes(m)
        if not m.unmatched:
            yield osc.kim_des(osc.sundaram(mm.to_involution(m)))
    for t in enumerate_syt_n(n):
        yield tableau.des(t)


@pytest.mark.parametrize("n", range(9))
def test_kernel_descent_sets_revalidate(n):
    for d in _kernel_descent_sets(n):
        assert perm.DescentSet(d.n, d.members, d.cyclic) == d
        assert d.n == n


def test_descent_set_constructor_keeps_range_check():
    for args in [(3, frozenset({3})), (3, frozenset({0})), (3, frozenset({4}), True)]:
        with pytest.raises(ValueError):
            perm.DescentSet(*args)


def test_gessel_pairs_match_oracle():
    assert list(symfun.gessel_pairs(7)) == list(oracle_gessel_pairs(7))


def test_gessel_des_multisets_match_oracle():
    # every pair with m + n <= 7: 1074 pairs
    for pi, sigma_word in symfun.gessel_pairs(7):
        lhs, rhs = oracle_gessel_des_multisets(pi, sigma_word)
        result = verify_gessel(pi, sigma_word)
        assert result.ok and lhs == rhs
        kernel = perm.placements(len(pi), len(sigma_word))
        new_lhs, new_rhs = _des_counts(pi, sigma_word, kernel)
        assert member_sets(new_lhs) == lhs
        assert member_sets(new_rhs) == rhs
        assert result.counts == {"class": len(kernel), "shuffles": len(kernel)}


def test_gessel_inputs_keep_checks():
    for pi, sigma_word in [((2, 1), (4, 3)), ((1, 2), (3, 4)), ((2, 2), (3, 4, 5)), ((1,), (3, 3))]:
        with pytest.raises(ValueError):
            oracle_gessel_class(pi, sigma_word)
        with pytest.raises(ValueError):
            symfun.gessel_class(pi, sigma_word)
        with pytest.raises(ValueError):
            verify_gessel(pi, sigma_word)
    with pytest.raises(ValueError):
        perm.shuffles((1, 2), (2, 3))


def fresh_shuffle_side(pi, sigma_word):
    """The Des multiset of the shuffles of the pair, keyed by masks."""
    return Counter(mask_of(perm.des(w).members) for w in perm.shuffles(pi, sigma_word))


@pytest.mark.parametrize("max_total", [7, pytest.param(9, marks=pytest.mark.slow)])
def test_shuffle_side_depends_only_on_block_and_descents(max_total):
    # every pair with m + n <= max_total gets the shuffle multiset of its
    # own shuffles, from a table computed once per (m, n, Des pi, Des sigma)
    kept, keys = [], set()
    for pi, sigma_word, _, rhs in symfun._gessel_counts(symfun.gessel_pairs(max_total)):
        assert rhs == fresh_shuffle_side(pi, sigma_word)
        kept.append(rhs)
        keys.add((perm.des(pi), perm.des(sigma_word)))
    assert len({id(rhs) for rhs in kept}) == len(keys)


def test_gessel_all_matches_oracle_per_pair(monkeypatch):
    # the (lhs, rhs) that verify_gessel_all compares, pair by pair: 1074 pairs
    seen = []

    def recorded(pairs):
        for item in counts(pairs):
            seen.append(item)
            yield item

    counts = symfun._gessel_counts
    monkeypatch.setattr(symfun, "_gessel_counts", recorded)
    result = symfun.verify_gessel_all(7)
    assert result.ok and result.counts == {"pairs_checked": 1074}
    assert [(pi, sigma_word) for pi, sigma_word, _, _ in seen] == list(oracle_gessel_pairs(7))
    for pi, sigma_word, lhs, rhs in seen:
        assert (member_sets(lhs), member_sets(rhs)) == oracle_gessel_des_multisets(pi, sigma_word)


def test_gessel_counts_read_every_position_of_a_twelve_letter_block():
    # m + n = 12: a bits table shorter than the words would drop their late descents
    pi, sigma_word = (2, 3, 4, 5, 1), (7, 8, 9, 10, 11, 12, 6)  # cycle types (5) and (7)
    ((_, _, lhs, rhs),) = symfun._gessel_counts([(pi, sigma_word)])
    assert lhs == Counter(mask_of(perm.des(w).members) for w in symfun.gessel_class(pi, sigma_word))
    assert rhs == Counter(mask_of(perm.des(w).members) for w in perm.shuffles(pi, sigma_word))
    assert lhs.total() == 792
    assert any(mask >> 11 & 1 for mask in lhs) and any(mask >> 11 & 1 for mask in rhs)


def _unpacked(packed, m, n):
    """The words packed a byte per letter by the Gessel tables of block (m, n)."""
    t = m + n
    data = packed.to_bytes(math.comb(t, m) * t, "little")
    return [tuple(data[p : p + t]) for p in range(0, len(data), t)]


def test_packed_sides_lay_out_the_class_words_and_the_shuffles():
    # one pair per block with m + n <= 8: the byte groups of each packed side,
    # in placements order, are the words the per-word layouts give
    first = {}
    for pi, sigma_word in symfun.gessel_pairs(8):
        first.setdefault((len(pi), len(sigma_word)), (pi, sigma_word))
    assert len(first) == 27  # every block but (1, 1), whose cycle types share the part 1
    for (m, n), (pi, sigma_word) in first.items():
        class_table, spots, _ = symfun._packed_block(m, n)
        class_side = symfun._class_packed(pi, sigma_word, class_table)
        shuffle_side = sum(map(operator.mul, (*pi, *sigma_word), spots))
        assert _unpacked(class_side, m, n) == symfun._class_words(pi, sigma_word, perm.placements(m, n))
        assert _unpacked(shuffle_side, m, n) == perm.shuffles(pi, sigma_word)


def test_a_block_past_127_letters_is_refused_before_its_tables(monkeypatch):
    # a letter and the borrow bit share a byte; the class table of m = 1,
    # n = 127 would hold 16,130 integers of 16 KB, so nothing may be built first
    monkeypatch.setattr(perm, "placements", None)
    pair = (1,), (*range(3, 129), 2)  # cycle types (1) and (127)
    with pytest.raises(ValueError, match="128 letters"):
        next(symfun._gessel_counts([pair]))


def test_syt_des_keeps_entry_check():
    for rows in [((2, 3),), ((1, 3), (2, 5)), ((1, 4), (2,))]:
        with pytest.raises(ValueError):
            tableau.des(from_rows(rows))
        with pytest.raises(ValueError):
            oracle_syt_des(from_rows(rows))


def test_random_matching_is_uniform():
    rng = random.Random(0)
    draws = Counter(random_matching(6, 2, rng) for _ in range(9000))
    assert set(draws) == set(mm.enumerate_matchings(6, 2))  # 45 matchings
    assert all(100 <= c <= 300 for c in draws.values())  # expected 200 each
    for n, k in [(5, 0), (4, 6), (3, -1)]:
        with pytest.raises(ValueError):
            random_matching(n, k, rng)


def test_rs_insert_matches_oracle():
    for t in doubled_tableaux(6):
        for x in range(1, 2 * t.size + 2, 2):
            got = rs_insert(t, x)
            assert got == oracle_rs_insert(t, x)
            revalidated(got[0])


def test_reverse_rs_insert_matches_oracle():
    for t in doubled_tableaux(7):
        for corner in outer_corners(t.shape):
            got = tableau.reverse_rs_insert(t, corner)
            assert got == oracle_reverse_rs_insert(t, corner)
            revalidated(got[0])


def involution_words(max_n):
    """Every involution word with n <= max_n, from the matching search."""
    words = []
    for n in range(max_n + 1):
        mm._stat_counts(n, None, lambda k: lambda *stats: words.append(stats[-1]), words=True)
    return words


def assert_beissinger_is_rs(word):
    """Beissinger's insertion and its peel against full RS on one involution."""
    p_rows, q_rows = tableau._rs(word)
    assert tableau._involution_rows(word) == p_rows == q_rows
    assert tableau._involution(p_rows) == list(word)


def test_involution_rows_are_rs_and_peel_back():
    words = involution_words(10)
    assert len(words) == 13232
    for word in words:
        assert_beissinger_is_rs(word)


def test_iota_hat_peel_matches_reverse_rs():
    for word in involution_words(9):
        assert bj._iota_hat(word) == iota_hat_by_reverse_rs(word)


def test_iota_hat_is_iota_on_perfect_matchings():
    # k = 0: phi = ι gives an involution, so ι̂(m) = RS⁻¹(P(ι m), P(ι m)) = ι(m),
    # and the classes where the peel does all of the work pin it
    table = {}
    for n in range(0, 11, 2):
        words = []
        mm._stat_counts(n, 0, lambda *stats: words.append(stats[-1]), words=True)
        assert len(words) == math.prod(range(1, n, 2))
        for word in words:
            assert bj._iota_hat(word, table) == osc._iota(word)


def test_jdt_delete_matches_oracle():
    for t in doubled_tableaux(7):
        for x in t.entries():
            got = jdt_delete(t, x)
            assert got == oracle_jdt_delete(t, x)
            revalidated(got)


def test_reverse_jdt_place_matches_oracle():
    for t in doubled_tableaux(6):
        for corner in addable_cells(t.shape):
            for x in range(1, 2 * t.size + 2, 2):
                got = reverse_jdt_place(t, x, corner)
                assert got == oracle_reverse_jdt_place(t, x, corner)
                revalidated(got)


def test_wrappers_keep_input_checks():
    t = from_rows(((2, 4), (6,)))
    with pytest.raises(ValueError):
        rs_insert(t, 4)
    with pytest.raises(ValueError):
        tableau.reverse_rs_insert(t, (1, 1))
    with pytest.raises(ValueError):
        jdt_delete(t, 5)
    with pytest.raises(ValueError):
        reverse_jdt_place(t, 4, (1, 3))  # 4 already present
    with pytest.raises(ValueError):
        reverse_jdt_place(t, 5, (3, 2))  # not an addable cell
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


# shapes above the exhaustive range whose tableaux stay few enough to list
_MID_SHAPES = [shape for n in range(12, 17) for shape in tableau.partitions(n) if hook_length_count(shape) <= 5000]


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(_MID_SHAPES))
def test_syt_kernel_matches_oracle_large(shape):
    row_words = []  # the row of each entry 1..n, one word per leaf

    def fold(rows, mask, texts):
        t = from_rows(rows)
        assert t.shape == shape
        assert mask == sum(1 << i for i in oracle_syt_des(t).members)
        assert "/".join(texts) == tableau._format_rows(rows)
        row_of = {e: r for r, row in enumerate(rows) for e in row}
        row_words.append(tuple(row_of[e] for e in range(1, len(row_of) + 1)))

    tableau._syt_des(shape, fold)
    assert len(row_words) == hook_length_count(shape)  # distinct by the order below
    assert all(a < b for a, b in zip(row_words, row_words[1:]))  # top row first


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
def test_iota_hat_and_h_map_match_the_composition_large(word):
    assert bj.iota_hat(word) == iota_hat_by_composition(word)
    assert bj.h_map(word) == h_map_by_composition(word)


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
    return random_matching(n, k, draw(st.randoms(use_true_random=False)))


@settings(deadline=None, max_examples=50)
@given(sampled_matchings(max_n=40))
def test_involution_rows_are_rs_and_peel_back_large(m):
    assert_beissinger_is_rs(mm.to_involution(m))


@settings(deadline=None, max_examples=30)
@given(sampled_matchings())
def test_crossing_nesting_matches_subset_oracles_large(m):
    # at most 16 arcs for n <= 32, within the oracles' size guard
    assert mm.crossing_nesting(m) == (crossing_number_oracle(m), nesting_number_oracle(m))


def test_statistics_match_oracles_above_the_exhaustive_range():
    # n = 13..20 lies past every exhaustive test; a fixed seed makes a failure reproducible
    rng = random.Random(2022)
    for n in range(13, 21):
        for k in (n % 2, n % 2 + 2, n // 2 - (n // 2 - n) % 2, n - 2):
            for _ in range(8):
                m = random_matching(n, k, rng)
                word = mm.to_involution(m)
                assert mm.crossing_nesting(m) == (crossing_number_oracle(m), nesting_number_oracle(m))
                assert mm.mdes(m).members == oracle_geometric_descents(word, n - 1) == oracle_mdes(m).members
                assert mm.cmdes(m).members == oracle_cmdes(m).members


@settings(deadline=None, max_examples=50)
@given(sampled_matchings())
def test_nesting_number_is_half_the_rs_height_large(m):
    _, q = tableau.rs_pair(mm.to_involution(m))
    assert mm.nesting_number(m) == tableau.height(q.shape) // 2


@settings(deadline=None, max_examples=50)
@given(sampled_matchings())
def test_cmdes_rotation_equivariance_large(m):
    assert mm.cmdes(mm.rotate(m)) == mm.cmdes(m).shifted()


@st.composite
def gessel_inputs(draw, min_total=9, max_total=12):
    """A permutation pi of [m] and a word sigma on m+1..m+n, m + n in
    [min_total, max_total]; their cycle types may share a part."""
    total = draw(st.integers(min_total, max_total))
    m = draw(st.integers(1, total - 1))
    pi = tuple(draw(st.permutations(range(1, m + 1))))
    sigma_word = tuple(draw(st.permutations(range(m + 1, total + 1))))
    return pi, sigma_word


@settings(deadline=None, max_examples=40)
@given(gessel_inputs())
def test_gessel_words_match_oracle_large(pair):
    pi, sigma_word = pair
    assert perm.shuffles(pi, sigma_word) == oracle_shuffles(pi, sigma_word)
    try:
        expected = oracle_gessel_class(pi, sigma_word)
    except ValueError:
        with pytest.raises(ValueError):
            symfun.gessel_class(pi, sigma_word)
    else:
        assert symfun.gessel_class(pi, sigma_word) == expected


def with_descents_of(word, base):
    """A word on the letters base+1..base+len(word) with the descent set of
    ``word``: its ascending runs take the largest letters first."""
    runs = [[]]
    for i, v in enumerate(word):
        if i and word[i - 1] > v:
            runs.append([])
        runs[-1].append(v)
    out, top = [], base + len(word)
    for run in runs:
        out.extend(range(top - len(run) + 1, top + 1))
        top -= len(run)
    return tuple(out)


@settings(deadline=None, max_examples=40)
@given(gessel_inputs())
def test_cached_shuffle_side_matches_verify_gessel_large(pair):
    # the shuffle side is read from a table seeded by another pair with the
    # same block and descent sets
    pi, sigma_word = pair
    seed = (with_descents_of(pi, 0), with_descents_of(sigma_word, len(pi)))
    assert (perm.des(seed[0]), perm.des(seed[1])) == (perm.des(pi), perm.des(sigma_word))
    (*_, seeded), (*_, lhs, rhs) = symfun._gessel_counts([seed, pair])
    assert rhs is seeded and rhs == fresh_shuffle_side(pi, sigma_word)
    try:
        result = verify_gessel(pi, sigma_word)
    except ValueError:  # the cycle types share a part
        return
    kernel = perm.placements(len(pi), len(sigma_word))
    assert result.ok and result.counts == {"class": len(kernel), "shuffles": len(kernel)}
    assert (lhs, rhs) == _des_counts(pi, sigma_word, kernel)


@settings(deadline=None, max_examples=40)
@given(gessel_inputs())
def test_packed_counts_match_the_per_word_counts_large(pair):
    # 9 <= m + n <= 12, cycle types free to share a part: the packed kernel's
    # multisets, keys in first-occurrence order, against the per-word count
    # of the class words and of the shuffles
    pi, sigma_word = pair
    ((_, _, lhs, rhs),) = symfun._gessel_counts([pair])
    bits = [1 << i for i in range(1, len(pi) + len(sigma_word))]
    class_words = symfun._class_words(pi, sigma_word, perm.placements(len(pi), len(sigma_word)))
    assert list(lhs.items()) == list(_descent_counts(class_words, bits).items())
    assert list(rhs.items()) == list(_descent_counts(perm.shuffles(pi, sigma_word), bits).items())


@st.composite
def sampled_words(draw, min_n=20, max_n=40):
    """Involution words of uniform matchings from M_{n,k}, n in [min_n, max_n]."""
    return mm.to_involution(draw(sampled_matchings(min_n, max_n)))


@settings(deadline=None, max_examples=50)
@given(sampled_words(min_n=12, max_n=64))
def test_sweep_matches_the_oracles_large(word):
    assert mm._sweep(word) == _oracle_sweep(word)


@settings(deadline=None, max_examples=25)
@given(sampled_words())
def test_q_roundtrip_large(word):
    # q_inverse_shuffle far beyond the exhaustive range
    element = bj.phi(word)
    assert q_map_inverse(bj.q_map(element)) == element


@settings(deadline=None, max_examples=25)
@given(sampled_words())
def test_iota_hat_transports_mdes_and_cr_large(word):
    image = bj.iota_hat(word)
    assert perm._descents(image) == oracle_geometric_descents(word, len(word) - 1)
    assert oracle_cr_ne(image)[1] == oracle_cr_ne(word)[0]


@settings(deadline=None, max_examples=25)
@given(sampled_words())
def test_cyclic_transport_large(word):
    cd, image = cyclic.transport_involution(word)
    assert cd.restrict_linear().members == perm.des(word).members
    assert cyclic.transport_involution(image)[0] == cd.shifted()
    assert len(perm.fixed_points(image)) == len(perm.fixed_points(word))
    assert oracle_cr_ne(image)[1] == oracle_cr_ne(word)[1]
    assert bj.h_map_inverse(bj.h_map(word)) == word
