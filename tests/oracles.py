"""
Reference implementations that the tests check the package against.

The brute-force crossing and nesting numbers over arc subsets are the
ground truth for the one-sweep ``matching.crossing_nesting``.
``oracle_geometric_descents`` and ``oracle_cr_ne`` are the package's
earlier per-word sweeps, which ``matching._search`` replaced: the
reference for the one home of MDes, cMDes, cr and ne; ``oracle_cr_ne``
reads its LIS off ``longest_increasing``, a copy of its own, so that a
wrong LIS in ``matching`` cannot shift both sides alike.  The rest are the
package's earlier per-object paths: the validated one-step RS and
jeu-de-taquin wrappers, the per-element cDes verifier, the per-word
nesting filter, the per-pair Gessel check and a few enumerators and
codecs that no command uses.  Each still calls the package's kernels
(``tableau._insert``, ``_slide_out``, ``_slide_in``, ``cyclic._check_class``,
``bijection._phi_inverse``, ``_q_map_inverse``, ``tableau._syt_shapes``,
``symfun._class_words``), so a test against one of them exercises the
same code as before.  ``_descent_counts`` is the package's earlier
per-word Des count of the Gessel check, which the packed one of
``symfun._gessel_counts`` replaced; through ``_des_counts`` it is the
differential oracle for that kernel.  The package compares descent sets
as bit masks (``mask_of``, read back as sets by ``member_sets``); ``oracle_report``,
``oracle_class_sides`` and ``oracle_main0_sides`` are its earlier
set-keyed cyclic axioms and multisets, the reference for the mask
comparisons and for the witnesses that a failing check prints.  ι̂ and H by composition, RS of the word
φ(w) itself, are the oracle for the kernel that reads H as P(φ(w)⁻¹); ι̂ by
RS⁻¹(H, H), one unbump per letter, is the oracle for the peel of
``tableau._involution``.  ``oracle_enumerate_matchings``, a recursion through the
checked ``Matching`` constructor, is the reference for
``matching._stat_counts``, the package's one enumerator of matchings.
``oracle_emit_text`` writes a table through ``csv.writer``, one
``json.dumps`` per row or ``ljust`` columns: the reference for the lines
that ``enum`` and ``orbits`` render themselves.  ``oracle_partitions``,
built bottom-up and sorted, is the reference for the top-down generator
of ``tableau.partitions`` and of the cut shapes of ``_syt_shapes``.
"""
from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import random
from collections import Counter
from operator import gt
from typing import Callable, Iterable, Iterator, Sequence

from matchdescents import perm, tableau
from matchdescents.bijection import ShuffleElement, _h_rows, _phi, _phi_inverse, _q_map, _q_map_inverse
from matchdescents.cyclic import CdesReport, _check_class, _cr_ne_classes, orbits
from matchdescents.matching import Matching, _check_nkj, _matching, to_involution
from matchdescents.oscillating import OscillatingTableau
from matchdescents.perm import Placements, Word, _involution
from matchdescents.symfun import VerifyResult, _check_pair, _class_words, _gessel_result
from matchdescents.tableau import (
    Cell,
    Shape,
    StandardTableau,
    _insert,
    _reverse_rs,
    _rs,
    _slide_in,
    _slide_out,
    _syt_shapes,
    _tableau,
    check_shape,
    enumerate_syt,
    transpose_shape,
)


def arcs_cross(a, b):
    """Linear diagram: two disjoint arcs cross iff their endpoints interleave."""
    (a1, a2), (b1, b2) = sorted((a, b))
    return a1 < b1 < a2 < b2


def arcs_nest(a, b):
    """Linear diagram: one arc lies strictly inside the other."""
    return (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])


def crossing_number_oracle(m):
    """Largest set of pairwise crossing arcs, by brute force over subsets."""
    return _subset_oracle(m, arcs_cross)


def nesting_number_oracle(m):
    """Largest set of pairwise nested arcs, by brute force over subsets."""
    return _subset_oracle(m, arcs_nest)


def _subset_oracle(m, related):
    if len(m.arcs) > 16:
        raise ValueError("oracle size guard exceeded")
    for r in range(len(m.arcs), 0, -1):
        for subset in itertools.combinations(m.arcs, r):
            if all(related(a, b) for a, b in itertools.combinations(subset, 2)):
                return r
    return 0


# ---------------------------------------------------------------------------
# perm

def mask_of(members: Iterable[int]) -> int:
    """The mask of a set of positions: bit i for position i."""
    return sum(1 << i for i in members)


def member_sets(counts: Counter) -> Counter:
    """A multiset keyed by masks, re-keyed by the set of positions of each."""
    return Counter({frozenset(i for i in range(mask.bit_length()) if mask >> i & 1): c for mask, c in counts.items()})


def compose(a: Word, b: Word) -> Word:
    """The permutation a∘b, mapping i to a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(b)))


# ---------------------------------------------------------------------------
# matching

def random_matching(n: int, k: int, rng: random.Random) -> Matching:
    """
    A uniform element of M_{n,k}: the first k points of a uniform
    shuffle are the unmatched set, and consecutive pairs of the rest form
    a uniform perfect matching on it.
    """
    _check_nkj(n, k)
    points = list(range(1, n + 1))
    rng.shuffle(points)
    rest = points[k:]
    return Matching(n, tuple(zip(rest[::2], rest[1::2])))


def oracle_enumerate_matchings(n: int, k: int) -> Iterator[Matching]:
    """
    The matchings of M_{n,k} by smallest-undecided-first recursion through
    the checked ``Matching`` constructor: that point is left unmatched
    first, then paired with each larger undecided point in turn, which
    lists them in increasing order of involution words.
    """
    if (n - k) % 2 != 0 or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")

    def gen(points, arcs, free):
        if len(points) == free:
            yield Matching(n, arcs)
            return
        first, rest = points[0], points[1:]
        if free > 0:
            yield from gen(rest, arcs, free - 1)
        for i, q in enumerate(rest):
            yield from gen(rest[:i] + rest[i + 1 :], arcs + ((first, q),), free)

    yield from gen(tuple(range(1, n + 1)), (), k)


def oracle_words(n: int, k: int) -> Iterator[Word]:
    """The involution words of ``oracle_enumerate_matchings(n, k)``, in its order."""
    return map(to_involution, oracle_enumerate_matchings(n, k))


def enumerate_inkj(n: int, k: int, j: int) -> Iterator[Matching]:
    """Matchings in M_{n,k} with nesting number j."""
    return map(_matching, _inkj_words(n, k, j))


def _inkj_words(n: int, k: int, j: int) -> Iterator[Word]:
    """The words of ``oracle_words(n, k)`` with nesting number j, in its order."""
    _check_nkj(n, k, j)
    return (w for w in oracle_words(n, k) if oracle_cr_ne(w)[1] == j)


def oracle_geometric_descents(word: Word, last: int) -> frozenset[int]:
    """
    The positions i in 1..last that pass the geometric descent test on
    the involution word of a matching on n points, with successor
    i % n + 1: {i, succ} is an arc, the arcs through i and succ cross,
    or i is unmatched while succ is matched.  Two disjoint arcs cross, on
    the line and on the circle alike, iff exactly one endpoint of the one
    lies strictly between the endpoints of the other.  MDes reads
    last = n - 1 and cMDes last = n.
    """
    n = len(word)
    members = set()  # frozenset(set) sizes its table to fit; from a list it does not
    for i in range(1, last + 1):
        succ = i % n + 1
        pi, ps = word[i - 1], word[succ - 1]
        if pi == i:
            if ps != succ:
                members.add(i)
        elif pi == succ:
            members.add(i)
        elif ps != succ:
            lo, hi = (i, pi) if i < pi else (pi, i)
            if (lo < succ < hi) != (lo < ps < hi):
                members.add(i)
    return frozenset(members)


def longest_increasing(seq: Iterable[int]) -> int:
    """The length of a longest strictly increasing subsequence, by patience
    sorting: a copy of its own, so that a wrong LIS in the package shows."""
    tails: list[int] = []
    for x in seq:
        i = bisect.bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def oracle_cr_ne(word: Word) -> tuple[int, int]:
    """crossing_nesting of the matching whose involution word is ``word``,
    by a sweep of its own over the word."""
    rights: list[int] = []
    grown = False
    cr = ne = 0
    for t, q in enumerate(word, start=1):
        if q > t:
            rights.append(q)
            grown = True
        elif q < t:
            if grown:
                cr = max(cr, longest_increasing(rights))
                ne = max(ne, longest_increasing(reversed(rights)))
                grown = False
            rights.remove(t)
    return cr, ne


def matching_to_json(m: Matching) -> str:
    return json.dumps({"n": m.n, "arcs": [list(arc) for arc in m.arcs]})


def matching_from_json(text: str) -> Matching:
    data = json.loads(text)
    return Matching(int(data["n"]), tuple((int(a), int(b)) for a, b in data["arcs"]))


# ---------------------------------------------------------------------------
# tableau

def rs_insert(t: StandardTableau, x: int) -> tuple[StandardTableau, Cell]:
    """
    Robinson-Schensted row insertion of x, returning the new tableau and
    the cell added to the shape.
    """
    if x in t.entries():
        raise ValueError(f"{x} already present")
    rows = [list(row) for row in t.rows]
    r = _insert(rows, x)
    return _tableau(rows), (r + 1, len(rows[r]))


def jdt_delete(t: StandardTableau, x: int) -> StandardTableau:
    """
    Remove the cell holding x and close the hole with forward
    jeu-de-taquin slides (the smaller of the right/below neighbors moves
    in; a lone neighbor moves unconditionally).
    """
    r, c = t.find(x)
    rows = [list(row) for row in t.rows]
    _slide_out(rows, r - 1, c - 1)
    return _tableau(rows)


def reverse_jdt_place(t: StandardTableau, x: int, corner: Cell) -> StandardTableau:
    """
    Inverse of jdt_delete: open a hole at the given outer corner, slide
    it inward past larger entries, and write x into it.
    """
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
    _slide_in(rows, x, r - 1, c - 1)
    return _tableau(rows)


def oracle_partitions(n: int) -> list[Shape]:
    """Every partition of n in reverse lexicographic order: the weakly
    increasing compositions of n, built bottom-up, each reversed, sorted."""

    def ascending(m: int, least: int) -> Iterator[Shape]:
        if not m:
            yield ()
        for part in range(least, m + 1):
            for rest in ascending(m - part, part):
                yield (part, *rest)

    return sorted((parts[::-1] for parts in ascending(n, 1)), reverse=True)


def enumerate_syt_n(n: int) -> Iterator[StandardTableau]:
    return (t for shape in _syt_shapes(n) for t in enumerate_syt(shape))


def enumerate_syt_nkj(n: int, k: int, j: int) -> Iterator[StandardTableau]:
    """Tableaux with k odd columns and height in {2j, 2j+1}."""
    return (t for shape in _syt_shapes(n, k, j) for t in enumerate_syt(shape))


def hook_length_count(shape: Shape) -> int:
    """|SYT(shape)| via the hook length formula."""
    shape = check_shape(shape)
    cols = transpose_shape(shape)
    n = sum(shape)
    num = 1
    for i in range(2, n + 1):
        num *= i
    den = 1
    for r, row_len in enumerate(shape, start=1):
        for c in range(1, row_len + 1):
            den *= (row_len - c) + (cols[c - 1] - r) + 1
    return num // den


# ---------------------------------------------------------------------------
# oscillating

def enumerate_oscillating(size: int) -> Iterator[OscillatingTableau]:
    """All walks of the given (even) size from empty to empty."""
    if size % 2 != 0:
        raise ValueError("size must be even")

    def neighbors(shape: Shape) -> Iterator[Shape]:
        padded = shape + (0,)
        for r in range(len(padded)):  # add a box
            if not r or padded[r - 1] > padded[r]:
                yield shape[:r] + (padded[r] + 1,) + shape[r + 1 :]
        for r in range(len(shape)):  # remove a box
            if shape[r] > padded[r + 1]:
                yield shape[:r] + ((shape[r] - 1,) if shape[r] > 1 else ()) + shape[r + 1 :]

    def gen(path: list[Shape]) -> Iterator[OscillatingTableau]:
        left = size + 1 - len(path)  # the steps still to take
        if not left:
            yield OscillatingTableau(tuple(path))
        for nxt in neighbors(path[-1]):
            if sum(nxt) < left:  # must be able to return to empty
                yield from gen(path + [nxt])

    yield from gen([()])


# ---------------------------------------------------------------------------
# bijection

def phi_inverse(t: ShuffleElement) -> Word:
    return _phi_inverse(t.word, t.k)


def q_map_inverse(word: Word) -> ShuffleElement:
    """Invert the recording-tableau map on an involution with k fixed points."""
    shuffle_word, k = _q_map_inverse(_involution(word))
    return perm._trusted(ShuffleElement, word=shuffle_word, k=k)


def iota_hat_by_composition(word: Word) -> Word:
    """ι̂ of an involution as RS⁻¹(Q, Q), with Q the recording tableau of
    the word φ(word), inserted letter by letter."""
    return _q_map(_phi(word))


def iota_hat_by_reverse_rs(word: Word) -> Word:
    """ι̂ of an involution as RS⁻¹(H, H) by one unbump per letter, each
    from the row where H records it: the package's ι̂ before it peeled H
    by Beissinger's rule."""
    rows = _h_rows(word)
    return tuple(_reverse_rs(rows, rows))


def h_map_by_composition(word: Word) -> StandardTableau:
    """H of an involution as the recording tableau of the word φ(word)."""
    return _tableau(_rs(_phi(word))[1])


def shuffle_cr_ne(t: ShuffleElement) -> tuple[int, int]:
    """Crossing and nesting numbers of the standardized small-letter core."""
    return oracle_cr_ne(t.small_involution())


# ---------------------------------------------------------------------------
# cyclic

def verify_cdes(ground_set: Iterable, des_fn: Callable, transport: Callable, set_id: str = "") -> CdesReport:
    """
    Check extension, equivariance and non-Escher for the pair (cDes(x),
    p(x)) that ``transport`` gives for each x of the ground set, with Des(x)
    = ``des_fn(x)`` (DescentSets), and report the orbit structure of p.
    """
    elements = list(ground_set)
    if len(set(elements)) != len(elements):
        raise ValueError("ground set contains duplicates")
    # cDes of p(x) is read from p(x)'s own entry, computed from p(x) alone
    transported = {x: transport(x) for x in elements}
    p = {x: image for x, (_, image) in transported.items()}
    if set(p.values()) != p.keys():
        raise ValueError("p is not a bijection of the ground set")
    n = transported[elements[0]][0].n if elements else 0
    cdes = {x: cd.members for x, (cd, _) in transported.items()}
    return oracle_report(set_id, n, {x: des_fn(x).members for x in elements}, cdes, p)


def oracle_report(set_id: str, n: int, des: dict, cdes: dict, p: dict) -> CdesReport:
    """``cyclic._report`` on the members of Des and cDes, as sets, of each
    element of ``des``, in its order."""
    witnesses = [x for x in des if not cdes[x] or len(cdes[x]) == n]  # a cyclic descent set lies in [n]
    return CdesReport(
        set_id=set_id,
        extension_ok=all(cdes[x] - {n} == members for x, members in des.items()),
        equivariance_ok=all(cdes[p[x]] == {i % n + 1 for i in members} for x, members in cdes.items()),
        non_escher_ok=not witnesses,
        escher_witnesses=witnesses,
        orbit_sizes=[len(orbit) for orbit in orbits(list(des), p.__getitem__)],
    )


def verify_cdes_involutions(n: int, k: int, j: int) -> CdesReport:
    """Run the verifier on the involutions with k fixed points and
    nesting number j."""
    return _check_class(n, k, j, _cr_ne_classes(n, k))


def verify_cdes_syt(n: int, k: int, j: int) -> CdesReport:
    return _check_class(n, k, j, _cr_ne_classes(n, k), syt=True)


# ---------------------------------------------------------------------------
# symfun

def per_word_stats(n: int, k: int) -> Iterator[tuple[int, int, frozenset[int], frozenset[int]]]:
    """(cr, ne, MDes, Des) of each matching of M_{n,k}, one sweep per word,
    in increasing order of words."""
    return ((*oracle_cr_ne(w), oracle_geometric_descents(w, n - 1), perm._descents(w)) for w in oracle_words(n, k))


def oracle_class_sides(identity: str, stats: Iterable[tuple]) -> tuple[Counter, Counter]:
    """The multisets, keyed by sets, that main1, main11 or main111 compares
    on one class, from the (cr, ne, MDes, Des) of each of its matchings."""
    stats = list(stats)
    if identity == "main1":
        lhs = Counter((g, d, cr, ne) for cr, ne, g, d in stats)
        return lhs, Counter({(d, g, ne, cr): c for (g, d, cr, ne), c in lhs.items()})
    if identity == "main111":
        return Counter((cr, ne, g) for cr, ne, g, _ in stats), Counter((ne, cr, d) for cr, ne, _, d in stats)
    return Counter((cr, g) for cr, _, g, _ in stats), Counter((ne, d) for _, ne, _, d in stats)


def oracle_main0_sides(n: int, stats: dict[int, Iterable[tuple]]) -> tuple[Counter, Counter]:
    """The multisets, keyed by sets, that main0 compares: (um, cr, MDes) from
    the (cr, ne, MDes, Des) of each matching of each class k in ``stats``,
    and (odd columns, floor(height/2), Des) of every SYT of size n."""
    lhs = Counter((k, cr, g) for k, class_stats in stats.items() for cr, _, g, _ in class_stats)
    rhs = Counter(
        (tableau.odd_cols(t.shape), tableau.height(t.shape) // 2, tableau.des(t).members) for t in enumerate_syt_n(n)
    )
    return lhs, rhs


def _descent_counts(words: Iterable[Word], bits: Sequence[int]) -> Counter:
    """The Des multiset of the words, keyed by masks; ``bits`` holds 1 << i
    for each position i = 1, ..., n - 1 of words of length n."""
    return Counter(sum(itertools.compress(bits, map(gt, w, w[1:]))) for w in words)


def _des_counts(pi: Word, sigma_word: tuple[int, ...], kernel: Placements) -> tuple[Counter, Counter]:
    """The Des multisets, keyed by masks, of the split class and of the
    shuffles of a checked pair."""
    joined = (*pi, *sigma_word)
    bits = [1 << i for i in range(1, len(joined))]
    lhs = _descent_counts(_class_words(pi, sigma_word, kernel), bits)
    return lhs, _descent_counts((layout(joined) for _, layout in kernel), bits)


def verify_gessel(pi: Word, sigma_word: tuple[int, ...]) -> VerifyResult:
    """Des-multiset equality between the split class and the shuffles."""
    _check_pair(pi, sigma_word)
    kernel = perm.placements(len(pi), len(sigma_word))
    return _gessel_result(pi, sigma_word, *_des_counts(pi, sigma_word, kernel))


# every character that a cell of an enum or orbits table may hold
TABLE_CHARACTERS = frozenset("0123456789,/-()[]{}")


def oracle_emit_text(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """The text of a table as ``csv.writer``, one ``json.dumps`` per row or
    ``ljust`` columns write it: the reference for the rendered lines of
    ``enum`` and ``orbits``."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "json":
        return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows)  # no rows: no bytes
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
