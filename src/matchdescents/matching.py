"""
Partial matchings on n labeled points.

A matching is a set of pairwise disjoint arcs {i, j} on points 1..n; it
is identified with the involution that swaps the endpoints of each arc
and fixes the unmatched points.  The geometric statistics (MDes, cMDes,
crossing and nesting numbers) are defined on the arc diagram, drawn on a
line for the linear statistics and on a circle for the cyclic one.

The working representation is the involution word: ``word[i-1]`` is the
partner of i, or i itself when i is unmatched.  ``Matching`` is the type
of the parsers, the codecs and the public functions, which convert once
and keep every input check; one that wraps a word the package built is
not checked.

MDes, cr and ne have one home, the left-to-right sweep of ``_search``, a
depth-first search in increasing order of words that carries the sweep
state (cr, ne, and Des and MDes as bit masks) down to every leaf.
``_stat_counts`` runs it over M_{n,k}, or every class at once; ``_sweep``
on one word, for ``mdes``, ``cmdes`` (MDes and the bit at n,
``_cmdes_mask``) and ``crossing_nesting``.  Its partner list stays in
this module: the loops over a class that read the matchings get their
words from ``_stat_counts`` (``enum``, the cyclic class split, the
bijection identities and ``enumerate_matchings``).
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator

from . import perm
from .perm import DescentSet, ParseError, Word

Arc = tuple[int, int]


class Matching(perm._Record, frozen=True):
    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"invalid n = {self.n}")
        # an arc (a, a) repeats its endpoint, so it is refused before disjointness
        if any(a == b for a, b in self.arcs):
            raise ValueError("degenerate arc")
        endpoints = [e for arc in self.arcs for e in arc]
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("arcs are not pairwise disjoint")
        if not all(1 <= e <= self.n for e in endpoints):
            raise ValueError(f"endpoint out of range [1,{self.n}]")
        normalized = tuple(sorted((min(a, b), max(a, b)) for a, b in self.arcs))
        object.__setattr__(self, "arcs", normalized)

    @property
    def unmatched(self) -> int:
        return self.n - 2 * len(self.arcs)

    def unmatched_points(self) -> frozenset[int]:
        matched = {e for arc in self.arcs for e in arc}
        return frozenset(i for i in range(1, self.n + 1) if i not in matched)

    def partner(self, i: int) -> int | None:
        for a, b in self.arcs:
            if i == a:
                return b
            if i == b:
                return a
        return None

    def __str__(self) -> str:
        return format_matching(self)


def matching(n: int, *arcs: Arc) -> Matching:
    return Matching(n, tuple(arcs))


def to_involution(m: Matching) -> Word:
    word = list(range(1, m.n + 1))
    for a, b in m.arcs:
        word[a - 1], word[b - 1] = b, a
    return tuple(word)


def from_involution(word: Word) -> Matching:
    return _matching(perm._involution(word))


def _matching(word: Word) -> Matching:
    """``from_involution`` without its checks, for a word the package built."""
    return perm._trusted(Matching, n=len(word), arcs=tuple((i, v) for i, v in enumerate(word, start=1) if v > i))


def des(m: Matching) -> DescentSet:
    """
    Standard descent set of the involution: i is a descent iff the image
    of i exceeds that of i+1, an unmatched point being its own image.
    """
    return perm.des(to_involution(m))


def mdes(m: Matching) -> DescentSet:
    """
    Geometric descent set: i is a descent iff {i, i+1} is an arc, the arcs
    through i and i+1 cross (exactly one endpoint of the one lies strictly
    between those of the other), or i is unmatched while i+1 is matched.
    """
    return perm._trusted(DescentSet, n=m.n, members=perm._members(_sweep(to_involution(m))[2]))


def cmdes(m: Matching) -> DescentSet:
    """Cyclic geometric descent set, with i+1 read mod n and crossing
    read as chord intersection on the circle."""
    return _cmdes(to_involution(m))


def _cmdes(word: Word) -> DescentSet:
    """cMDes of the matching whose involution word is ``word``."""
    mask = _cmdes_mask(word, _sweep(word)[2])
    return perm._trusted(DescentSet, n=len(word), members=perm._members(mask), cyclic=True)


def _cmdes_mask(word: Word, mdes: int) -> int:
    """The cMDes mask of the matching whose involution word is ``word``,
    given its MDes mask: the bit at n is MDes's test on n and its successor
    1 (n unmatched and 1 matched, the arc {n, 1}, or crossing chords)."""
    n = len(word)
    if not n:
        return mdes
    last, first = word[-1], word[0]
    return mdes | (first != 1 if last == n else last == 1 or last < first < n) << n


def rotate(m: Matching) -> Matching:
    """Rotation i -> i+1 (mod n) of all labels."""
    return _matching(_rotate(to_involution(m)))


def _rotate(word: Word) -> Word:
    """
    The involution word of the rotated matching: the partner v of i
    becomes the partner v % n + 1 of i % n + 1.

    >>> _rotate((4, 2, 6, 1, 5, 3))  # 1-4,3-6 on 6 points -> 1-4,2-5
    (4, 5, 3, 1, 2, 6)
    """
    n = len(word)
    return tuple(v % n + 1 for v in word[-1:] + word[:-1])


# ---------------------------------------------------------------------------
# Crossing and nesting numbers, and the sweep of one word

def _longest_increasing(seq: Iterable[int]) -> int:
    tails: list[int] = []
    for x in seq:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def crossing_nesting(m: Matching) -> tuple[int, int]:
    """
    (cr, ne): the largest r with arcs i1<...<ir<j1<...<jr (crossing) and
    with arcs i1<...<ir<jr<...<j1 (nesting).  Either family spans a
    common gap, so the answer is the longest increasing (for cr) and
    decreasing (for ne) subsequence of right endpoints, in left-endpoint
    order, over the arcs spanning some gap.  One sweep keeps that list of
    right endpoints; it is read only just before a closer, and only when
    an arc has opened since the last read, because every other gap's
    spanning set is contained in one read there.
    """
    return _sweep(to_involution(m))[:2]


def crossing_number(m: Matching) -> int:
    return crossing_nesting(m)[0]


def nesting_number(m: Matching) -> int:
    return crossing_nesting(m)[1]


def _sweep(word: Word) -> tuple[int, int, int, int]:
    """(cr, ne, MDes, Des) of the matching whose involution word is ``word``,
    the descent sets as masks: the search's own sweep, every point decided.

    >>> _sweep((4, 2, 6, 1, 5, 3))  # MDes {2,3,5}, Des {1,3,5}
    (2, 1, 44, 42)
    """
    stats: list[tuple[int, int, int, int]] = []
    _search(len(word), [-1, *word, 0], 0, 0, [lambda *leaf: stats.append(leaf)])
    return stats[0]


# ---------------------------------------------------------------------------
# Enumeration

def _check_nkj(n: int, k: int, j: int | None = None) -> None:
    """Refuse an (n, k) that names no class M_{n,k}, and a j that names no
    nesting class I_{n,k,j} in it."""
    if (n - k) % 2 != 0 or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    if j is not None and not 0 <= j <= (n - k) // 2:
        raise ValueError(f"invalid j = {j} for (n, k) = ({n}, {k})")


def enumerate_matchings(n: int, k: int) -> Iterator[Matching]:
    """All matchings on n points with k unmatched, in increasing order of
    their involution words, read off one ``_stat_counts`` search.

    >>> [to_involution(m) for m in enumerate_matchings(4, 2)]
    [(1, 2, 4, 3), (1, 3, 2, 4), (1, 4, 3, 2), (2, 1, 3, 4), (3, 2, 1, 4), (4, 2, 3, 1)]
    """
    words: list[Word] = []
    _stat_counts(n, k, lambda cr, ne, mdes, des, word: words.append(word), words=True)
    return map(_matching, words)


def _stat_counts(
    n: int,
    k: int | None,
    fold: Callable[..., object],
    j: int | None = None,
    words: bool = False,
) -> None:
    """
    Call ``fold(cr, ne, mdes, des)`` once per matching of M_{n,k}, in
    increasing order of involution words, with the descent sets as masks
    (bit i for position i).  When k is None, one search runs over every
    class M_{n,k} at once, still in increasing order of words: ``fold(k)``
    is called once per class, in k order, and returns the fold of that
    class.  With j, only the matchings with ne = j are folded, the class
    I_{n,k,j}.  With ``words``, every fold also gets the matching's
    involution word, as its last argument; without it no word is built.
    The search is ``_search``.

    >>> _stat_counts(4, 2, lambda cr, ne, mdes, des, word: print(word, cr, ne, bin(mdes), bin(des)), words=True)
    (1, 2, 4, 3) 1 1 0b1100 0b1000
    (1, 3, 2, 4) 1 1 0b110 0b100
    (1, 4, 3, 2) 1 1 0b1010 0b1100
    (2, 1, 3, 4) 1 1 0b10 0b10
    (3, 2, 1, 4) 1 1 0b100 0b110
    (4, 2, 3, 1) 1 1 0b1000 0b1010
    """
    if k is None:
        if n < 0:
            raise ValueError(f"invalid n = {n}")
        # budgets that every matching meets: a leaf that leaves `left` of the
        # n unmatched points unused has n - left of them, so it is in class n - left
        pairs, free = n // 2, n
        folds = [None] * (n + 1)
        for kk in range(n % 2, n + 1, 2):
            folds[n - kk] = fold(kk)
    else:
        _check_nkj(n, k)
        pairs, free, folds = (n - k) // 2, k, [fold]  # every leaf uses the whole budget
    # p[i] is the partner of i, i itself when unmatched, 0 while undecided;
    # p[n + 1] = 0 ends every sweep, and p[0] = -1 sets no bit at position 0
    p = [-1] + [0] * (n + 1)
    if words:  # each fold also gets the word; the None of a class of the wrong parity stays None
        folds = [f and (lambda cr, ne, mdes, des, f=f: f(cr, ne, mdes, des, tuple(p[1:-1]))) for f in folds]
    _search(n, p, pairs, free, folds, j)


def _search(n: int, p: list[int], pairs: int, free: int, folds: list, j: int | None = None) -> None:
    """
    Complete the partner list ``p`` in every way that places ``pairs``
    more arcs and ``free`` more unmatched points, in increasing order of
    words, and call ``folds[f](cr, ne, mdes, des)`` on each completion,
    f the unmatched points left unused; with j, only on those with ne = j.

    Each node decides the smallest undecided point and sweeps the points
    below it once, for every leaf below it.  The Des and MDes bits of
    point i = s - 1 (the rules of ``des`` and ``mdes``) are read from
    where its partner p[i] and q = p[s] fall: when s is unmatched, i has
    Des iff it opens an arc; when s opens an arc, i has nothing if it
    closes one, MDes if it is unmatched, and if it opens one, Des when
    q < p[i] (nested) and MDes when not (crossing); when s closes an
    arc, i has both bits unless it closes one too, and then Des when
    q < p[i] and MDes when not.  p[0] = -1 makes point 0 a closer.

    The open right endpoints go down as a tuple, extended at an opener,
    so no node restores anything on return.  A closer s is the least
    open right endpoint, so the tuple it leaves depends on the tuple
    alone: a table that lives for this call keeps it per tuple.  cr and
    ne are running maxima of the tuple's LIS and LDS (Chen-Deng-Du-
    Stanley-Yan), which a second table keeps per tuple.  A search that
    places nothing (``_sweep``) meets each tuple once, so it keeps
    neither.  With j, a node whose ne passes j returns early, and so
    does one whose ne is below j with fewer than j arcs open or still to
    place, as the arcs over any later gap are among those.
    """
    ne_max, ne_min = (n, 0) if j is None else (j, j)
    keep = pairs or free
    closed: dict[tuple[int, ...], tuple[int, ...]] = {}  # open right endpoints at a closer -> less the least
    table: dict[tuple[int, ...], tuple[int, int]] = {}  # open right endpoints -> (LIS, LDS)
    # the table's values, one shared object per (LIS, LDS), so that no entry holds a pair of its own
    shared: dict[tuple[int, int], tuple[int, int]] = {}

    def node(s, pairs, free, rights, cr, ne, grown, des, mdes):
        # s: the first point not yet swept; pairs, free: arcs and unmatched
        # points still to place; the rest is the sweep state up to s - 1,
        # with rights the open right endpoints in opener order
        i = s - 1
        pi = p[i]
        bit = 1 << i
        q = p[s]
        while q:
            if q > s:  # s opens an arc
                if pi >= i:
                    if pi == i or q > pi:
                        mdes |= bit
                    else:
                        des |= bit
                rights += (q,)
                grown = True
            elif q == s:
                if pi > i:
                    des |= bit
            else:  # s closes an arc
                if pi >= i:
                    des |= bit
                    mdes |= bit
                elif q < pi:
                    des |= bit
                else:
                    mdes |= bit
                if grown:
                    pair = table.get(rights) if keep else None
                    if pair is None:
                        pair = _longest_increasing(rights), _longest_increasing(reversed(rights))
                        if keep:
                            table[rights] = pair = shared.setdefault(pair, pair)
                    lis, lds = pair
                    if lis > cr:
                        cr = lis
                    if lds > ne:
                        if lds > ne_max:  # ne never falls along a branch
                            return
                        ne = lds
                    grown = False
                left = closed.get(rights) if keep else None
                if left is None:
                    at = rights.index(s)
                    left = rights[:at] + rights[at + 1 :]
                    if keep:
                        closed[rights] = left
                rights = left
            i = s
            pi = q
            s += 1
            bit <<= 1
            q = p[s]
        if s > n:
            if ne >= ne_min:
                folds[free](cr, ne, mdes, des)
        elif ne >= ne_min or len(rights) + pairs >= ne_min:
            if free:
                p[s] = s
                node(s, pairs, free - 1, rights, cr, ne, grown, des, mdes)
            if pairs:
                for t in range(s + 1, n + 1):
                    if not p[t]:
                        p[s], p[t] = t, s
                        node(s, pairs - 1, free, rights, cr, ne, grown, des, mdes)
                        p[t] = 0
            p[s] = 0

    node(1, pairs, free, (), 0, 0, False, 0, 0)
    # node's closure holds node itself: unbinding it frees the tables, and the
    # caller's fold, now rather than at the next cyclic collection
    del node


def enumerate_all_matchings(n: int) -> Iterator[Matching]:
    for k in range(n % 2, n + 1, 2):
        yield from enumerate_matchings(n, k)


def count_matchings(n: int, k: int) -> int:
    """C(n, k) * (n-k-1)!! matchings with k unmatched points."""
    _check_nkj(n, k)
    dbl = 1
    for i in range(n - k - 1, 0, -2):
        dbl *= i
    return math.comb(n, k) * dbl


# ---------------------------------------------------------------------------
# Codec: '1-6,3-4,5-7' plus explicit n

_ARC_RE = re.compile(r"^\d+-\d+$")


def parse_matching(text: str, n: int) -> Matching:
    text = text.strip()
    if not text:
        return Matching(n, ())
    arcs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not _ARC_RE.match(chunk):
            raise ParseError(f"bad arc: {chunk!r}")
        a, b = map(int, chunk.split("-"))
        arcs.append((a, b))
    try:
        return Matching(n, tuple(arcs))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_matching(m: Matching) -> str:
    return _format_word(to_involution(m))


def _format_word(word: Word) -> str:
    """The arc list of the matching whose involution word is ``word``."""
    return ",".join(f"{i}-{v}" for i, v in enumerate(word, start=1) if v > i)
