"""
Partial matchings on n labeled points.

A matching is a set of pairwise disjoint arcs {i, j} on points 1..n; it
is identified with the involution that swaps the endpoints of each arc
and fixes the unmatched points.  The geometric statistics (MDes, cMDes,
crossing and nesting numbers) are defined on the arc diagram, drawn on a
line for the linear statistics and on a circle for the cyclic one.

The working representation is the involution word: ``word[i-1]`` is the
partner of i, or i itself when i is unmatched.  The statistics, the
rotation and the enumerator ``_words`` work on words; ``Matching`` is
the type of the parsers, the codecs and the public functions, which
convert once and keep every input check.  A ``Matching`` built through
its constructor, ``from_involution`` or the parsers is checked in full;
one that wraps a word the package built is not.  One left-to-right sweep
gives both the crossing and the nesting number, and the descent sets are
in range by construction and wrapped without the ``DescentSet`` check.

The identities that only count statistics over a class M_{n,k} (the
``verify`` loops of main1, main11, main111 and main0) and ``enum
matchings|involutions`` build no words: ``_stat_counts`` is one
depth-first search in the order of ``_words`` that carries the sweep
state (cr, ne, the open right endpoints as a tuple, and Des and MDes as
bit masks) down the search, so each prefix is swept once for every leaf
below it.  cr and ne are running maxima of the tuple's longest
increasing and decreasing subsequences, so a table that lives for one
search computes that pair once per distinct tuple.  One search covers
every class M_{n,k} at once for ``main0``, and for ``main11``/``main111``
without ``--k``.  ``enum`` reads each matching off the partner list that
the search fills, and cuts the branches whose ne passes ``--j``; the
cr/ne class split of ``verify cdes`` and ``orbits --j`` reads that list too.
``orbits`` without ``--j``, ``chen`` and the oracles still read the
words of ``_words``.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import perm
from .perm import DescentSet, ParseError, Word

Arc = tuple[int, int]


@dataclass(frozen=True)
class Matching:
    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
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
    if not perm.is_involution(word):
        raise ValueError(f"not an involution: {word}")
    arcs = tuple((i, v) for i, v in enumerate(word, start=1) if v > i)
    return Matching(len(word), arcs)


def _matching(word: Word) -> Matching:
    """``from_involution`` without its checks, for a word the package built."""
    return perm._trusted(Matching, n=len(word), arcs=tuple((i, v) for i, v in enumerate(word, start=1) if v > i))


def des(m: Matching) -> DescentSet:
    """
    Standard descent set of the involution: i is a descent iff the image
    of i exceeds that of i+1, an unmatched point being its own image.
    """
    return perm.des(to_involution(m))


def _geometric_descents(word: Word, last: int) -> frozenset[int]:
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


def mdes(m: Matching) -> DescentSet:
    """
    Geometric descent set: i is a descent iff {i, i+1} is an arc, the
    arcs through i and i+1 cross, or i is unmatched while i+1 is matched.
    """
    return perm._trusted(DescentSet, n=m.n, members=_geometric_descents(to_involution(m), m.n - 1))


def cmdes(m: Matching) -> DescentSet:
    """Cyclic geometric descent set, with i+1 read mod n and crossing
    read as chord intersection on the circle."""
    return _cmdes(to_involution(m))


def _cmdes(word: Word) -> DescentSet:
    """cMDes of the matching whose involution word is ``word``."""
    return perm._trusted(DescentSet, n=len(word), members=_geometric_descents(word, len(word)), cyclic=True)


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
# Crossing and nesting numbers

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
    return _cr_ne(to_involution(m))


def _cr_ne(word: Word) -> tuple[int, int]:
    """crossing_nesting of the matching whose involution word is ``word``."""
    rights: list[int] = []
    grown = False
    cr = ne = 0
    for t, q in enumerate(word, start=1):
        if q > t:
            rights.append(q)
            grown = True
        elif q < t:
            if grown:
                cr = max(cr, _longest_increasing(rights))
                ne = max(ne, _longest_increasing(reversed(rights)))
                grown = False
            rights.remove(t)
    return cr, ne


def crossing_number(m: Matching) -> int:
    return crossing_nesting(m)[0]


def nesting_number(m: Matching) -> int:
    return crossing_nesting(m)[1]


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
    """All matchings on n points with k unmatched, in the order of ``_words``."""
    return map(_matching, _words(n, k))


def _words(n: int, k: int) -> Iterator[Word]:
    """
    The involution words of the matchings on n points with k unmatched,
    by smallest-undecided-first recursion: that point is left unmatched
    first, then paired with each larger undecided point in turn.  Pairs
    are made in one list and undone on return.

    >>> list(_words(4, 2))
    [(1, 2, 4, 3), (1, 3, 2, 4), (1, 4, 3, 2), (2, 1, 3, 4), (3, 2, 1, 4), (4, 2, 3, 1)]
    """
    _check_nkj(n, k)
    return _words_below(list(range(1, n + 1)), tuple(range(1, n + 1)), k)


def _words_below(word: list[int], points: tuple[int, ...], free: int) -> Iterator[Word]:
    """``_words``' recursion over the undecided ``points``, ``free`` of them
    left unmatched; a module-level generator, so a search leaves no cycle."""
    # len(points) - free stays even and >= 0, so no branch is dead
    if len(points) == free:
        yield tuple(word)
        return
    first, rest = points[0], points[1:]
    if free > 0:
        yield from _words_below(word, rest, free - 1)
    for i, q in enumerate(rest):
        word[first - 1], word[q - 1] = q, first
        yield from _words_below(word, rest[:i] + rest[i + 1 :], free)
        word[first - 1], word[q - 1] = first, q


def _stat_counts(
    n: int, k: int | None, fold: Callable[..., object], p: list[int] | None = None, ne_max: int | None = None
) -> None:
    """
    Call ``fold(cr, ne, mdes, des)`` once per matching of ``_words(n, k)``,
    in its order, with the descent sets as masks (bit i for position i).
    When k is None, one search runs over every class M_{n,k} at once:
    ``fold(k)`` is called once per class, in k order, and returns the fold
    of that class, which gets its matchings in the order of ``_words(n,
    k)``.  With ``ne_max``, only the matchings with ne <= ne_max are folded.

    One depth-first search decides the smallest undecided point at each
    node, so the points below it are all decided: each node sweeps them
    once, as ``_cr_ne``, ``_geometric_descents`` and ``perm._descents``
    would, and every leaf below it shares that sweep state.  The open
    right endpoints go down the search as a tuple, which a node extends
    at an opener and rebuilds without s at a closer, so no node restores
    anything on return.  cr and ne are running maxima of the LIS and LDS
    of that tuple (Chen-Deng-Du-Stanley-Yan), so one table that lives
    only in this call computes that pair once per distinct tuple, and a
    node whose ne passes ``ne_max`` returns before its children.  A
    caller that passes a list ``p`` reads the matching of each call off
    it: ``p[i]`` is the partner of i, or i itself when unmatched, for
    1 <= i <= n.

    >>> _stat_counts(4, 2, lambda cr, ne, mdes, des: print(cr, ne, bin(mdes), bin(des)))
    1 1 0b1100 0b1000
    1 1 0b110 0b100
    1 1 0b1010 0b1100
    1 1 0b10 0b10
    1 1 0b100 0b110
    1 1 0b1000 0b1010
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
    if ne_max is None:
        ne_max = n
    # p[i] is the partner of i, i itself when unmatched, 0 while undecided;
    # p[n + 1] = 0 ends every sweep, and p[0] = -1 sets no bit at position 0
    if p is None:
        p = []
    p[:] = [-1] + [0] * (n + 1)
    table: dict[tuple[int, ...], tuple[int, int]] = {}  # open right endpoints -> (LIS, LDS)
    # the table's values, one shared object per (LIS, LDS), so that no entry holds a pair of its own
    lis_lds = [[(a, b) for b in range(n + 1)] for a in range(n + 1)]

    def node(s, pairs, free, rights, cr, ne, grown, des, mdes):
        # s: the first point not yet swept; pairs, free: arcs and unmatched
        # points still to place; the rest is the sweep state up to s - 1,
        # with rights the open right endpoints in opener order, as in _cr_ne
        q = p[s]
        while q:
            i = s - 1
            pi = p[i]
            if pi > q:
                des |= 1 << i
            if pi == i:
                if q != s:
                    mdes |= 1 << i
            elif pi == s:
                mdes |= 1 << i
            elif q != s:
                lo, hi = (i, pi) if i < pi else (pi, i)
                if (lo < s < hi) != (lo < q < hi):
                    mdes |= 1 << i
            if q > s:
                rights += (q,)
                grown = True
            elif q < s:
                if grown:
                    try:
                        lis, lds = table[rights]
                    except KeyError:
                        lis, lds = _longest_increasing(rights), _longest_increasing(reversed(rights))
                        table[rights] = lis_lds[lis][lds]
                    if lis > cr:
                        cr = lis
                    if lds > ne:
                        if lds > ne_max:  # ne never falls along a branch
                            return
                        ne = lds
                    grown = False
                at = rights.index(s)
                rights = rights[:at] + rights[at + 1 :]
            s += 1
            q = p[s]
        if s > n:
            folds[free](cr, ne, mdes, des)
        else:
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
    # node's closure holds node itself: unbinding it frees the table, and the
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
