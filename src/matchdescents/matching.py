"""
Partial matchings on n labeled points.

A matching is a set of pairwise disjoint arcs {i, j} on points 1..n; it
is identified with the involution that swaps the endpoints of each arc
and fixes the unmatched points.  The geometric statistics (MDes, cMDes,
crossing and nesting numbers) are defined on the arc diagram, drawn on a
line for the linear statistics and on a circle for the cyclic one.

Validated where data enters; enumerator output trusted.  A ``Matching``
built through its constructor, ``from_involution`` or the parsers is
checked in full.  ``enumerate_matchings`` builds arcs that are sorted,
disjoint and in range by construction and wraps them without a second
check.  The statistics read a partner array computed once per call, and
one left-to-right sweep gives both the crossing and the nesting number.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import perm
from .perm import DescentSet, ParseError, Word

Arc = tuple[int, int]


@dataclass(frozen=True)
class Matching:
    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        endpoints = [e for arc in self.arcs for e in arc]
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("arcs are not pairwise disjoint")
        if not all(1 <= e <= self.n for e in endpoints):
            raise ValueError(f"endpoint out of range [1,{self.n}]")
        if any(a == b for a, b in self.arcs):
            raise ValueError("degenerate arc")
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


def des(m: Matching) -> DescentSet:
    """Standard descent set, via the one-line form of the involution."""
    return perm.des(to_involution(m))


def _arcs_cross(a: Arc, b: Arc) -> bool:
    """Linear diagram: two disjoint arcs cross iff their endpoints interleave."""
    (a1, a2), (b1, b2) = sorted((a, b))
    return a1 < b1 < a2 < b2


def _partners(m: Matching) -> list[int]:
    """p[i] is the partner of point i, 0 if i is unmatched (p[0] unused)."""
    p = [0] * (m.n + 1)
    for a, b in m.arcs:
        p[a] = b
        p[b] = a
    return p


def _geometric_descents(p: list[int], last: int) -> frozenset[int]:
    """
    The positions i in 1..last that pass the geometric descent test on
    the partner array p of a matching on n points, with successor
    i % n + 1: {i, succ} is an arc, the arcs through i and succ cross,
    or i is unmatched while succ is matched.  Two disjoint arcs cross, on
    the line and on the circle alike, iff exactly one endpoint of the one
    lies strictly between the endpoints of the other.
    """
    n = len(p) - 1
    members = set()  # frozenset(set) sizes its table to fit; from a list it does not
    for i in range(1, last + 1):
        succ = i % n + 1
        pi, ps = p[i], p[succ]
        if pi == succ or (not pi and ps):
            members.add(i)
        elif pi and ps:
            lo, hi = (i, pi) if i < pi else (pi, i)
            if (lo < succ < hi) != (lo < ps < hi):
                members.add(i)
    return frozenset(members)


def mdes(m: Matching) -> DescentSet:
    """
    Geometric descent set: i is a descent iff {i, i+1} is an arc, the
    arcs through i and i+1 cross, or i is unmatched while i+1 is matched.
    """
    return DescentSet(m.n, _geometric_descents(_partners(m), m.n - 1))


def cmdes(m: Matching) -> DescentSet:
    """Cyclic geometric descent set, with i+1 read mod n and crossing
    read as chord intersection on the circle."""
    last = m.n if m.n > 1 else 0
    return DescentSet(m.n, _geometric_descents(_partners(m), last), cyclic=True)


def rotate(m: Matching) -> Matching:
    """Rotation i -> i+1 (mod n) of all labels."""
    return Matching(m.n, tuple((a % m.n + 1, b % m.n + 1) for a, b in m.arcs))


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
    p = _partners(m)
    rights: list[int] = []
    grown = False
    cr = ne = 0
    for t in range(1, m.n + 1):
        q = p[t]
        if q > t:
            rights.append(q)
            grown = True
        elif q:
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


def crossing_number_oracle(m: Matching) -> int:
    """Brute-force maximum over arc subsets; for cross-validation only."""
    return _subset_oracle(m, lambda a, b: _arcs_cross(a, b))


def nesting_number_oracle(m: Matching) -> int:
    return _subset_oracle(m, lambda a, b: (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1]))


def _subset_oracle(m: Matching, related) -> int:
    if len(m.arcs) > 16:
        raise ValueError("oracle size guard exceeded")
    best = 0
    for r in range(len(m.arcs), best, -1):
        for subset in itertools.combinations(m.arcs, r):
            if all(related(a, b) for a, b in itertools.combinations(subset, 2)):
                best = max(best, r)
                break
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_matchings(n: int, k: int) -> Iterator[Matching]:
    """
    All matchings on n points with k unmatched, by smallest-unmatched-first
    pairing recursion; deterministic order.
    """
    if (n - k) % 2 != 0 or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")

    def gen(points: tuple[int, ...], arcs: tuple[Arc, ...], free: int) -> Iterator[Matching]:
        # len(points) - free stays even and >= 0, so no branch is dead
        if len(points) == free:
            yield perm._trusted(Matching, n=n, arcs=arcs)
            return
        first, rest = points[0], points[1:]
        if free > 0:
            yield from gen(rest, arcs, free - 1)
        for i, q in enumerate(rest):
            yield from gen(rest[:i] + rest[i + 1 :], arcs + ((first, q),), free)

    yield from gen(tuple(range(1, n + 1)), (), k)


def random_matching(n: int, k: int, rng: random.Random) -> Matching:
    """
    A uniform element of M_{n,k}: the first k points of a uniform
    shuffle are the unmatched set, and consecutive pairs of the rest form
    a uniform perfect matching on it.
    """
    if (n - k) % 2 != 0 or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    points = list(range(1, n + 1))
    rng.shuffle(points)
    rest = points[k:]
    return Matching(n, tuple(zip(rest[::2], rest[1::2])))


def enumerate_all_matchings(n: int) -> Iterator[Matching]:
    for k in range(n % 2, n + 1, 2):
        yield from enumerate_matchings(n, k)


def enumerate_inkj(n: int, k: int, j: int) -> Iterator[Matching]:
    """Matchings in M_{n,k} with nesting number j."""
    if not 0 <= j <= (n - k) // 2:
        raise ValueError(f"invalid j = {j} for (n, k) = ({n}, {k})")
    for m in enumerate_matchings(n, k):
        if nesting_number(m) == j:
            yield m


def count_matchings(n: int, k: int) -> int:
    """C(n, k) * (n-k-1)!! matchings with k unmatched points."""
    if (n - k) % 2 != 0:
        raise ValueError("parity violation")
    dbl = 1
    for i in range(n - k - 1, 0, -2):
        dbl *= i
    return math.comb(n, k) * dbl


# ---------------------------------------------------------------------------
# Codecs: '1-6,3-4,5-7' plus explicit n; JSON {"n":8,"arcs":[[1,6],...]}

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
    return ",".join(f"{a}-{b}" for a, b in m.arcs)


def matching_to_json(m: Matching) -> str:
    return json.dumps({"n": m.n, "arcs": [list(arc) for arc in m.arcs]})


def matching_from_json(text: str) -> Matching:
    data = json.loads(text)
    return Matching(int(data["n"]), tuple((int(a), int(b)) for a, b in data["arcs"]))
