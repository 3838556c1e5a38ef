"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is represented by a tuple ``word`` of length n with
``word[i-1] == pi(i)``.  All statistics used elsewhere in the library
(descent sets, cycle structure, shuffles) reduce to adjacent comparisons
on this form; cycle notation is an I/O codec only.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

Word = tuple[int, ...]
Placements = list[tuple[Word, Callable[[Sequence[int]], Word]]]


class ParseError(ValueError):
    """Malformed textual input for a combinatorial object."""


def is_perm(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of {1, ..., n} where n = len(word).

    >>> [is_perm(w) for w in [(), (1,), (2, 1), (1, 1), (2, 3)]]
    [True, True, True, False, False]
    """
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def check_perm(word: Sequence[int]) -> Word:
    word = tuple(word)
    if not is_perm(word):
        raise ValueError(f"not a permutation of [n]: {word!r}")
    return word


def identity(n: int) -> Word:
    return tuple(range(1, n + 1))


def _trusted(cls, **fields):
    """
    An instance of the frozen dataclass ``cls`` built from field values
    that are valid by construction, skipping ``__post_init__``.  The
    package's kernels use it for their results; data entering from
    outside goes through the public constructors.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class DescentSet:
    """
    A subset of positions with an explicit ambient size.

    Linear descent sets live in [n-1]; cyclic ones in [n].  Keeping the
    ambient n on the value prevents confusing the two in multiset
    comparisons and makes the mod-n shift well defined.  The constructor
    checks the range; the package's statistics build their sets within
    it and wrap them with ``_trusted``.
    """

    n: int
    members: frozenset[int]
    cyclic: bool = False

    def __post_init__(self) -> None:
        bound = self.n if self.cyclic else self.n - 1
        if not all(1 <= i <= bound for i in self.members):
            raise ValueError(f"descent set {set(self.members)} not within [{bound}]")

    def restrict_linear(self) -> "DescentSet":
        """Intersect a cyclic set with [n-1]."""
        return _trusted(DescentSet, n=self.n, members=frozenset(i for i in self.members if i < self.n))

    def shifted(self) -> "DescentSet":
        """1 + members (mod n), staying in {1, ..., n}.  Cyclic sets only."""
        if not self.cyclic:
            raise ValueError("shift is defined for cyclic descent sets")
        members = frozenset(i % self.n + 1 for i in self.members)
        return _trusted(DescentSet, n=self.n, members=members, cyclic=True)

    def __str__(self) -> str:
        return format_set(self.members)


def format_set(members: Iterable[int]) -> str:
    """The text of a set of positions in increasing order, such as ``{1,3,5}``."""
    return "{" + ",".join(map(str, sorted(members))) + "}"


def des(word: Word) -> DescentSet:
    """
    The descent set {i in [n-1] : pi(i) > pi(i+1)}.

    >>> str(des((6, 2, 4, 3, 7, 1, 5, 8)))
    '{1,3,5}'
    """
    return _trusted(DescentSet, n=len(word), members=_descents(word))


def _descents(word: Word) -> frozenset[int]:
    """The members of ``des(word)``."""
    # frozenset(set) sizes its table to fit; from an iterator it does not
    return frozenset({i for i in range(1, len(word)) if word[i - 1] > word[i]})


def _members(mask: int) -> frozenset[int]:
    """The descent set whose mask is ``mask``: bit i for position i."""
    return frozenset({i for i in range(1, mask.bit_length()) if mask >> i & 1})


def cellini_cdes(word: Word) -> DescentSet:
    """
    Cellini's cyclic descent set: descents of the word read cyclically,
    with position n comparing pi(n) against pi(1).

    >>> str(cellini_cdes((3, 2, 1, 4)))
    '{1,2,4}'
    """
    n = len(word)
    members = _descents(word)
    if n >= 1 and word[n - 1] > word[0]:
        members |= {n}
    return _trusted(DescentSet, n=n, members=members, cyclic=True)


def fixed_points(word: Word) -> frozenset[int]:
    return frozenset(i for i, v in enumerate(word, start=1) if v == i)


def cycles(word: Word) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its smallest element, sorted by it; a ValueError on a non-permutation."""
    n = len(word)
    seen = [False] * n
    out = []
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        cyc = []
        j = i
        while 0 < j <= n and not seen[j - 1]:
            seen[j - 1] = True
            cyc.append(j)
            j = word[j - 1]
        if j != i:
            raise ValueError(f"not a permutation of [n]: {word!r}")
        out.append(tuple(cyc))
    return out


def cycle_type(word: Word) -> tuple[int, ...]:
    """Cycle lengths, sorted non-increasing."""
    return tuple(sorted((len(c) for c in cycles(word)), reverse=True))


def is_involution(word: Sequence[int]) -> bool:
    """
    Check that word is an involution of [n] where n = len(word): every
    letter lies in [n] and word∘word is the identity, so word is also a
    permutation.  Any other word gives False.

    >>> [is_involution(w) for w in [(), (2, 1, 3), (2, 3, 1), (3, 1), (0, 3), (6,)]]
    [True, True, False, False, False, False]
    """
    n = len(word)
    return all(0 < v <= n and word[v - 1] == i for i, v in enumerate(word, start=1))


def _involution(word: Word) -> Word:
    """``word``, checked at a public entry to be an involution of [len(word)]."""
    if not is_involution(word):
        raise ValueError(f"not an involution: {word}")
    return word


def _fixed_point_free(word: Word) -> Word:
    """``word``, checked at a public entry to be a fixed-point-free involution
    of [len(word)]: the core that Chen's ι and Sundaram's walk take."""
    if not is_involution(word) or fixed_points(word):
        raise ValueError(f"not a fixed-point-free involution: {word}")
    return word


def conjugate_w0(word: Word) -> Word:
    """Conjugation by the longest permutation w0(i) = n+1-i."""
    n = len(word)
    return tuple(n + 1 - word[n - i] for i in range(1, n + 1))


def standardize(letters: Sequence[int]) -> Word:
    """
    The permutation of [len(letters)] with the same relative order.

    >>> standardize((4, 6, 1, 3))
    (3, 4, 1, 2)
    """
    if len(set(letters)) != len(letters):
        raise ValueError(f"repeated letters in {letters!r}")
    rank = {v: r for r, v in enumerate(sorted(letters), start=1)}
    return tuple(rank[v] for v in letters)


def picker(indices: Sequence[int]) -> Callable[[Sequence[int]], Word]:
    """
    The map s -> tuple(s[i] for i in indices); an ``itemgetter`` when
    there are two or more indices, which is where it returns a tuple.

    >>> picker([2, 0])("abc"), picker([1])("abc"), picker([])("abc")
    (('c', 'a'), ('b',), ())
    """
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


def placements(m: int, n: int) -> Placements:
    """
    The ways to place a word of length m and a word of length n into one
    word of length m + n, one per support S (the m positions of the
    first word) in ``itertools.combinations`` order.  Each is a pair
    ``(cols, layout)``: ``cols`` lists the positions 1..m+n, those in S
    first and the rest after, both increasing; ``layout`` takes a
    concatenation a + b and returns the word with a on S and b on the
    rest, each in order.  Shuffles lay out one fixed concatenation on
    every support; a split conjugacy class lays out one that depends on
    the support, read off ``cols``.

    >>> [layout("abC") for _, layout in placements(2, 1)]
    [('a', 'b', 'C'), ('a', 'C', 'b'), ('C', 'a', 'b')]
    """
    total = m + n
    out = []
    for support in itertools.combinations(range(total), m):
        chosen = set(support)
        cols = support + tuple(i for i in range(total) if i not in chosen)
        slot = [0] * total  # slot[position] = index into the concatenation
        for j, c in enumerate(cols):
            slot[c] = j
        out.append((tuple(c + 1 for c in cols), picker(slot)))
    return out


def shuffles(word_a: Sequence[int], word_b: Sequence[int]) -> list[Word]:
    """
    All interleavings of two words on disjoint letter sets, ordered
    lexicographically by the positions taken by word_a.

    The union of the letter sets must be relabelable to an interval; the
    results are returned as raw words (tuples), not standardized.

    >>> shuffles((3, 1, 2), (4,))
    [(3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2), (4, 3, 1, 2)]
    """
    if set(word_a) & set(word_b):
        raise ValueError("letter sets of the two words overlap")
    joined = (*word_a, *word_b)
    return [layout(joined) for _, layout in placements(len(word_a), len(word_b))]


def shuffle_sets(set_a: Iterable[Sequence[int]], set_b: Iterable[Sequence[int]]) -> list[Word]:
    """All shuffles of a word from set_a with a word from set_b."""
    out = []
    for a in set_a:
        for b in set_b:
            out.extend(shuffles(a, b))
    return out


def enumerate_sn(n: int) -> Iterator[Word]:
    """All of S_n in lexicographic order."""
    return iter(itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Codecs

_ONE_LINE_RE = re.compile(r"^\[\s*(\d+(\s*,\s*\d+)*)?\s*\]$")


def parse_one_line(text: str) -> Word:
    """Parse '[6,2,4,3,7,1,5,8]' into a word."""
    text = text.strip()
    if not _ONE_LINE_RE.match(text):
        raise ParseError(f"bad one-line notation: {text!r}")
    inner = text[1:-1].strip()
    word = tuple(int(t) for t in inner.split(",")) if inner else ()
    return check_perm(word)


def format_one_line(word: Word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def parse_cycles(text: str, n: int) -> Word:
    """
    Parse cycle notation like '(1,6)(3,4)(5,7)' into a word of size n.
    Fixed points may be omitted or written as singletons.

    >>> parse_cycles("(1,6)(3,4)(5,7)", 8)
    (6, 2, 4, 3, 7, 1, 5, 8)
    """
    if n < 0:
        raise ParseError(f"invalid n = {n}")
    text = "".join(text.split())
    if text == "()":
        text = ""
    if not re.fullmatch(r"(\(\d+(,\d+)*\))*", text):
        raise ParseError(f"bad cycle notation: {text!r}")
    word = list(range(1, n + 1))
    seen: set[int] = set()
    for chunk in re.findall(r"\(([^()]*)\)", text):
        entries = [int(t) for t in chunk.split(",")]
        for e in entries:
            if not 1 <= e <= n:
                raise ParseError(f"entry {e} out of range [1,{n}]")
            if e in seen:
                raise ParseError(f"overlapping cycles at {e}")
            seen.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            word[a - 1] = b
    return tuple(word)


def format_cycles(word: Word) -> str:
    """Cycle notation, omitting fixed points; identity prints as '()'."""
    parts = ["(" + ",".join(map(str, c)) + ")" for c in cycles(word) if len(c) > 1]
    return "".join(parts) if parts else "()"
