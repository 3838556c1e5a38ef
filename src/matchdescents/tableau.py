"""
Integer partitions, standard Young tableaux, Robinson-Schensted in both
directions, and jeu-de-taquin slides.

Shapes are tuples of weakly decreasing positive row lengths.  Tableaux
are stored row-major in English notation, cells addressed (row, column)
1-based.  A tableau need not be filled with 1..n: intermediate tableaux
appearing in insertion/deletion sequences carry arbitrary distinct
positive labels, with the same strict row/column order.

Validated where data enters; kernel results trusted.  A
``StandardTableau`` built through its constructor, ``from_rows`` or
``parse_tableau`` is checked in full, and the public algorithms check
their arguments.  The algorithms themselves run as private kernels on
plain row lists (``_insert``, ``_unbump``, ``_slide_out``,
``_slide_in``), which other modules call directly in their inner loops.
What a kernel or ``enumerate_syt`` returns is standard by construction
and is wrapped without a second check.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import perm
from .perm import DescentSet, ParseError, Word

Shape = tuple[int, ...]


def check_shape(parts: Sequence[int]) -> Shape:
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def height(shape: Shape) -> int:
    return len(shape)


def transpose_shape(shape: Shape) -> Shape:
    """
    The conjugate partition (column lengths).

    >>> transpose_shape((4, 3, 2))
    (3, 3, 2, 1)
    """
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= c) for c in range(1, shape[0] + 1))


def odd_cols(shape: Shape) -> int:
    """Number of columns of odd length."""
    return sum(1 for c in transpose_shape(shape) if c % 2 == 1)


def partitions(n: int) -> Iterator[Shape]:
    """All partitions of n, in reverse lexicographic order."""

    def gen(remaining: int, bound: int, prefix: tuple[int, ...]) -> Iterator[Shape]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(bound, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


Cell = tuple[int, int]


@dataclass(frozen=True)
class StandardTableau:
    """A filling with distinct entries, strictly increasing in rows and columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_shape(tuple(len(r) for r in self.rows))
        entries = [e for row in self.rows for e in row]
        if len(set(entries)) != len(entries):
            raise ValueError("repeated entries in tableau")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not increasing: {row}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise ValueError("column not increasing")

    @property
    def shape(self) -> Shape:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def entry(self, cell: Cell) -> int:
        r, c = cell
        return self.rows[r - 1][c - 1]

    def find(self, x: int) -> Cell:
        for r, row in enumerate(self.rows, start=1):
            for c, e in enumerate(row, start=1):
                if e == x:
                    return (r, c)
        raise ValueError(f"{x} not in tableau")

    def entries(self) -> frozenset[int]:
        return frozenset(e for row in self.rows for e in row)

    def __str__(self) -> str:
        return format_tableau(self)


EMPTY_TABLEAU = StandardTableau(())


def from_rows(rows: Sequence[Sequence[int]]) -> StandardTableau:
    return StandardTableau(tuple(tuple(r) for r in rows))


def des(t: StandardTableau) -> DescentSet:
    """
    Descents of a standard tableau on {1..n}: entries whose successor
    sits in a strictly lower row.
    """
    n = t.size
    row_of = [0] * (n + 1)
    for r, row in enumerate(t.rows, start=1):
        for e in row:
            if not 1 <= e <= n or row_of[e]:
                raise ValueError("descent set requires entries 1..n")
            row_of[e] = r
    return DescentSet(n, frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i]))


# ---------------------------------------------------------------------------
# Kernels: the tableau algorithms in place on rows held as list[list[int]],
# cells 0-based.  They check nothing; each states what its caller must
# guarantee, and the rows they leave are standard whenever the rows they
# were given were.

_NO_ENTRY = float("-inf")  # reads as smaller than every entry


def _insert(rows: list[list[int]], x: int) -> int:
    """Row-insert x, which must be absent; return the row that grew."""
    for r, row in enumerate(rows):
        i = bisect_right(row, x)
        if i == len(row):
            row.append(x)
            return r
        x, row[i] = row[i], x
    rows.append([x])
    return len(rows) - 1


def _unbump(rows: list[list[int]], r: int) -> int:
    """Remove the last entry of row r, which must be an outer corner,
    reverse-bump it up through the rows above and return the letter
    expelled from the first row."""
    x = rows[r].pop()
    if not rows[r]:
        rows.pop()
    for above in range(r - 1, -1, -1):
        row = rows[above]
        i = bisect_left(row, x) - 1  # the largest entry smaller than x
        x, row[i] = row[i], x
    return x


def _slide_out(rows: list[list[int]], r: int, c: int) -> None:
    """Delete the entry at (r, c) and close the hole with forward slides:
    the smaller of the right and lower neighbours moves in."""
    row = rows[r]
    while True:
        lower = rows[r + 1] if r + 1 < len(rows) else ()
        right = row[c + 1] if c + 1 < len(row) else None
        below = lower[c] if c < len(lower) else None
        if below is not None and (right is None or below < right):
            row[c] = below
            r += 1
            row = lower
        elif right is not None:
            row[c] = right
            c += 1
        else:
            break
    row.pop()
    if not row:
        rows.pop()


def _slide_in(rows: list[list[int]], x: int, r: int, c: int) -> None:
    """Open a hole at (r, c), which must be an outer corner of the shape,
    slide it inward past the larger of its upper and left neighbours while
    one exceeds x, and write x, which must be absent, into it."""
    if r == len(rows):
        rows.append([])
    row = rows[r]
    row.append(x)
    while True:
        above = rows[r - 1][c] if r else _NO_ENTRY
        left = row[c - 1] if c else _NO_ENTRY
        if above > x and above > left:
            row[c] = above
            r -= 1
            row = rows[r]
        elif left > x:
            row[c] = left
            c -= 1
        else:
            break
    row[c] = x


def _reverse_rs(p_rows: list[list[int]], q_rows: Sequence[Sequence[int]]) -> list[int]:
    """The word with insertion tableau p_rows, which are emptied, and
    recording tableau q_rows, a standard filling of the same shape by 1..n."""
    n = sum(map(len, q_rows))
    row_of = [0] * (n + 1)
    for r, row in enumerate(q_rows):
        for step in row:
            row_of[step] = r
    word = [0] * n
    for step in range(n, 0, -1):
        word[step - 1] = _unbump(p_rows, row_of[step])
    return word


def _tableau(rows: Sequence[Sequence[int]]) -> StandardTableau:
    """Wrap kernel output, standard by construction, without re-checking it."""
    return perm._trusted(StandardTableau, rows=tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Robinson-Schensted and jeu de taquin on validated tableaux

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


def reverse_rs_insert(t: StandardTableau, corner: Cell) -> tuple[StandardTableau, int]:
    """
    Undo a row insertion that ended at the given outer corner: unbump
    upward and return (smaller tableau, expelled letter).
    """
    r, c = corner
    if r < 1 or r > len(t.rows) or c != len(t.rows[r - 1]):
        raise ValueError(f"{corner} is not an outer corner")
    if r < len(t.rows) and len(t.rows[r]) >= c:
        raise ValueError(f"{corner} is not an outer corner")
    rows = [list(row) for row in t.rows]
    x = _unbump(rows, r - 1)
    return _tableau(rows), x


def rs_pair(word: Word) -> tuple[StandardTableau, StandardTableau]:
    """The RS insertion and recording tableaux of a word with distinct letters."""
    if len(set(word)) != len(word):
        raise ValueError(f"repeated letters in {word!r}")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r = _insert(p_rows, x)
        if r == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[r].append(step)
    return _tableau(p_rows), _tableau(q_rows)


def rs_pair_q(word: Word) -> StandardTableau:
    return rs_pair(word)[1]


def rs_inverse(p_tab: StandardTableau, q_tab: StandardTableau) -> Word:
    """
    The unique permutation whose RS pair is (p_tab, q_tab).  Both must
    be standard of the same shape with entries 1..n.
    """
    if p_tab.shape != q_tab.shape:
        raise ValueError("shape mismatch")
    n = q_tab.size
    if q_tab.entries() != frozenset(range(1, n + 1)):
        raise ValueError("recording tableau must hold 1..n")
    # a P tableau not on 1..n shows up as a word that is not a permutation
    return perm.check_perm(_reverse_rs([list(row) for row in p_tab.rows], q_tab.rows))


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


def q_inverse_shuffle(q_tab: StandardTableau) -> Word:
    """
    Invert the recording-tableau map on shuffles of a fixed-point-free
    involution with a trailing increasing run of large letters.

    Given a standard tableau with k odd columns, recover the unique word
    tau in I_{n-k,0} shuffled with [n-k+1..n] whose recording tableau it
    is: k reverse insertions from the bottoms of the rightmost odd
    columns yield the positions of the large letters, the standardized
    residue determines the small involution.
    """
    n = q_tab.size
    if q_tab.entries() != frozenset(range(1, n + 1)):
        raise ValueError("tableau must hold 1..n")
    rows = [list(row) for row in q_tab.rows]
    word = [0] * n  # position tau^{-1}(n) gets n, then tau^{-1}(n-1), ...
    for big in range(n, n - odd_cols(q_tab.shape), -1):
        cols = transpose_shape(tuple(map(len, rows)))
        # the bottom of the rightmost odd column ends its row: the column
        # to its right is even, hence strictly shorter
        col = max(c for c, length in enumerate(cols) if length % 2 == 1)
        word[_unbump(rows, cols[col] - 1) - 1] = big
    # residue: the P tableau of tau^{-1} restricted to the small letters
    rank = {v: r for r, v in enumerate(sorted(e for row in rows for e in row), start=1)}
    q_sigma = [[rank[e] for e in row] for row in rows]
    sigma = _reverse_rs([row[:] for row in q_sigma], q_sigma)
    if not perm.is_involution(sigma) or perm.fixed_points(sigma):
        raise ValueError("residue tableau does not encode a fixed-point-free involution")
    small = iter(sigma)  # sigma's letters fill the other positions in order
    return tuple(v or next(small) for v in word)


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_syt(shape: Shape) -> Iterator[StandardTableau]:
    """All standard Young tableaux of a shape, in a fixed order."""
    shape = check_shape(shape)
    n = sum(shape)

    def gen(rows: list[list[int]], step: int) -> Iterator[StandardTableau]:
        if step > n:
            yield _tableau(rows)
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


def enumerate_syt_n(n: int) -> Iterator[StandardTableau]:
    for shape in partitions(n):
        yield from enumerate_syt(shape)


def enumerate_syt_nk(n: int, k: int) -> Iterator[StandardTableau]:
    """Tableaux of size n with exactly k odd columns."""
    if (n - k) % 2 != 0 or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    for shape in partitions(n):
        if odd_cols(shape) == k:
            yield from enumerate_syt(shape)


def enumerate_syt_nkj(n: int, k: int, j: int) -> Iterator[StandardTableau]:
    """Tableaux with k odd columns and height in {2j, 2j+1}."""
    if (n - k) % 2 != 0 or not 0 <= k <= n or not 0 <= j <= (n - k) // 2:
        raise ValueError(f"invalid (n, k, j) = ({n}, {k}, {j})")
    for shape in partitions(n):
        if odd_cols(shape) == k and 2 * j <= height(shape) <= 2 * j + 1:
            yield from enumerate_syt(shape)


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
# Codecs: rows separated by '/', entries by commas, e.g. '1,2,4,6/3,5,8/7'

def parse_tableau(text: str) -> StandardTableau:
    try:
        rows = tuple(tuple(int(e) for e in chunk.split(",")) for chunk in text.strip().split("/"))
    except ValueError as exc:
        raise ParseError(f"bad tableau text: {text!r}") from exc
    try:
        return from_rows(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_tableau(t: StandardTableau) -> str:
    return "/".join(",".join(map(str, row)) for row in t.rows)


def parse_shape(text: str) -> Shape:
    try:
        return check_shape(tuple(int(e) for e in text.strip().split(","))) if text.strip() else ()
    except ValueError as exc:
        raise ParseError(f"bad shape text: {text!r}") from exc


def format_shape(shape: Shape) -> str:
    return ",".join(map(str, shape))
