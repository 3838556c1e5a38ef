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
``_insert`` returns the row that grew and ``_slide_out`` the cell it
vacates, so Sundaram's walk reads its cells off the kernels.  ``_rs``
runs RS, and ``_reverse_rs`` its inverse; on an involution, where Q = P,
``_involution_rows`` and ``_involution`` run them by Beissinger's rule,
with one insertion or one unbump per 2-cycle.  ``_q_inverse_shuffle`` transposes
its shape once, and ``_syt_des`` folds over the tableaux of a shape
with their descent masks and row texts, by a walk over a table of the
moves out of each sub-shape, filled on the sub-shape's first visit.
``_shape_des_counts`` counts the descent masks of every shape by one
pass over Young's lattice, with no tableau built.  What a kernel returns is standard by construction and is
wrapped without a second check.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence

from . import matching as matching_mod
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
    return _shapes(n, n, 0, 0, (), None, None)


def _shapes(m: int, b: int, h: int, odd_done: int, prefix: Shape, k: int | None, j: int | None) -> Iterator[Shape]:
    """
    The shapes ``prefix`` + a partition of m into parts <= b, in reverse
    lexicographic order, built top-down.  With k, a branch is cut as soon
    as k odd columns are out of its reach, and with j as well, as soon as
    a height of 2j or 2j + 1 is.  Below the h rows of ``prefix``, with last
    part b, every column c <= b has height h, the columns past b are final
    (``odd_done`` of them odd), and the m cells left form rows of at most b
    cells: at most min(b, m) of the first b columns grow, and at least
    ceil(m / b) and at most m rows are added.
    """
    grows = min(b, m)
    if k is not None:
        if h % 2:  # a first-b column ends odd unless it grows by an odd number
            if not odd_done + b - grows <= k <= odd_done + b:
                return
        elif not odd_done <= k <= odd_done + grows:
            return
        if j is not None and (m > b * (2 * j + 1 - h) or h + m < 2 * j):
            return
    if not m:
        yield prefix
    for part in range(grows, 0, -1):  # columns part + 1..b end here, at height h
        yield from _shapes(m - part, part, h + 1, odd_done + (b - part) * (h % 2), prefix + (part,), k, j)


Cell = tuple[int, int]


class StandardTableau(perm._Record, frozen=True):
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
    members = frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i])
    return perm._trusted(DescentSet, n=n, members=members)


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


def _slide_out(rows: list[list[int]], r: int, c: int) -> tuple[int, int]:
    """Delete the entry at (r, c) and close the hole with forward slides:
    the smaller of the right and lower neighbours moves in.  Return the
    cell the slides vacate, an outer corner of the old shape."""
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
    return r, c


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


def _rs(word: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The insertion and recording rows of a word with distinct letters."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r = _insert(p_rows, x)
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(step)
    return p_rows, q_rows


def _reverse_rs(p_rows: list[list[int]], q_rows: Sequence[Sequence[int]]) -> list[int]:
    """The word with insertion tableau p_rows, which are emptied, and
    recording tableau q_rows, a standard filling of the same shape by 1..n.
    q_rows is read before p_rows is touched, so the two may be one list."""
    n = sum(map(len, q_rows))
    row_of = [0] * (n + 1)
    for r, row in enumerate(q_rows):
        for step in row:
            row_of[step] = r
    word = [0] * n
    for step in range(n, 0, -1):
        word[step - 1] = _unbump(p_rows, row_of[step])
    return word


def _involution_rows(word: Sequence[int]) -> list[list[int]]:
    """
    P(w) = Q(w) of an involution word w, by Beissinger's rule (Discrete
    Math. 67, 1987), which reads w's cycles by their larger letter v =
    1..n: a fixed point v ends row 1, and a 2-cycle x < v row-inserts x
    and appends v to the row below the one that grew.

    >>> _involution_rows((3, 4, 1, 2, 5))
    [[1, 2, 5], [3, 4]]
    """
    rows: list[list[int]] = [[]]
    for v, x in enumerate(word, start=1):
        if x == v:
            rows[0].append(v)
        elif x < v:
            r = _insert(rows, x) + 1
            if r == len(rows):
                rows.append([v])
            else:
                rows[r].append(v)
    return rows if rows[0] else []


def _involution(rows: list[list[int]]) -> list[int]:
    """
    The involution word whose P = Q is the standard tableau on 1..n held
    by rows, which it empties: Beissinger's rule backwards.  The largest
    entry v left ends some row r; v is fixed if r is the first row, and
    otherwise pops, and unbumping the end of row r - 1 expels its partner.
    """
    word = [0] * sum(map(len, rows))
    for v in range(len(word), 0, -1):
        if word[v - 1]:
            continue  # the partner of a larger letter, expelled already
        r = 0
        while rows[r][-1] != v:
            r += 1
        if not r:
            rows[0].pop()
            word[v - 1] = v
            continue
        rows[r].pop()
        if not rows[r]:
            rows.pop()
        x = _unbump(rows, r - 1)
        word[v - 1], word[x - 1] = x, v
    return word


def _tableau(rows: Sequence[Sequence[int]]) -> StandardTableau:
    """Wrap kernel output, standard by construction, without re-checking it."""
    return perm._trusted(StandardTableau, rows=tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Robinson-Schensted on validated tableaux

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
    p_rows, q_rows = _rs(word)
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


def q_inverse_shuffle(q_tab: StandardTableau) -> Word:
    """The unique shuffle tau of a word in I_{n-k,0} with the increasing run
    n-k+1..n whose recording tableau is q_tab, which has k odd columns."""
    n = q_tab.size
    if q_tab.entries() != frozenset(range(1, n + 1)):
        raise ValueError("tableau must hold 1..n")
    return _q_inverse_shuffle([list(row) for row in q_tab.rows])


def _q_inverse_shuffle(rows: list[list[int]]) -> Word:
    """q_inverse_shuffle on the rows of a tableau on 1..n, which it empties:
    one reverse insertion from the bottom of each odd column, the
    rightmost first, yields the positions of the large letters, and the
    standardized residue determines the small involution."""
    word = [0] * sum(map(len, rows))  # position tau^{-1}(n) gets n, then tau^{-1}(n-1), ...
    # the bottom of the rightmost odd column ends its row, as the column to its right is
    # even, hence shorter; unbumping it shortens no other column, so the next one is left
    odd = [length for length in reversed(transpose_shape(tuple(map(len, rows)))) if length % 2]
    for big, length in zip(range(len(word), 0, -1), odd):
        word[_unbump(rows, length - 1) - 1] = big
    # residue: the P tableau of tau^{-1} restricted to the small letters
    rank = {v: r for r, v in enumerate(sorted(e for row in rows for e in row), start=1)}
    rows[:] = [[rank[e] for e in row] for row in rows]
    # the residue reads back as the small involution, whose letters fill the other positions in order;
    # by full RS⁻¹, not _involution's peel, which reads standard rows only: rows that are not must still
    # reach the fixed-point refusal
    small = iter(perm._fixed_point_free(_reverse_rs(rows, rows)))
    return tuple(v or next(small) for v in word)


# ---------------------------------------------------------------------------
# Enumeration

def _syt_des(shape: Shape, fold: Callable[[list[list[int]], int, list[str]], object]) -> None:
    """
    Call ``fold(rows, mask, texts)`` on each standard Young tableau of a
    valid shape, with its descent mask (bit i for descent i) and its row
    texts, by one depth-first search shaped like ``matching._search``
    over the sub-shapes of ``shape`` in Young's lattice.  The sub-shapes
    are numbered as the search first reaches them, and ``moves[state]``
    lists the moves out of sub-shape ``state`` as (row, the row's live
    list, the number of the sub-shape it grows into), top row first; it
    is filled on the sub-shape's first visit, so the table only ever
    holds sub-shapes of the tableaux folded.  ``node`` places step s by
    each move, grows that row's text by one concatenation, sets bit
    s - 1 when the row is lower than the row of s - 1, and undoes both on
    return; at s = n it folds in the loop.  The rows and the row texts are
    live lists, valid during the call, and ``"/".join(texts)`` is the
    tableau's codec.

    >>> _syt_des((2, 1), lambda rows, d, t: print(from_rows(rows), bin(d), "/".join(t)))
    1,2/3 0b100 1,2/3
    1,3/2 0b10 1,3/2
    """
    n = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]
    texts = [""] * len(shape)
    if not n:
        fold(rows, 0, texts)
        return
    label = [str(step) for step in range(n + 1)]
    after = ["," + text for text in label]  # step's label after the row's first entry
    number = {(0,) * len(shape): 0}  # sub-shape: its state
    moves: list[list | None] = [None]

    def node(step, state, below, des):
        # step: the entry to place; state: the sub-shape of steps 1..step - 1;
        # below: the row of step - 1; des: the mask of steps 1..step - 1
        out = moves[state]
        if out is None:  # first visit: the rows that can take step, top row first
            out = moves[state] = []
            lens = [len(row) for row in rows]
            for r, row in enumerate(rows):
                c = lens[r]
                if c < shape[r] and (not r or lens[r - 1] > c):
                    child = (*lens[:r], c + 1, *lens[r + 1 :])
                    if child not in number:
                        number[child] = len(moves)
                        moves.append(None)
                    out.append((r, row, number[child]))
        bit = 1 << step - 1
        for r, row, grown in out:
            row.append(step)
            text = texts[r]
            texts[r] = text + after[step] if text else label[step]
            if step < n:
                node(step + 1, grown, r, des | bit if r > below else des)
            else:
                fold(rows, des | bit if r > below else des, texts)
            row.pop()
            texts[r] = text

    node(1, 0, len(shape), 0)  # no row lies below row len(shape)
    # node's closure holds node itself: unbinding it frees the rows, and the
    # caller's fold, now rather than at the next cyclic collection
    del node


def _shape_des_counts(n: int, bound: Shape | None = None) -> dict[Shape, dict[int, int]]:
    """
    {Des mask: number of tableaux} for each shape of size n, or for each
    one inside ``bound``, by one forward pass over Young's lattice.  A
    descent at s means that entry s + 1 sits in a strictly lower row than
    entry s, so the masks of a shape's tableaux are read off their
    sub-shapes and the row of their last entry: level s maps each (shape
    of size s, row of entry s) to {mask: count}, and entry s + 1 goes into
    each row that can take it, setting bit s when that row is lower.

    >>> _shape_des_counts(3)
    {(3,): {0: 1}, (2, 1): {4: 1, 2: 1}, (1, 1, 1): {6: 1}}
    """
    if n < 0:
        raise ValueError(f"invalid n = {n}")
    if bound is None:
        bound = (n,) * n  # no shape of size below n reaches it
    level: dict[tuple[Shape, int], dict[int, int]] = {((), n): {0: 1}}  # no row lies below row n
    for s in range(n):
        grown: dict[tuple[Shape, int], dict[int, int]] = {}
        for (shape, r), masks in level.items():
            rows = [row for row, part in enumerate(shape) if part < bound[row] and (not row or shape[row - 1] > part)]
            if len(shape) < len(bound):
                rows.append(len(shape))
            for row in rows:
                child = shape[:row] + (shape[row] + 1 if row < len(shape) else 1,) + shape[row + 1 :]
                bit = 1 << s if row > r else 0
                into = grown.setdefault((child, row), {})
                for m, c in masks.items():
                    into[m | bit] = into.get(m | bit, 0) + c
        level = grown
    out: dict[Shape, dict[int, int]] = {}
    for (shape, _), masks in level.items():
        into = out.setdefault(shape, {})
        for m, c in masks.items():
            into[m] = into.get(m, 0) + c
    return out


def enumerate_syt(shape: Shape) -> Iterator[StandardTableau]:
    """All standard Young tableaux of a shape, in the order of ``_syt_des``,
    collected from one search."""
    tableaux: list[StandardTableau] = []
    _syt_des(check_shape(shape), lambda rows, _, __: tableaux.append(_tableau(rows)))
    return iter(tableaux)


def _syt_shapes(n: int, k: int | None = None, j: int | None = None) -> Iterator[Shape]:
    """
    The shapes of size n, one at a time, as ``partitions`` lists them;
    with k, those with k odd columns; with j as well, those of height 2j
    or 2j + 1.  A negative n, and an (n, k) or (n, k, j) that names no
    class, is refused here, when called, before any tableau is built.
    The generator of ``partitions`` cuts every branch that k and j rule
    out, so only the shapes that can fit are built.

    >>> list(_syt_shapes(6, 2, 1))
    [(4, 2), (3, 2, 1), (2, 2, 2)]
    """
    if n < 0:
        raise ValueError(f"invalid n = {n}")
    if k is None:
        return partitions(n)
    matching_mod._check_nkj(n, k, j)
    return _shapes(n, n, 0, 0, (), k, j)


def enumerate_syt_nk(n: int, k: int) -> Iterator[StandardTableau]:
    """Tableaux of size n with exactly k odd columns."""
    return (t for shape in _syt_shapes(n, k) for t in enumerate_syt(shape))


# ---------------------------------------------------------------------------
# Codecs: rows separated by '/', entries by commas, e.g. '1,2,4,6/3,5,8/7'

def parse_tableau(text: str) -> StandardTableau:
    try:
        rows = [[int(e) for e in chunk.split(",")] for chunk in text.strip().split("/")] if text.strip() else []
    except ValueError as exc:
        raise ParseError(f"bad tableau text: {text!r}") from exc
    try:
        return from_rows(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_tableau(t: StandardTableau) -> str:
    return _format_rows(t.rows)


def _format_rows(rows: Sequence[Sequence[int]]) -> str:
    return "/".join([",".join(map(str, row)) for row in rows])


def parse_shape(text: str) -> Shape:
    try:
        return check_shape(tuple(int(e) for e in text.strip().split(","))) if text.strip() else ()
    except ValueError as exc:
        raise ParseError(f"bad shape text: {text!r}") from exc


def format_shape(shape: Shape) -> str:
    return ",".join(map(str, shape))
