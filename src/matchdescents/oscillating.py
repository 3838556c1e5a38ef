"""
Oscillating tableaux with empty endpoints, the insertion/deletion
bijection from fixed-point-free involutions (``sundaram`` checks its word
through ``perm._fixed_point_free``), the pointwise transpose, and the
induced crossing/nesting-swapping involution on perfect matchings.

The working form of Sundaram's walk is the list of cells its steps add
or remove, each a ``Step`` (adds, row, column), 0-based: one forward
pass over the tableau rows (``_cells``) writes it, one backward pass
(``_from_cells``) reads it back into the word.  Conjugating every shape
swaps each cell's row and column, so ι is the backward pass on the
transposed cells.  ``_cell`` reads the one cell between two shapes.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

from . import matching as matching_mod
from . import perm, tableau
from .matching import Matching
from .perm import DescentSet, ParseError, Word
from .tableau import Shape

Step = tuple[bool, int, int]


class OscillatingTableau(perm._Record, frozen=True):
    """A walk in the Young lattice from the empty shape back to itself,
    one box added or removed per step."""

    shapes: tuple[Shape, ...]

    def __post_init__(self) -> None:
        report = validate_shapes(self.shapes)
        if report is not None:
            raise ValueError(report)

    @property
    def size(self) -> int:
        return len(self.shapes) - 1

    def step(self, i: int) -> tuple[str, int]:
        """('add' | 'del', row index) describing step i (1-based)."""
        if not 1 <= i <= self.size:
            raise ValueError(f"step {i} outside 1..{self.size}")
        adds, r, _ = _cell(self.shapes[i - 1], self.shapes[i])
        return ("add" if adds else "del"), r + 1

    def __str__(self) -> str:
        return format_oscillating(self)


def validate_shapes(shapes: tuple[Shape, ...]) -> str | None:
    """First violation of the oscillating-tableau invariants, or None."""
    if not shapes:
        return "empty shape sequence"
    if shapes[0] != ():
        return "first shape nonempty"
    if shapes[-1] != ():
        return "last shape nonempty"
    if len(shapes) % 2 == 0:
        return "sequence length must be odd (even number of steps)"
    for idx, (a, b) in enumerate(zip(shapes, shapes[1:]), start=1):
        try:
            tableau.check_shape(a)
            tableau.check_shape(b)
            _cell(a, b)
        except ValueError as exc:
            return f"step {idx}: {exc}"
    return None


def _cell(a: Shape, b: Shape) -> Step:
    """The step from partition a to partition b: the one cell it adds or
    removes.  A ValueError unless the two differ by exactly one cell."""
    r = 0
    while r < len(a) and r < len(b) and a[r] == b[r]:
        r += 1
    x = a[r] if r < len(a) else 0
    y = b[r] if r < len(b) else 0
    if abs(x - y) != 1 or a[r + 1 :] != b[r + 1 :]:
        raise ValueError("shapes differ by other than one box")
    return y > x, r, max(x, y) - 1


def _cells(word: Word) -> Iterator[Step]:
    """The cells of the walk of a fixed-point-free involution word."""
    rows: list[list[int]] = []
    for d, partner in enumerate(word, start=1):
        if d < partner:
            r = tableau._insert(rows, partner)
            yield True, r, len(rows[r]) - 1
        else:
            # the letters present are the right ends of the open arcs, so
            # d, the least of them, sits in the corner cell
            yield (False, *tableau._slide_out(rows, 0, 0))


def _from_cells(cells: Sequence[Step]) -> Word:
    """The word whose walk has these cells, its steps undone from the end."""
    rows: list[list[int]] = []
    word = list(range(1, len(cells) + 1))
    for d in range(len(cells), 0, -1):
        adds, r, c = cells[d - 1]
        if adds:
            partner = tableau._unbump(rows, r)
            word[d - 1], word[partner - 1] = partner, d
        else:
            tableau._slide_in(rows, d, r, c)
    return tuple(word)


def sundaram(word: Word) -> OscillatingTableau:
    """
    Map a fixed-point-free involution to its oscillating tableau: insert
    the partner at the smaller endpoint of each arc, jeu-de-taquin-delete
    it at the larger one, and record the shapes.
    """
    shapes: list[Shape] = [()]
    for adds, r, c in _cells(perm._fixed_point_free(word)):
        shape = shapes[-1]  # row r now has c + adds cells; an empty last row goes
        shapes.append(shape[:r] + ((c + adds,) if c + adds else ()) + shape[r + 1 :])
    return _walk(tuple(shapes))


def sundaram_inverse(o: OscillatingTableau) -> Word:
    """
    Reverse reading of the insertion/deletion walk: process steps from
    the end, undoing deletions by reverse jeu-de-taquin placements and
    insertions by reverse row insertion, emitting one arc per insertion.
    """
    return _from_cells([_cell(a, b) for a, b in zip(o.shapes, o.shapes[1:])])


def transpose(o: OscillatingTableau) -> OscillatingTableau:
    return _walk(tuple(tableau.transpose_shape(s) for s in o.shapes))


def _walk(shapes: tuple[Shape, ...]) -> OscillatingTableau:
    """Wrap a walk that is valid by construction without re-checking it."""
    return perm._trusted(OscillatingTableau, shapes=shapes)


def chen_iota(m: Matching) -> Matching:
    """
    The involution on perfect matchings obtained by conjugating every
    shape of the oscillating tableau; swaps crossing and nesting numbers.
    """
    if m.unmatched:
        raise ValueError("defined on perfect matchings only")
    return matching_mod._matching(_iota(matching_mod.to_involution(m)))


def _iota(word: Word) -> Word:
    """chen_iota on the involution word of a perfect matching: the walk's
    cells with row and column swapped, read back into a word.

    >>> _iota((5, 4, 8, 2, 1, 7, 6, 3))
    (4, 7, 5, 1, 3, 8, 2, 6)
    """
    return _from_cells([(adds, c, r) for adds, r, c in _cells(word)])


def kim_des(o: OscillatingTableau) -> DescentSet:
    """
    Descents read off the walk: i is a descent iff step i adds and step
    i+1 deletes, both add with the second strictly lower, or both delete
    with the second strictly higher.
    """
    steps = [_cell(a, b) for a, b in zip(o.shapes, o.shapes[1:])]
    members = set()
    for i, ((add1, r1, _), (add2, r2, _)) in enumerate(zip(steps, steps[1:]), start=1):
        if (add1 and (not add2 or r2 > r1)) or (not add1 and not add2 and r2 < r1):
            members.add(i)
    return perm._trusted(DescentSet, n=o.size, members=frozenset(members))


# ---------------------------------------------------------------------------
# Codec: shapes joined by ';', each a comma list or '-' for empty

def parse_oscillating(text: str) -> OscillatingTableau:
    shapes = []
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if chunk == "-" or chunk == "":
            shapes.append(())
        else:
            shapes.append(tableau.parse_shape(chunk))
    try:
        return OscillatingTableau(tuple(shapes))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_oscillating(o: OscillatingTableau) -> str:
    return ";".join(tableau.format_shape(s) if s else "-" for s in o.shapes)
