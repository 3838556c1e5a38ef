"""
Oscillating tableaux with empty endpoints, the insertion/deletion
bijection from fixed-point-free involutions, the pointwise transpose,
and the induced crossing/nesting-swapping involution on perfect
matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import matching as matching_mod
from . import perm, tableau
from .matching import Matching
from .perm import DescentSet, ParseError, Word
from .tableau import Shape


@dataclass(frozen=True)
class OscillatingTableau:
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
        prev, cur = self.shapes[i - 1], self.shapes[i]
        if sum(cur) > sum(prev):
            kind = "add"
            longer, shorter = cur, prev
        else:
            kind = "del"
            longer, shorter = prev, cur
        for r in range(len(longer)):
            if r >= len(shorter) or longer[r] != shorter[r]:
                return kind, r + 1
        raise AssertionError("shapes are equal")

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
        except ValueError as exc:
            return f"step {idx}: {exc}"
        if abs(sum(a) - sum(b)) != 1 or not _differ_by_one_box(a, b):
            return f"step {idx}: shapes differ by other than one box"
    return None


def _differ_by_one_box(a: Shape, b: Shape) -> bool:
    small, large = (a, b) if sum(a) < sum(b) else (b, a)
    padded = small + (0,) * (len(large) - len(small))
    diffs = [lr - sr for lr, sr in zip(large, padded)]
    return diffs.count(0) == len(diffs) - 1 and diffs.count(1) == 1


def sundaram(word: Word) -> OscillatingTableau:
    """
    Map a fixed-point-free involution to its oscillating tableau: insert
    the partner at the smaller endpoint of each arc, jeu-de-taquin-delete
    it at the larger one, and record the shapes.
    """
    if not perm.is_involution(word) or perm.fixed_points(word):
        raise ValueError("input must be a fixed-point-free involution")
    rows: list[list[int]] = []
    shapes: list[Shape] = [()]
    for d, partner in enumerate(word, start=1):
        if d < partner:
            tableau._insert(rows, partner)
        else:
            # the letters present are the right ends of the open arcs, so
            # d, the least of them, sits in the corner cell
            tableau._slide_out(rows, 0, 0)
        shapes.append(tuple(map(len, rows)))
    return _walk(tuple(shapes))


def sundaram_inverse(o: OscillatingTableau) -> Word:
    """
    Reverse reading of the insertion/deletion walk: process steps from
    the end, undoing deletions by reverse jeu-de-taquin placements and
    insertions by reverse row insertion, emitting one arc per insertion.
    """
    n = o.size
    rows: list[list[int]] = []
    word = list(range(1, n + 1))
    for d in range(n, 0, -1):
        prev, cur = o.shapes[d - 1], o.shapes[d]
        r, c = _box_difference(prev, cur)
        if sum(prev) > sum(cur):
            # forward step deleted letter d; put it back
            tableau._slide_in(rows, d, r - 1, c - 1)
        else:
            # forward step inserted the partner of d; extract it
            partner = tableau._unbump(rows, r - 1)
            word[d - 1], word[partner - 1] = partner, d
    return tuple(word)


def _box_difference(a: Shape, b: Shape) -> tuple[int, int]:
    """The cell present in exactly one of two shapes differing by a box."""
    small, large = (a, b) if sum(a) < sum(b) else (b, a)
    for r in range(len(large)):
        s = small[r] if r < len(small) else 0
        if large[r] != s:
            return (r + 1, large[r])
    raise ValueError("shapes are equal")


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
    """chen_iota on the involution word of a perfect matching."""
    return sundaram_inverse(transpose(sundaram(word)))


def kim_des(o: OscillatingTableau) -> DescentSet:
    """
    Descents read off the walk: i is a descent iff step i adds and step
    i+1 deletes, both add with the second strictly lower, or both delete
    with the second strictly higher.
    """
    n = o.size
    members = set()
    for i in range(1, n):
        k1, r1 = o.step(i)
        k2, r2 = o.step(i + 1)
        if (
            (k1 == "add" and k2 == "del")
            or (k1 == "add" and k2 == "add" and r2 > r1)
            or (k1 == "del" and k2 == "del" and r2 < r1)
        ):
            members.add(i)
    return perm._trusted(DescentSet, n=n, members=frozenset(members))


def enumerate_oscillating(size: int) -> Iterator[OscillatingTableau]:
    """All walks of the given (even) size from empty to empty."""
    if size % 2 != 0:
        raise ValueError("size must be even")

    def neighbors(shape: Shape) -> list[Shape]:
        out = []
        # add a box
        for r in range(len(shape) + 1):
            parts = list(shape) + ([0] if r == len(shape) else [])
            parts[r] += 1
            if all(x >= y for x, y in zip(parts, parts[1:])):
                out.append(tuple(p for p in parts if p))
        # remove a box
        for r in range(len(shape)):
            parts = list(shape)
            parts[r] -= 1
            if all(x >= y for x, y in zip(parts, parts[1:])):
                out.append(tuple(p for p in parts if p))
        return out

    def gen(path: list[Shape]) -> Iterator[OscillatingTableau]:
        step = len(path) - 1
        if step == size:
            if path[-1] == ():
                yield OscillatingTableau(tuple(path))
            return
        remaining = size - step
        for nxt in neighbors(path[-1]):
            if sum(nxt) <= remaining - 1:  # must be able to return to empty
                yield from gen(path + [nxt])

    yield from gen([()])


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
