"""
Cyclic descent extensions: the transported cyclic statistics on
involutions and standard Young tableaux, the three-axiom verifier, and
the classification of the Escherian classes.

p = ι̂∘rot∘ι̂⁻¹ and ι̂ sends cr to ne, so ``_class_table``, the one class
walk of ``verify cdes``, ``cdes-syt`` and ``orbits``, goes forward from the
matchings with cr = j, one ι̂ (or H) per element and no inverse.  The
walk's table holds P(ι(core)) for each fixed-point-free core, so Chen's ι
and the core's insertion run once per core, and each element inserts only
its fixed points.  The cMDes and Des of each word are bit masks from the
same ``_stat_counts`` search that splits M_{n,k} by cr and ne, and
``_report`` checks the axioms on those masks.
``transport_involution``, which ``map p`` runs, and ``transport_syt``
carry one object at a time, through ι̂⁻¹ (H⁻¹) and then ι̂ (H).
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable

from . import bijection, matching as matching_mod, perm, tableau
from .perm import DescentSet, Word
from .tableau import StandardTableau


def transport_involution(word: Word) -> tuple[DescentSet, Word]:
    """
    (cDes(word), p(word)): the cyclic geometric descent set of the
    preimage of ``word`` under the composite bijection, and the rotation
    of that preimage carried back through it.  p preserves the
    fixed-point count and the nesting number.
    """
    pre = bijection.iota_hat_inverse(word)  # the one involution check
    return matching_mod._cmdes(pre), bijection._iota_hat(matching_mod._rotate(pre))


def transport_syt(t: StandardTableau) -> tuple[DescentSet, StandardTableau]:
    """(cDes(t), p(t)) through h = Q after the composite bijection."""
    pre = bijection.h_map_inverse(t)
    return matching_mod._cmdes(pre), bijection._h_map(matching_mod._rotate(pre))


def classify_escherian(n: int, k: int, j: int) -> str:
    """'escherian' exactly when k = n, or k = 0 with maximal crossing j = n/2."""
    matching_mod._check_nkj(n, k, j)
    if k == n or (k == 0 and 2 * j == n):
        return "escherian"
    return "non_escherian"


class CdesReport(perm._Record):
    """Outcome of checking the three cyclic-extension axioms on a set."""

    set_id: str
    extension_ok: bool
    equivariance_ok: bool
    non_escher_ok: bool
    escher_witnesses: list = []
    orbit_sizes: list[int] = []

    @property
    def all_axioms_ok(self) -> bool:
        return self.extension_ok and self.equivariance_ok and self.non_escher_ok

    def to_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "axioms": {
                "extension": self.extension_ok,
                "equivariance": self.equivariance_ok,
                "non_escher": self.non_escher_ok,
            },
            "witnesses": [str(w) for w in self.escher_witnesses],
            "orbit_sizes": sorted(self.orbit_sizes),
        }


def _report(set_id: str, n: int, des: dict, cdes: dict, p: dict) -> CdesReport:
    """The axioms and orbits for the Des and cDes masks (bit i for position
    i) and the map p of each element of ``des``, in its order."""
    top = 1 << n
    full = 2 * top - 2  # [n], bits 1..n
    witnesses = [x for x in des if cdes[x] in (0, full)]
    return CdesReport(
        set_id=set_id,
        extension_ok=all(cdes[x] & ~top == d for x, d in des.items()),
        # i -> i + 1, and n -> 1
        equivariance_ok=all(cdes[p[x]] == (c << 1 & full) | (c >> n & 1) << 1 for x, c in cdes.items()),
        non_escher_ok=not witnesses,
        escher_witnesses=witnesses,
        orbit_sizes=[len(orbit) for orbit in orbits(list(des), p.__getitem__)],
    )


def orbits(elements: Iterable[Hashable], step: Callable[[Hashable], Hashable]) -> list[list]:
    """The orbits of the bijection ``step`` of the elements, each listed
    from its earliest element, in the order of the elements."""
    out = []
    seen: set = set()
    for x in elements:
        orbit = []
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = step(x)
        if orbit:
            out.append(orbit)
    return out


def _cr_ne_classes(n: int, k: int) -> tuple[dict[int, dict[Word, int]], dict[int, dict[Word, int]]]:
    """The words of M_{n,k} by crossing number, each with its cMDes mask,
    and by nesting number, each with its Des mask, every class in
    increasing order of words: one ``_stat_counts`` search that hands each
    fold its word."""
    by_cr: dict[int, dict[Word, int]] = {j: {} for j in range((n - k) // 2 + 1)}
    by_ne: dict[int, dict[Word, int]] = {j: {} for j in by_cr}
    cmdes_mask = matching_mod._cmdes_mask

    def fold(cr, ne, mdes, des, word):
        by_cr[cr][word] = cmdes_mask(word, mdes)
        by_ne[ne][word] = des

    matching_mod._stat_counts(n, k, fold, words=True)
    return by_cr, by_ne


def _check_class(n: int, k: int, j: int, classes: tuple[dict, dict], syt: bool = False) -> CdesReport:
    """The report on I_{n,k,j} (SYT_{n,k,j} when syt) from ``classes = _cr_ne_classes(n, k)``."""
    report = _report(f"{'SYT' if syt else 'I'}_{{{n},{k},{j}}}", n, *_class_table(n, k, j, classes, syt))
    if syt:
        report.escher_witnesses = list(map(tableau._tableau, report.escher_witnesses))
    return report


def _class_table(n: int, k: int, j: int | None, classes: tuple[dict, dict], syt: bool = False) -> tuple[dict, ...]:
    """(des, cdes, p): the Des masks, cDes masks and map p of I_{n,k,j}
    (SYT_{n,k,j} when syt), or of every j when j is None, read forward from
    the words of ``classes = _cr_ne_classes(n, k)`` with cr = j and their
    cMDes masks: cDes(ι̂ m) = cMDes(m) and p(ι̂ m) = ι̂(rot m), with the rows
    of H for ι̂ when syt.  ι̂'s kernels re-check nothing, so the walk raises
    unless ι̂ maps the class onto its ground set and rotation keeps the class."""
    if j is None:  # every class, merged in order of j
        preimages, des = ({w: mask for cls in by_j.values() for w, mask in cls.items()} for by_j in classes)
    else:
        preimages, des = classes[0][j], classes[1][j]
    table: dict = {}
    if syt:  # each tableau's rows, the walk's key, with its Des mask, in the kernel's order
        des = {}
        for shape in tableau._syt_shapes(n, k, j):
            tableau._syt_des(shape, lambda rows, d, _: des.__setitem__(tuple(map(tuple, rows)), d))
        h_rows = bijection._h_rows
        image = {m: tuple(map(tuple, h_rows(m, table))) for m in preimages}
    else:
        iota_hat = bijection._iota_hat
        image = {m: iota_hat(m, table) for m in preimages}
    if len(preimages) != len(des) or des.keys() != set(image.values()):
        raise ValueError("p is not a bijection of the ground set")
    cdes, p = {}, {}
    for (m, x), mask in zip(image.items(), preimages.values()):
        r = matching_mod._rotate(m)
        if r not in image:
            raise ValueError("rotation leaves the crossing class: p is not a bijection of the ground set")
        cdes[x], p[x] = mask, image[r]
    return des, cdes, p
