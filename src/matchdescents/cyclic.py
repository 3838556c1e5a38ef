"""
Cyclic descent extensions: the transported cyclic statistics on
involutions and standard Young tableaux, the three-axiom verifier, and
the classification of the Escherian classes.

p = ι̂∘rot∘ι̂⁻¹ and ι̂ sends cr to ne, so the class checks walk forward from
the matchings with cr = j, one ι̂ (or H) per element and no inverse.  The
walk's table holds P(ι(core)) for each fixed-point-free core, so Chen's ι
and the core's insertion run once per core, and each element inserts only
its fixed points.  The cMDes and Des of each word are bit masks from the
same ``_stat_counts`` search that splits M_{n,k} by cr and ne.
``transport_involution``, which ``map p`` runs, and ``transport_syt``
carry one object at a time, through ι̂⁻¹ (H⁻¹) and then ι̂ (H).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Hashable, Iterable

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


@dataclass
class CdesReport:
    """Outcome of checking the three cyclic-extension axioms on a set."""

    set_id: str
    extension_ok: bool
    equivariance_ok: bool
    non_escher_ok: bool
    escher_witnesses: list = field(default_factory=list)
    orbit_sizes: list[int] = field(default_factory=list)

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
    """The axioms and orbits for the members of Des and cDes and the map p
    of each element of ``des``, in its order."""
    witnesses = [x for x in des if not cdes[x] or len(cdes[x]) == n]  # a cyclic descent set lies in [n]
    return CdesReport(
        set_id=set_id,
        extension_ok=all(cdes[x] - {n} == members for x, members in des.items()),
        equivariance_ok=all(cdes[p[x]] == {i % n + 1 for i in members} for x, members in cdes.items()),
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
    increasing order of words: one ``_stat_counts`` search, each word read
    off the partner list it fills."""
    by_cr: dict[int, dict[Word, int]] = {j: {} for j in range((n - k) // 2 + 1)}
    by_ne: dict[int, dict[Word, int]] = {j: {} for j in by_cr}
    p: list[int] = []
    cmdes_mask = matching_mod._cmdes_mask

    def fold(cr, ne, mdes, des):
        word = tuple(p[1:-1])  # p[0] and p[n + 1] are the search's sentinels
        by_cr[cr][word] = cmdes_mask(p, n, mdes)
        by_ne[ne][word] = des

    matching_mod._stat_counts(n, k, fold, p)
    return by_cr, by_ne


def _check_class(n: int, k: int, j: int, classes: tuple[dict, dict], syt: bool = False) -> CdesReport:
    """The report on I_{n,k,j} (SYT_{n,k,j} when syt) from the class cr = j
    of ``_cr_ne_classes(n, k)``: cDes(ι̂ m) = cMDes(m), p(ι̂ m) = ι̂(rot m)."""
    if syt:
        # each tableau's rows, the walk's key, and Des from the kernel, in its order
        des = {
            tuple(map(tuple, rows)): perm._members(d)
            for shape in tableau._syt_shapes(n, k, j)
            for rows, d, _ in tableau._syt_des(shape)
        }
        report = _report(f"SYT_{{{n},{k},{j}}}", n, des, *_walk(classes[0][j], _h_key, des.keys()))
        report.escher_witnesses = list(map(tableau._tableau, report.escher_witnesses))
        return report
    des = {x: perm._members(mask) for x, mask in classes[1][j].items()}
    return _report(f"I_{{{n},{k},{j}}}", n, des, *_walk(classes[0][j], bijection._iota_hat, des.keys()))


def _h_key(word: Word, table: dict) -> tuple[tuple[int, ...], ...]:
    """The rows of H(word) as a tuple of tuples, the key of a tableau in the walk."""
    return tuple(map(tuple, bijection._h_rows(word, table)))


def _walk(preimages: dict[Word, int], image_of: Callable, ground: AbstractSet) -> tuple[dict, dict]:
    """The members of cDes and the map p of each element of ``ground``, read
    forward from the matchings, each with its cMDes mask, that ``image_of``
    (ι̂ or H) maps onto it: cDes(ι̂ m) = cMDes(m) and p(ι̂ m) = ι̂(rot m).  A
    class is every choice of fixed points times a few fixed-point-free
    cores, so ``image_of`` gets a table core -> P(ι(core)) that lives for
    this walk and runs ι once per core.  ι̂'s kernels re-check nothing;
    this walk raises unless the map is a bijection onto ``ground`` and
    rotation keeps the preimages."""
    table: dict = {}
    image = {m: image_of(m, table) for m in preimages}
    if len(preimages) != len(ground) or ground != set(image.values()):
        raise ValueError("p is not a bijection of the ground set")
    cdes, p = {}, {}
    for (m, x), mask in zip(image.items(), preimages.values()):
        r = matching_mod._rotate(m)
        if r not in image:
            raise ValueError("rotation leaves the crossing class: p is not a bijection of the ground set")
        cdes[x], p[x] = perm._members(mask), image[r]
    return cdes, p
