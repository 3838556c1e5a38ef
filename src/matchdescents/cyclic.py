"""
Cyclic descent extensions: the transported cyclic statistics on
involutions and standard Young tableaux, the three-axiom verifier, and
the classification of the Escherian classes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

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
    if (n - k) % 2 != 0 or not 0 <= k <= n or not 0 <= j <= (n - k) // 2:
        raise ValueError(f"invalid (n, k, j) = ({n}, {k}, {j})")
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


def verify_cdes(ground_set: Iterable, des_fn: Callable, transport: Callable, set_id: str = "") -> CdesReport:
    """
    Check extension, equivariance and non-Escher for the pair (cDes(x),
    p(x)) that ``transport`` gives for each x of the ground set, with Des(x)
    = ``des_fn(x)`` (DescentSets), and report the orbit structure of p.
    """
    return _verify_cdes(ground_set, lambda x: des_fn(x).members, transport, set_id)


def _verify_cdes(ground_set: Iterable, des_members: Callable, transport: Callable, set_id: str) -> CdesReport:
    """verify_cdes with ``des_members(x)`` the members of Des(x)."""
    elements = list(ground_set)
    element_set = set(elements)
    if len(element_set) != len(elements):
        raise ValueError("ground set contains duplicates")
    # cDes of p(x) is read from p(x)'s own entry, computed from p(x) alone
    transported = {x: transport(x) for x in elements}
    if {image for _, image in transported.values()} != element_set:
        raise ValueError("p is not a bijection of the ground set")

    extension_ok = True
    equivariance_ok = True
    witnesses = []
    for x in elements:
        cd, image = transported[x]
        n, members = cd.n, cd.members
        if members - {n} != des_members(x):
            extension_ok = False
        if transported[image][0].members != {i % n + 1 for i in members}:
            equivariance_ok = False
        if not members or len(members) == n:  # a cyclic descent set lies in [n]
            witnesses.append(x)

    return CdesReport(
        set_id=set_id,
        extension_ok=extension_ok,
        equivariance_ok=equivariance_ok,
        non_escher_ok=not witnesses,
        escher_witnesses=witnesses,
        orbit_sizes=[len(orbit) for orbit in orbits(elements, lambda x: transported[x][1])],
    )


def orbits(elements: Sequence[Hashable], step: Callable[[Hashable], Hashable]) -> list[list]:
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


def involutions_by_nesting(n: int, k: int) -> dict[int, list[Word]]:
    """The classes I_{n,k,j} for every j, from one pass over M_{n,k}."""
    classes: dict[int, list[Word]] = {j: [] for j in range((n - k) // 2 + 1)}
    for word in matching_mod._words(n, k):
        classes[matching_mod._cr_ne(word)[1]].append(word)
    return classes


def verify_cdes_involutions(n: int, k: int, j: int, elements: list[Word] | None = None) -> CdesReport:
    """Run the verifier on the involutions with k fixed points and
    nesting number j, using the transported maps.  ``elements`` may hold
    that class when the caller has enumerated it already."""
    if elements is None:
        elements = list(matching_mod._inkj_words(n, k, j))
    return _verify_cdes(elements, perm._descents, transport_involution, f"I_{{{n},{k},{j}}}")


def verify_cdes_syt(n: int, k: int, j: int) -> CdesReport:
    # each tableau with its Des, both from the enumeration kernel, in its order
    des = {
        tableau._tableau(rows): frozenset(d)
        for shape in tableau._syt_shapes(n, k, j)
        for rows, d in tableau._syt_des(shape)
    }
    return _verify_cdes(list(des), des.__getitem__, transport_syt, f"SYT_{{{n},{k},{j}}}")

