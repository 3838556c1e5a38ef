"""
Cyclic descent extensions: the transported cyclic statistics on
involutions and standard Young tableaux, the three-axiom verifier, and
the classification of the Escherian classes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from . import bijection, matching as matching_mod, perm, tableau
from .matching import Matching
from .perm import DescentSet, Word
from .tableau import StandardTableau


def cdes_involution(word: Word) -> DescentSet:
    """Cyclic descent set of an involution: the cyclic geometric descent
    set of its preimage under the composite bijection."""
    return matching_mod.cmdes(_preimage(word))


def p_map_involution(word: Word) -> Word:
    """Rotation of the arc diagram, conjugated through the composite
    bijection; preserves the fixed-point count and the nesting number."""
    return bijection.iota_hat(_rotated(_preimage(word)))


def transport_involution(word: Word) -> tuple[DescentSet, Word]:
    """(cdes_involution(word), p_map_involution(word)) from one preimage."""
    pre = _preimage(word)
    return matching_mod.cmdes(pre), bijection.iota_hat(_rotated(pre))


def cdes_syt(t: StandardTableau) -> DescentSet:
    """cMDes of the preimage under h = Q after the composite bijection."""
    return matching_mod.cmdes(_syt_preimage(t))


def p_map_syt(t: StandardTableau) -> StandardTableau:
    """The rotation conjugated through h."""
    return bijection.h_map(_rotated(_syt_preimage(t)))


def transport_syt(t: StandardTableau) -> tuple[DescentSet, StandardTableau]:
    """(cdes_syt(t), p_map_syt(t)) from one preimage."""
    pre = _syt_preimage(t)
    return matching_mod.cmdes(pre), bijection.h_map(_rotated(pre))


def _preimage(word: Word) -> Matching:
    if not perm.is_involution(word):
        raise ValueError(f"not an involution: {word}")
    return matching_mod.from_involution(bijection.iota_hat_inverse(word))


def _syt_preimage(t: StandardTableau) -> Matching:
    return matching_mod.from_involution(bijection.h_map_inverse(t))


def _rotated(pre: Matching) -> Word:
    """The involution of the rotated arc diagram."""
    return matching_mod.to_involution(matching_mod.rotate(pre))


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "set_id": self.set_id,
                "axioms": {
                    "extension": self.extension_ok,
                    "equivariance": self.equivariance_ok,
                    "non_escher": self.non_escher_ok,
                },
                "witnesses": [str(w) for w in self.escher_witnesses],
                "orbit_sizes": sorted(self.orbit_sizes),
            }
        )


def verify_cdes(
    ground_set: Iterable,
    des_fn: Callable[[Hashable], DescentSet],
    cdes_fn: Callable[[Hashable], DescentSet],
    p_fn: Callable[[Hashable], Hashable],
    set_id: str = "",
) -> CdesReport:
    """
    Check extension, equivariance and non-Escher for (cdes_fn, p_fn) on
    the ground set, and report the orbit structure of p_fn.
    """
    elements = list(ground_set)
    element_set = set(elements)
    if len(element_set) != len(elements):
        raise ValueError("ground set contains duplicates")
    images = {x: p_fn(x) for x in elements}
    if set(images.values()) != element_set:
        raise ValueError("p is not a bijection of the ground set")

    # cDes of p(x) is read from p(x)'s own entry, computed from p(x) alone
    cdes_of = {x: cdes_fn(x) for x in elements}

    extension_ok = True
    equivariance_ok = True
    witnesses = []
    for x in elements:
        cd = cdes_of[x]
        n = cd.n
        if cd.restrict_linear().members != des_fn(x).members:
            extension_ok = False
        if cdes_of[images[x]].members != cd.shifted().members:
            equivariance_ok = False
        if not cd.members or cd.members == frozenset(range(1, n + 1)):
            witnesses.append(x)

    orbit_sizes = []
    seen: set = set()
    for x in elements:
        if x in seen:
            continue
        size = 0
        y = x
        while y not in seen:
            seen.add(y)
            y = images[y]
            size += 1
        orbit_sizes.append(size)

    return CdesReport(
        set_id=set_id,
        extension_ok=extension_ok,
        equivariance_ok=equivariance_ok,
        non_escher_ok=not witnesses,
        escher_witnesses=witnesses,
        orbit_sizes=orbit_sizes,
    )


def involutions_by_nesting(n: int, k: int) -> dict[int, list[Word]]:
    """The classes I_{n,k,j} for every j, from one pass over M_{n,k}."""
    classes: dict[int, list[Word]] = {j: [] for j in range((n - k) // 2 + 1)}
    for m in matching_mod.enumerate_matchings(n, k):
        classes[matching_mod.nesting_number(m)].append(matching_mod.to_involution(m))
    return classes


def verify_cdes_involutions(n: int, k: int, j: int, elements: list[Word] | None = None) -> CdesReport:
    """Run the verifier on the involutions with k fixed points and
    nesting number j, using the transported maps.  ``elements`` may hold
    that class when the caller has enumerated it already."""
    if elements is None:
        elements = [matching_mod.to_involution(m) for m in matching_mod.enumerate_inkj(n, k, j)]
    return _verify_transported(elements, perm.des, transport_involution, f"I_{{{n},{k},{j}}}")


def verify_cdes_syt(n: int, k: int, j: int) -> CdesReport:
    elements = list(tableau.enumerate_syt_nkj(n, k, j))
    return _verify_transported(elements, tableau.des, transport_syt, f"SYT_{{{n},{k},{j}}}")


def _verify_transported(elements: list, des_fn, transport, set_id: str) -> CdesReport:
    """verify_cdes with cDes and p of each element taken from one call of
    ``transport``."""
    transported = {x: transport(x) for x in elements}
    return verify_cdes(
        elements,
        des_fn,
        lambda x: transported[x][0],
        lambda x: transported[x][1],
        set_id=set_id,
    )


# Hand-built cyclic extension on the transpositions in S_4, shipped as a
# fixture: cDes values and the rotation orbits.
S4_TRANSPOSITIONS_CDES: dict[Word, frozenset[int]] = {
    (2, 1, 3, 4): frozenset({1, 4}),
    (3, 2, 1, 4): frozenset({1, 2}),
    (4, 2, 3, 1): frozenset({1, 3}),
    (1, 3, 2, 4): frozenset({2, 4}),
    (1, 4, 3, 2): frozenset({2, 3}),
    (1, 2, 4, 3): frozenset({3, 4}),
}

S4_TRANSPOSITIONS_P: dict[Word, Word] = {
    (3, 2, 1, 4): (1, 4, 3, 2),
    (1, 4, 3, 2): (1, 2, 4, 3),
    (1, 2, 4, 3): (2, 1, 3, 4),
    (2, 1, 3, 4): (3, 2, 1, 4),
    (4, 2, 3, 1): (1, 3, 2, 4),
    (1, 3, 2, 4): (4, 2, 3, 1),
}
