"""
Formal quasisymmetric sums as descent multisets, Schur expansions via
descent sets of standard tableaux, and the exhaustive verification of
the equidistribution identities.

A formal sum of fundamental quasisymmetric functions with monomial
coefficients q^a t^b is stored as a multiset of (a, b, D) triples; two
sums are equal iff the multisets agree.  Finite-variable evaluation
exists only as an independent numeric cross-check.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from . import matching as matching_mod, perm, tableau
from .matching import Matching
from .perm import Word
from .tableau import Shape

Term = tuple[int, int, frozenset[int]]


@dataclass(frozen=True)
class FormalQSym:
    """A multiset of (q-exponent, t-exponent, descent set) triples of
    homogeneous degree n."""

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        for a, b, d in self.terms:
            if a < 0 or b < 0 or not d <= frozenset(range(1, self.n)):
                raise ValueError(f"bad term {(a, b, set(d))}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=_term_key)))

    def counter(self) -> Counter:
        return Counter(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalQSym)
            and self.n == other.n
            and self.counter() == other.counter()
        )


def _term_key(term: Term) -> tuple:
    a, b, d = term
    return (a, b, sorted(d))


def qsym(n: int, terms: Iterable[Term]) -> FormalQSym:
    return FormalQSym(n, tuple(terms))


def multiset_diff(lhs: Counter, rhs: Counter, cap: int = 20) -> list:
    """Symmetric difference of two multisets, capped for reporting."""
    diff = []
    for key in (lhs - rhs):
        diff.append(("lhs-only", key, lhs[key] - rhs[key]))
    for key in (rhs - lhs):
        diff.append(("rhs-only", key, rhs[key] - lhs[key]))
    return diff[:cap]


@dataclass
class VerifyResult:
    identity: str
    params: dict
    ok: bool
    witness_diff: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def fundamental_eval(n: int, d: frozenset[int] | set[int], num_vars: int) -> Counter:
    """
    Monomial expansion of a fundamental quasisymmetric function in a
    finite variable set: chains i_1 <= ... <= i_n with strict rises at D.
    Returns a multiset of exponent vectors.
    """
    d = frozenset(d)
    if not d <= frozenset(range(1, n)):
        raise ValueError(f"invalid descent positions {set(d)}")
    out: Counter = Counter()

    def gen(pos: int, current: int, expo: list[int]) -> None:
        if pos == n:
            out[tuple(expo)] += 1
            return
        start = current + 1 if pos in d else current
        for i in range(max(start, 1), num_vars + 1):
            expo[i - 1] += 1
            gen(pos + 1, i, expo)
            expo[i - 1] -= 1

    gen(0, 0, [0] * num_vars)
    return out


def schur_descent_multiset(shape: Shape) -> Counter:
    """The descent multiset {Des(T) : T in SYT(shape)}, representing the
    Schur function in the fundamental basis."""
    return Counter(tableau.des(t).members for t in tableau.enumerate_syt(shape))


# ---------------------------------------------------------------------------
# The Schur-positivity identity over all matchings on n points

def lhs_main0(n: int) -> FormalQSym:
    """One term (um, cr, MDes) per matching on n points."""
    terms = []
    for m in matching_mod.enumerate_all_matchings(n):
        terms.append((m.unmatched, matching_mod.crossing_number(m), matching_mod.mdes(m).members))
    return qsym(n, terms)


def rhs_main0(n: int) -> FormalQSym:
    """One term (odd columns, floor(height/2), Des(T)) per SYT of size n."""
    terms = []
    for shape in tableau.partitions(n):
        a = tableau.odd_cols(shape)
        b = tableau.height(shape) // 2
        for t in tableau.enumerate_syt(shape):
            terms.append((a, b, tableau.des(t).members))
    return qsym(n, terms)


def verify_main0(n: int) -> VerifyResult:
    lhs, rhs = lhs_main0(n), rhs_main0(n)
    diff = multiset_diff(lhs.counter(), rhs.counter())
    return VerifyResult(
        "main0", {"n": n}, lhs == rhs, diff, {"lhs": len(lhs.terms), "rhs": len(rhs.terms)}
    )


# ---------------------------------------------------------------------------
# Symmetry of (Des, MDes) on perfect matchings, with the (cr, ne) refinement

def verify_lemma_main1(n2: int) -> VerifyResult:
    if n2 % 2 != 0:
        raise ValueError("perfect matchings need an even number of points")
    plain: Counter = Counter()
    plain_swap: Counter = Counter()
    refined: Counter = Counter()
    refined_swap: Counter = Counter()
    count = 0
    for m in matching_mod.enumerate_matchings(n2, 0):
        d = matching_mod.des(m).members
        g = matching_mod.mdes(m).members
        cr, ne = matching_mod.crossing_nesting(m)
        plain[(d, g)] += 1
        plain_swap[(g, d)] += 1
        refined[(g, d, cr, ne)] += 1
        refined_swap[(d, g, ne, cr)] += 1
        count += 1
    ok = plain == plain_swap and refined == refined_swap
    diff = multiset_diff(plain, plain_swap) + multiset_diff(refined, refined_swap)
    return VerifyResult("main1", {"n": n2}, ok, diff, {"matchings": count})


# ---------------------------------------------------------------------------
# Equidistribution of (cr, MDes) with (ne, Des) over M_{n,k}, and the
# two-variable multiset refinement

def verify_main11(n: int, k: int) -> VerifyResult:
    lhs: Counter = Counter()
    rhs: Counter = Counter()
    count = 0
    for m in matching_mod.enumerate_matchings(n, k):
        cr, ne = matching_mod.crossing_nesting(m)
        lhs[(cr, matching_mod.mdes(m).members)] += 1
        rhs[(ne, matching_mod.des(m).members)] += 1
        count += 1
    ok = lhs == rhs
    return VerifyResult("main11", {"n": n, "k": k}, ok, multiset_diff(lhs, rhs), {"matchings": count})


def verify_main111(n: int, k: int) -> VerifyResult:
    lhs: Counter = Counter()
    rhs: Counter = Counter()
    count = 0
    for m in matching_mod.enumerate_matchings(n, k):
        cr, ne = matching_mod.crossing_nesting(m)
        lhs[(cr, ne, matching_mod.mdes(m).members)] += 1
        rhs[(ne, cr, matching_mod.des(m).members)] += 1
        count += 1
    ok = lhs == rhs
    return VerifyResult("main111", {"n": n, "k": k}, ok, multiset_diff(lhs, rhs), {"matchings": count})


# ---------------------------------------------------------------------------
# Descent-set equidistribution between split conjugacy classes and shuffles

def gessel_class(pi: Word, sigma_word: tuple[int, ...]) -> list[Word]:
    """
    All permutations of cycle type mu ⊔ nu whose restrictions to the two
    letter blocks are order-isomorphic to the given pair.  pi acts on
    [m]; sigma is given as a word on the letters m+1..m+n.
    """
    m = len(pi)
    n = len(sigma_word)
    if sorted(sigma_word) != list(range(m + 1, m + n + 1)):
        raise ValueError("second permutation must act on the letters m+1..m+n")
    sigma_std = perm.standardize(sigma_word)
    mu = perm.cycle_type(pi)
    nu = perm.cycle_type(sigma_std)
    if set(mu) & set(nu):
        raise ValueError(f"cycle types {mu} and {nu} share a part")
    out = []
    universe = range(1, m + n + 1)
    for support in itertools.combinations(universe, m):
        word = [0] * (m + n)
        sup = list(support)
        for i, v in zip(sup, (sup[pi[r] - 1] for r in range(m))):
            word[i - 1] = v
        rest = [i for i in universe if i not in set(support)]
        for i, v in zip(rest, (rest[sigma_std[r] - 1] for r in range(n))):
            word[i - 1] = v
        out.append(perm.check_perm(word))
    return out


def verify_gessel(pi: Word, sigma_word: tuple[int, ...]) -> VerifyResult:
    """Des-multiset equality between the split class and the shuffles."""
    cls = gessel_class(pi, sigma_word)
    shuf = perm.shuffles(pi, sigma_word)
    lhs = Counter(perm.des(w).members for w in cls)
    rhs = Counter(perm.des(w).members for w in shuf)
    ok = lhs == rhs
    return VerifyResult(
        "gessel",
        {"pi": list(pi), "sigma": list(sigma_word)},
        ok,
        multiset_diff(lhs, rhs),
        {"class": len(cls), "shuffles": len(shuf)},
    )


def gessel_pairs(max_total: int):
    """All valid (pi, sigma) pairs with disjoint interval supports,
    coprime cycle-type part sets and total size up to the bound."""
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            for pi in perm.enumerate_sn(m):
                mu = set(perm.cycle_type(pi))
                for sigma_std in perm.enumerate_sn(n):
                    if mu & set(perm.cycle_type(sigma_std)):
                        continue
                    sigma_word = tuple(v + m for v in sigma_std)
                    yield pi, sigma_word


def verify_gessel_all(max_total: int) -> VerifyResult:
    checked = 0
    for pi, sigma_word in gessel_pairs(max_total):
        result = verify_gessel(pi, sigma_word)
        checked += 1
        if not result.ok:
            result.counts["pairs_checked"] = checked
            return result
    return VerifyResult("gessel", {"max": max_total}, True, [], {"pairs_checked": checked})
