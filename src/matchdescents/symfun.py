"""
Formal quasisymmetric sums as descent multisets, Schur expansions via
descent sets of standard tableaux, the exhaustive verification of the
equidistribution identities, and the registry of every identity that
``matchdescents verify`` and the acceptance tests run.

A formal sum of fundamental quasisymmetric functions with monomial
coefficients q^a t^b is stored as a multiset of (a, b, D) triples; two
sums are equal iff the multisets agree.
"""
from __future__ import annotations

import contextlib
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import compress
from operator import gt, mul

from . import cyclic, matching as matching_mod, oscillating, perm, tableau
from .perm import Placements, Word
from .tableau import Shape

# Both sides of a comparison are built only by counting, so they hold
# positive counts, and two of them are the same multiset exactly when they
# are equal as dicts; dict equality runs in C, while Counter.__eq__ is a
# Python-level generator.
_same_multiset = dict.__eq__


def multiset_diff(lhs: Counter, rhs: Counter) -> list:
    """Symmetric difference of two multisets, capped at 20 for reporting.  Each
    side is listed in the order of ``_canonical``, so the entries kept
    depend on the multisets alone, not on the order they were counted in."""
    diff = []
    for side, more, less in (("lhs-only", lhs, rhs), ("rhs-only", rhs, lhs)):
        extra = more - less
        diff.extend((side, key, extra[key]) for key in sorted(extra, key=_canonical))
    return diff[:20]


def _canonical(key):
    """The sort key of a multiset key: a frozenset reads as its sorted
    tuple, also inside a tuple."""
    if isinstance(key, frozenset):
        return tuple(sorted(key))
    if isinstance(key, tuple):
        return tuple(map(_canonical, key))
    return key


class VerifyResult(perm._Record):
    identity: str
    params: dict
    ok: bool
    witness_diff: list = []
    counts: dict = {}
    extra: dict = {}  # further report fields


def _compared(identity: str, params: dict, lhs: dict, rhs: dict, counts: dict, read: Callable) -> VerifyResult:
    """Compare two multisets keyed by descent masks; the witness of a
    failure is their ``multiset_diff`` with each key read by ``read``."""
    if _same_multiset(lhs, rhs):
        return VerifyResult(identity, params, True, [], counts)
    lhs, rhs = (Counter({read(key): c for key, c in side.items()}) for side in (lhs, rhs))
    return VerifyResult(identity, params, False, multiset_diff(lhs, rhs), counts)


def schur_descent_multiset(shape: Shape) -> Counter:
    """The descent multiset {Des(T) : T in SYT(shape)}, representing the
    Schur function in the fundamental basis."""
    shape = tableau.check_shape(shape)
    masks = tableau._shape_des_counts(sum(shape), shape)[shape]
    return Counter({perm._members(d): c for d, c in masks.items()})


# ---------------------------------------------------------------------------
# The multiset identities count descent masks (bit i for position i) and
# compare the counts as dicts: main0, main1, main11 and main111 key plain
# dicts by tuples that hold the masks of ``matching._stat_counts`` and
# ``tableau._shape_des_counts``, and gessel keys Counters by bare masks.  The
# masks are read as sets, through ``perm._members``, only where someone reads
# them: in a failed comparison's witness, by the key reader that each
# identity hands ``_compared``, and in the public multisets ``lhs_main0`` and
# ``rhs_main0``.

def _mask_last(key: tuple) -> tuple:
    """``key`` with the descent mask that ends it read as its set."""
    *rest, mask = key
    return (*rest, perm._members(mask))


# ---------------------------------------------------------------------------
# The Schur-positivity identity over all matchings on n points

def _lhs_main0_masks(n: int) -> dict:
    """{(um, cr, MDes mask): number of matchings on n points}."""
    terms: dict = {}
    get = terms.get

    def class_fold(k):
        def fold(cr, ne, mdes, des):
            key = k, cr, mdes
            terms[key] = get(key, 0) + 1

        return fold

    matching_mod._stat_counts(n, None, class_fold)
    return terms


def _rhs_main0_masks(n: int) -> dict:
    """{(odd columns, floor(height/2), Des mask): number of SYT of size n}."""
    terms: dict = {}
    for shape, masks in tableau._shape_des_counts(n).items():
        a = tableau.odd_cols(shape)
        b = tableau.height(shape) // 2
        for d, c in masks.items():
            key = a, b, d
            terms[key] = terms.get(key, 0) + c
    return terms


def lhs_main0(n: int) -> Counter:
    """The multiset of (um, cr, MDes), one term per matching on n points."""
    return Counter({_mask_last(key): c for key, c in _lhs_main0_masks(n).items()})


def rhs_main0(n: int) -> Counter:
    """The multiset of (odd columns, floor(height/2), Des(T)), one term per
    SYT of size n."""
    return Counter({_mask_last(key): c for key, c in _rhs_main0_masks(n).items()})


def verify_main0(n: int) -> VerifyResult:
    lhs, rhs = _lhs_main0_masks(n), _rhs_main0_masks(n)
    counts = {"lhs": sum(lhs.values()), "rhs": sum(rhs.values())}
    return _compared("main0", {"n": n}, lhs, rhs, counts, _mask_last)


# ---------------------------------------------------------------------------
# Symmetry of (Des, MDes) on perfect matchings, with the (cr, ne) refinement

def verify_lemma_main1(n2: int) -> VerifyResult:
    """(MDes, Des, cr, ne) and (Des, MDes, ne, cr) have one distribution;
    projecting both onto their first two entries gives the symmetry of
    (Des, MDes).  An odd n2 raises ValueError from the enumerator."""
    refined: dict = {}
    get = refined.get

    def fold(cr, ne, mdes, des):
        key = mdes, des, cr, ne
        refined[key] = get(key, 0) + 1

    matching_mod._stat_counts(n2, 0, fold)
    swapped = {(d, g, ne, cr): c for (g, d, cr, ne), c in refined.items()}

    def read(key):  # the witness reads the two masks that lead each key
        return perm._members(key[0]), perm._members(key[1]), *key[2:]

    return _compared("main1", {"n": n2}, refined, swapped, {"matchings": sum(refined.values())}, read)


# ---------------------------------------------------------------------------
# Equidistribution of (cr, MDes) with (ne, Des) over M_{n,k}, and the
# two-variable multiset refinement

def _cr_ne_counts(n: int, k: int | None, refined: bool = True) -> Iterator[tuple[int, dict, dict]]:
    """
    (k, lhs, rhs) per class M_{n,k}, for class k, or for every class in k
    order from one search when k is None: lhs and rhs count (cr, ne, MDes
    mask) and (ne, cr, Des mask), or (cr, MDes mask) and (ne, Des mask)
    when not ``refined``.
    """
    classes = {kk: ({}, {}) for kk in (range(n % 2, n + 1, 2) if k is None else [k])}

    def class_fold(kk):
        lhs, rhs = classes[kk]
        lhs_get, rhs_get = lhs.get, rhs.get

        def fold(cr, ne, mdes, des):
            key = (cr, ne, mdes) if refined else (cr, mdes)
            lhs[key] = lhs_get(key, 0) + 1
            key = (ne, cr, des) if refined else (ne, des)
            rhs[key] = rhs_get(key, 0) + 1

        return fold

    matching_mod._stat_counts(n, k, class_fold if k is None else class_fold(k))
    for kk, (lhs, rhs) in classes.items():
        yield kk, lhs, rhs


def _main11_results(name: str, n: int, k: int | None) -> Iterator[VerifyResult]:
    """The results of identity main11 (main111 when ``name`` is main111)
    on class k, or on every class in k order when k is None."""
    for kk, lhs, rhs in _cr_ne_counts(n, k, refined=name == "main111"):
        yield _compared(name, {"n": n, "k": kk}, lhs, rhs, {"matchings": sum(lhs.values())}, _mask_last)


# ---------------------------------------------------------------------------
# Descent-set equidistribution between split conjugacy classes and shuffles
#
# A class word is a shuffle: for the support S it places sup∘pi on the
# positions in S and rest∘sigma on the rest, where sup and rest list S and
# its complement in increasing order.  Both sides therefore lay out words
# through one table of placements per (m, n).  The verifier packs all
# C(m + n, m) words of a pair into one integer, a byte per letter, and
# reads every descent of every word with one subtraction.  Pairs are
# checked where they enter: ``gessel_pairs`` builds only valid ones.

def _check_pair(pi: Word, sigma_word: tuple[int, ...]) -> None:
    """Raise unless pi permutes [m], sigma m+1..m+n, with no shared cycle-type part."""
    m = len(pi)
    perm.check_perm(pi)
    if sorted(sigma_word) != list(range(m + 1, m + len(sigma_word) + 1)):
        raise ValueError("second permutation must act on the letters m+1..m+n")
    mu = perm.cycle_type(pi)
    nu = perm.cycle_type(perm.standardize(sigma_word))
    if set(mu) & set(nu):
        raise ValueError(f"cycle types {mu} and {nu} share a part")


def _class_words(pi: Word, sigma_word: tuple[int, ...], kernel: Placements) -> list[Word]:
    """gessel_class of a checked pair, laid out through its placements."""
    # cols is sup + rest, so sup∘pi + rest∘sigma picks cols at pi - 1 and at
    # m + (sigma - m) - 1 = sigma - 1
    pick = perm.picker([v - 1 for v in (*pi, *sigma_word)])
    return [layout(pick(cols)) for cols, layout in kernel]


def gessel_class(pi: Word, sigma_word: tuple[int, ...]) -> list[Word]:
    """
    All permutations of cycle type mu ⊔ nu whose restrictions to the two
    letter blocks are order-isomorphic to the given pair.  pi acts on
    [m]; sigma is given as a word on the letters m+1..m+n.
    """
    _check_pair(pi, sigma_word)
    return _class_words(pi, sigma_word, perm.placements(len(pi), len(sigma_word)))


class _DesMasks(dict):
    """The Des mask of a word's byte group in a packed descent integer: bit i
    for each position i whose byte is set."""

    def __missing__(self, group: bytes) -> int:
        mask = self[group] = sum(1 << i for i, byte in enumerate(group, 1) if byte)
        return mask


def _packed_block(m: int, n: int) -> tuple[list[list[int]], list[int], Callable[[int], Counter]]:
    """
    The class table and the shuffle spots of the block (m, n), and the Des
    count of the words they pack.  The word of the s-th support of
    ``perm.placements(m, n)`` takes bytes s*t .. s*t + t - 1 of an integer
    (t = m + n), a letter a byte.  ``spots[a]`` holds the byte 1 where each
    support puts the a-th letter of pi + sigma, so the sum of x_a *
    ``spots[a]`` over the letters x_a of pi + sigma packs all its shuffles.
    A class word has cols[x - 1] there instead, so ``table[a][x]``, for a
    letter x of a's block, holds cols[x - 1] on each support's spot, and the
    sum of ``table[a][x_a]`` packs the split class.

    ``count`` returns their Des multiset, keyed by masks in first-occurrence
    order.  (W | G) - (W >> 8) holds w[p] + 128 - w[p + 1] in byte p, with G
    the byte 0x80 everywhere: no borrow crosses a byte, as every letter is
    below 128, and bit 7 is set exactly when w[p] > w[p + 1].  The last byte
    of a word compares it with the next word, so its group leaves it out.
    """
    t = m + n
    if t > 127:
        raise ValueError(f"a block of {t} letters: the packed Gessel check takes at most 127")
    all_cols = [cols for cols, _ in perm.placements(m, n)]
    size = len(all_cols) * t
    table, spots = [], []
    for a in range(t):
        at = [s * t + cols[a] - 1 for s, cols in enumerate(all_cols)]
        spots.append(sum(1 << 8 * p for p in at))
        row = [0] * (t + 1)
        for x in range(1, m + 1) if a < m else range(m + 1, t + 1):
            letters = bytearray(size)
            for p, cols in zip(at, all_cols):
                letters[p] = cols[x - 1]
            row[x] = int.from_bytes(letters, "little")
        table.append(row)

    high = int.from_bytes(b"\x80" * size, "little")
    groups = [slice(p, p + t - 1) for p in range(0, size, t)]
    masks = _DesMasks()

    def count(packed: int) -> Counter:
        descents = ((packed | high) - (packed >> 8)) & high
        return Counter(map(masks.__getitem__, map(descents.to_bytes(size, "little").__getitem__, groups)))

    return table, spots, count


def _class_packed(pi: Word, sigma_word: tuple[int, ...], table: list[list[int]]) -> int:
    """The class words of a checked pair, packed through the class table."""
    return sum(map(list.__getitem__, table, (*pi, *sigma_word)))


def _gessel_counts(pairs: Iterable[tuple[Word, Word]]) -> Iterator[tuple[Word, Word, Counter, Counter]]:
    """
    Each checked pair with the Des multisets, keyed by masks, of its split
    class and of its shuffles.  The shuffles' multiset, F_{Des pi}
    F_{Des sigma}, depends only on the block (m, n) and Des(pi + sigma),
    which is Des pi and m + Des sigma: pi's letters lie below sigma's.  It
    is computed once per key, in a table cleared at each block.
    """
    block = None
    for pi, sigma_word in pairs:
        if block != (len(pi), len(sigma_word)):
            block = (len(pi), len(sigma_word))
            class_table, spots, count = _packed_block(*block)
            bits = [1 << i for i in range(1, sum(block))]  # sized to the block: compress drops what it lacks
            shuffle_side: dict[int, Counter] = {}
        joined = (*pi, *sigma_word)
        key = sum(compress(bits, map(gt, joined, joined[1:])))
        if key not in shuffle_side:
            shuffle_side[key] = count(sum(map(mul, joined, spots)))
        yield pi, sigma_word, count(_class_packed(pi, sigma_word, class_table)), shuffle_side[key]


def _gessel_result(pi: Word, sigma_word: tuple[int, ...], lhs: Counter, rhs: Counter) -> VerifyResult:
    params = {"pi": list(pi), "sigma": list(sigma_word)}
    counts = {"class": lhs.total(), "shuffles": rhs.total()}
    return _compared("gessel", params, lhs, rhs, counts, perm._members)


def gessel_pairs(max_total: int):
    """All valid (pi, sigma) pairs with disjoint interval supports,
    coprime cycle-type part sets and total size up to the bound."""
    # each size's cycle lengths once, as bits of an int, in enumerate_sn order
    masks = {n: list(map(perm._cycle_mask, perm.enumerate_sn(n))) for n in range(1, max_total)}
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            # per part set mu of the first block, the sigma words whose parts miss mu's
            compatible: dict[int, list[Word]] = {mu: [] for mu in masks[m]}
            for sigma_std, nu in zip(perm.enumerate_sn(n), masks[n]):
                sigma_word = tuple(map(m.__add__, sigma_std))
                for mu, sigma_words in compatible.items():
                    if not mu & nu:
                        sigma_words.append(sigma_word)
            for pi, mu in zip(perm.enumerate_sn(m), masks[m]):
                for sigma_word in compatible[mu]:
                    yield pi, sigma_word


def verify_gessel_all(max_total: int) -> VerifyResult:
    checked = 0
    for pi, sigma_word, lhs, rhs in _gessel_counts(gessel_pairs(max_total)):
        checked += 1
        if not _same_multiset(lhs, rhs):
            result = _gessel_result(pi, sigma_word, lhs, rhs)
            result.counts["pairs_checked"] = checked
            return result
    return VerifyResult("gessel", {"max": max_total}, True, [], {"pairs_checked": checked})


# ---------------------------------------------------------------------------
# The bijection identities, checked one perfect matching at a time

def _chen_holds(w: Word, cr: int, ne: int, mdes: int, des: int) -> bool:
    """chen_iota is an involution taking MDes to Des and (cr, ne) to (ne, cr)."""
    image = oscillating._iota(w)
    if oscillating._iota(image) != w:
        return False
    image_cr, image_ne, _, image_des = matching_mod._sweep(image)
    return image_des == mdes and (image_cr, image_ne) == (ne, cr)


def _sundaram_roundtrip_holds(w: Word, *stats: int) -> bool:
    """sundaram_inverse undoes sundaram."""
    return oscillating.sundaram_inverse(oscillating.sundaram(w)) == w


def _kim_holds(w: Word, cr: int, ne: int, mdes: int, des: int) -> bool:
    """Kim's descent set of the oscillating tableau is Des of the involution."""
    return sum(1 << i for i in oscillating.kim_des(oscillating.sundaram(w)).members) == des


def _roby_holds(w: Word, *stats: int) -> bool:
    """Conjugating by w0 reverses the oscillating tableau."""
    return oscillating.sundaram(perm.conjugate_w0(w)).shapes == oscillating.sundaram(w).shapes[::-1]


def verify_bijection(name: str, holds: Callable[..., bool], n: int) -> VerifyResult:
    """The bijection identity ``name`` on every perfect matching on n points,
    in increasing order of words: ``holds(w, cr, ne, mdes, des)`` checks it
    on the involution word w, with the statistics (masks) of ``_stat_counts``,
    which hands each fold w too."""
    witness, checked = [], 0

    def fold(cr, ne, mdes, des, w):
        nonlocal checked
        checked += 1
        if not holds(w, cr, ne, mdes, des):
            witness.append(matching_mod._format_word(w))

    matching_mod._stat_counts(n, 0, fold, words=True)
    return VerifyResult(name, {"n": n}, not witness, witness, {"matchings": checked})


# ---------------------------------------------------------------------------
# Cyclic descent extensions, one class (n, k, j) at a time

def verify_cdes_k(n: int, k: int, j: int | None = None, syt: bool = False) -> VerifyResult:
    """The cyclic descent extension on I_{n,k,j} (SYT_{n,k,j} when syt),
    every j when j is None: the three axioms, orbit sizes dividing n, and
    Escher witnesses exactly on the Escherian classes.  The first failing
    class stops the check and is reported, and ``class_sizes`` holds sizes."""
    classes = cyclic._cr_ne_classes(n, k)
    witness: list = []
    sizes = {}
    for jj in range((n - k) // 2 + 1) if j is None else [j]:
        report = cyclic._check_class(n, k, jj, classes, syt)
        classification = cyclic.classify_escherian(n, k, jj)
        sizes[jj] = len(classes[0][jj])
        if not (
            report.extension_ok
            and report.equivariance_ok
            and report.non_escher_ok == (classification == "non_escherian")
            and all(n % size == 0 for size in report.orbit_sizes)
        ):
            witness.append({"set": report.set_id, "report": report.to_dict()})
            break
    name, params = "cdes-syt" if syt else "cdes", {"n": n, "k": k, "j": jj if witness else j}
    extra = {} if j is None else {"classification": classification}
    extra["class_sizes"] = sizes
    return VerifyResult(name, params, not witness, witness, {"classes_checked": len(sizes)}, extra)


# ---------------------------------------------------------------------------
# The identity registry, shared by the CLI and the tests

GESSEL_DEFAULT_MAX = 6


class Identity(perm._Record, frozen=True):
    """A registry entry, the whole declaration of an identity: the flags it
    takes, ``check``, which takes their values as keywords, and its size
    guard.  When k is a flag, ``check`` yields one result per class that the
    flags select, in k order."""

    flags: tuple[str, ...]
    check: Callable[..., VerifyResult | Iterator[VerifyResult]]
    perfect: bool = False  # n counts the points of perfect matchings
    guard: tuple[str, int] = ("n", 12)  # the size flag, and its largest value run without --force


# Each entry looks its function up when it runs, so that a patched module
# attribute takes effect.
REGISTRY: dict[str, Identity] = {
    "main1": Identity(("n",), lambda n: verify_lemma_main1(n), perfect=True),
    "main11": Identity(("n", "k"), lambda n, k: _main11_results("main11", n, k)),
    "main111": Identity(("n", "k"), lambda n, k: _main11_results("main111", n, k)),
    "main0": Identity(("n",), lambda n: verify_main0(n)),
    "cdes": Identity(("n", "k", "j"), lambda n, k, j: (verify_cdes_k(n, kk, j) for kk in _ks(n, k, j))),
    "cdes-syt": Identity(
        ("n", "k", "j"), lambda n, k, j: (verify_cdes_k(n, kk, j, syt=True) for kk in _ks(n, k, j))
    ),
    # 52,328 pairs; 444,012 at 10
    "gessel": Identity(("max",), lambda max: verify_gessel_all(max), guard=("max", 9)),
    "chen": Identity(("n",), lambda n: verify_bijection("chen", _chen_holds, n), perfect=True),
    "sundaram-roundtrip": Identity(
        ("n",), lambda n: verify_bijection("sundaram-roundtrip", _sundaram_roundtrip_holds, n), perfect=True
    ),
    "kim": Identity(("n",), lambda n: verify_bijection("kim", _kim_holds, n), perfect=True),
    "roby": Identity(("n",), lambda n: verify_bijection("roby", _roby_holds, n), perfect=True),
}


def _ks(n: int, k: int | None, j: int | None) -> list[int]:
    """The k classes of n points that the flags select: k itself, or every
    k when k is None, keeping those whose nesting numbers reach j."""
    ks = []
    for kk in range(n % 2, n + 1, 2) if k is None else [k]:
        with contextlib.suppress(ValueError):  # (n, kk, j) names no class
            matching_mod._check_nkj(n, kk, j)
            ks.append(kk)
    return ks


def resolve_params(name: str, given: dict) -> dict:
    """The parameters of identity ``name`` from the flags given (None when
    absent), with the default --max; a ValueError refuses a flag it does not
    take and values that no class fits, before any work starts."""
    entry = REGISTRY[name]
    for flag, value in given.items():
        if value is not None and flag not in entry.flags:
            raise ValueError(f"verify {name} does not take --{flag}")
    params = {flag: given.get(flag) for flag in entry.flags}
    if "max" in params:
        if params["max"] is None:
            params["max"] = GESSEL_DEFAULT_MAX
        if params["max"] < 3:  # m = n = 1 share the cycle-type part 1
            raise ValueError(f"max={params['max']} leaves no pair to check; it must be at least 3")
    if "n" in params:
        n = params["n"]
        if n is None:
            raise ValueError(f"verify {name} requires --n")
        if n < 0:
            raise ValueError(f"n={n} is negative")
        if entry.perfect and n % 2:
            raise ValueError(f"verify {name} runs over perfect matchings, so n must be even, not {n}")
        if not _ks(n, params.get("k"), params.get("j")):
            raise ValueError("invalid " + ", ".join(f"{f}={v}" for f, v in params.items()) + ": no class fits")
    return params


def run_identity(name: str, params: dict) -> VerifyResult:
    """Check identity ``name`` on parameters from ``resolve_params``.  When
    k is a flag left absent, the counts are summed over every k class the
    flags select, each class's counts are kept in the extra field
    ``classes``, and each of its extra fields is kept keyed by k; the first
    failing class stops the sum and is the result."""
    results = REGISTRY[name].check(**params)
    if "k" not in params:
        return results
    if params["k"] is not None:
        (result,) = results
        return result
    total: Counter = Counter()
    classes = {}
    extra: dict = {}
    for result in results:
        k = result.params["k"]
        total.update(result.counts)
        classes[k] = result.counts
        for key, value in result.extra.items():
            extra.setdefault(key, {})[k] = value
        if not result.ok:
            break
    else:
        result = VerifyResult(name, params, True)
    result.counts = dict(total)
    result.extra = {"classes": classes, **extra}
    return result


def verify(name: str, **given) -> VerifyResult:
    """Check identity ``name`` of the registry on the flags given."""
    return run_identity(name, resolve_params(name, given))
