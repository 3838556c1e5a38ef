"""
The composite bijection on involutions with fixed points.

An involution with k fixed points is split into its fixed-point set and
a fixed-point-free core (res), the core is pushed through the
crossing/nesting-swapping involution, and the pair is re-embedded as a
shuffle of the core with an increasing run of the k largest letters
(emb); together they are phi.  H = Q∘phi, the recording tableau of the
shuffle, has k odd columns and is the primitive: the composite iota_hat
is RS⁻¹(H, H), and H⁻¹ reads the shuffle back off the tableau and undoes
phi.  iota_hat carries the geometric descent set to the standard one
and the crossing number to the nesting number.  The maps run as kernels
on words and rows.  Every RS pair they build or read off an involution
is symmetric, P = Q, and runs by Beissinger's rule (``tableau._involution_rows``
and ``tableau._involution``): iota_hat peels its image off H with one unbump
per 2-cycle, q_map off the recording rows, and iota_hat⁻¹ and the core
table of ``_h_rows`` insert with one insertion per 2-cycle.

The forward kernel ``_h_rows`` builds H without phi's word, by
Schützenberger's symmetry Q(w) = P(w⁻¹): it relabels P(ι(core)) through
the moved points and row-inserts the k fixed points, and it takes a
table core -> P(ι(core)), so that a walk over a class runs ι and the
core's insertion once per distinct core.  The kernels (_emb, _phi,
_q_map, _h_rows, _iota_hat, _h_map) check nothing, as their callers pass
words that are valid by construction; res, phi, iota_hat, iota_hat_inverse
and h_map check their input through ``perm._involution``, emb and
ShuffleElement their core through ``perm._fixed_point_free``, q_map its output.
"""
from __future__ import annotations

from . import matching as matching_mod
from . import oscillating, perm, tableau
from .perm import Word
from .tableau import StandardTableau


class ShuffleElement(perm._Record, frozen=True):
    """A word in I_{n-k,0} shuffled with the increasing run n-k+1..n."""

    word: Word
    k: int

    def __post_init__(self) -> None:
        perm.check_perm(self.word)
        n = len(self.word)
        k = self.k
        matching_mod._check_nkj(n, k)
        big_positions = [i for i, v in enumerate(self.word) if v > n - k]
        if [self.word[i] for i in big_positions] != list(range(n - k + 1, n + 1)):
            raise ValueError("large letters do not form an increasing run")
        perm._fixed_point_free(self.small_involution(), self.word)

    @property
    def n(self) -> int:
        return len(self.word)

    def small_involution(self) -> Word:
        """The subword of the small letters, which are 1..n-k: the core."""
        return tuple(v for v in self.word if v <= self.n - self.k)

    def big_letter_positions(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.word, start=1) if v > self.n - self.k)


def res(word: Word) -> tuple[frozenset[int], Word]:
    """Split an involution into (fixed points, fixed-point-free core): the
    core is the standardization of the restriction to the moved letters."""
    return _res(perm._involution(word))


def _res(word: Word) -> tuple[frozenset[int], Word]:
    fixed = perm.fixed_points(word)
    return fixed, perm.standardize([v for i, v in enumerate(word, start=1) if i not in fixed])


def emb(fixed: frozenset[int], sigma: Word, n: int) -> ShuffleElement:
    """Re-embed: positions in ``fixed`` carry n-k+1..n increasing, the rest
    carry sigma's word on the small letters."""
    if len(sigma) != n - len(fixed) or not fixed <= frozenset(range(1, n + 1)):
        raise ValueError(f"size mismatch: |J|={len(fixed)}, |sigma|={len(sigma)}, n={n}")
    return perm._trusted(ShuffleElement, word=_emb(fixed, perm._fixed_point_free(sigma), n), k=len(fixed))


def _emb(fixed: frozenset[int], sigma: Word, n: int) -> Word:
    word = [0] * n
    for big, pos in enumerate(sorted(fixed), start=n - len(fixed) + 1):
        word[pos - 1] = big
    small = iter(sigma)  # sigma's letters fill the other positions in order
    return tuple(v or next(small) for v in word)


def phi(word: Word) -> ShuffleElement:
    """res, then the crossing/nesting involution on the core, then emb."""
    return perm._trusted(ShuffleElement, word=_phi(perm._involution(word)), k=len(perm.fixed_points(word)))


def _phi(word: Word) -> Word:
    """phi of a word the package built."""
    fixed, core = _res(word)
    return _emb(fixed, oscillating._iota(core), len(word))


def _phi_inverse(word: Word, k: int) -> Word:
    """phi⁻¹ on a shuffle word with k large letters; its small letters, 1..n-k, are the core."""
    small_positions = [i for i, v in enumerate(word, start=1) if v <= len(word) - k]
    out = list(range(1, len(word) + 1))  # the positions of the large letters stay fixed
    for a, v in zip(small_positions, oscillating._iota([word[a - 1] for a in small_positions])):
        out[a - 1] = small_positions[v - 1]
    return perm.check_perm(out)


def q_map(t: ShuffleElement) -> Word:
    """The RS preimage of the diagonal pair of the recording tableau."""
    return perm.check_perm(_q_map(t.word))


def _q_map(word: Word) -> Word:
    return tuple(tableau._involution(tableau._rs(word)[1]))


def _q_map_inverse(word: Word) -> tuple[Word, int]:
    return tableau._q_inverse_shuffle(tableau._involution_rows(word)), len(perm.fixed_points(word))


def iota_hat(word: Word) -> Word:
    """The composite bijection; preserves the fixed-point count and maps
    the geometric descent set / crossing number of the input to the
    standard descent set / nesting number of the output."""
    return perm.check_perm(_iota_hat(perm._involution(word)))


def _iota_hat(word: Word, table: dict[Word, list[list[int]]] | None = None) -> Word:
    """iota_hat of an involution word the package built: RS⁻¹(H, H), peeled."""
    return tuple(tableau._involution(_h_rows(word, table)))


def iota_hat_inverse(word: Word) -> Word:
    return _phi_inverse(*_q_map_inverse(perm._involution(word)))


def h_map(word: Word) -> StandardTableau:
    """H = Q∘phi, the recording tableau of phi(word) and of the composite
    image; a bijection from involutions with k fixed points to tableaux
    with k odd columns."""
    return _h_map(perm._involution(word))


def _h_map(word: Word, table: dict[Word, list[list[int]]] | None = None) -> StandardTableau:
    """h_map of an involution word the package built."""
    return tableau._tableau(_h_rows(word, table))


def _h_rows(word: Word, table: dict[Word, list[list[int]]] | None = None) -> list[list[int]]:
    """
    The rows of H(word) = Q(phi(word)), read as P(phi(word)⁻¹).  phi(word)
    puts tau = ι(core) on the moved points s_1 < ... < s_{n-k} and the
    large letters on the fixed points J_1 < ... < J_k, so its inverse is
    the word s_{tau(1)} ... s_{tau(n-k)} J_1 ... J_k: P(tau) with each
    entry v relabelled s_v, as s is increasing, then J_1, ..., J_k
    row-inserted in that order.  ``table`` maps a core to the rows of
    P(ι(core)), which it computes once and never changes.
    """
    moved, fixed = [0], []  # moved[v] = s_v
    for i, v in enumerate(word, start=1):
        (fixed if v == i else moved).append(i)
    rank = [0] * (len(word) + 1)
    for v, s in enumerate(moved):
        rank[s] = v
    core = tuple([rank[word[s - 1]] for s in moved[1:]])  # the moved letters are the moved points
    if table is None:
        table = {}
    try:
        p_rows = table[core]
    except KeyError:
        p_rows = table[core] = tableau._involution_rows(oscillating._iota(core))
    rows = [[moved[v] for v in row] for row in p_rows]
    for x in fixed:
        tableau._insert(rows, x)
    return rows


def h_map_inverse(t: StandardTableau) -> Word:
    """phi⁻¹ of the shuffle whose recording tableau is t, k its odd columns."""
    return _phi_inverse(tableau.q_inverse_shuffle(t), tableau.odd_cols(t.shape))
