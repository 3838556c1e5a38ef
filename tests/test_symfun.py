from collections import Counter

import pytest

from matchdescents import matching as mm
from matchdescents import perm, symfun, tableau


def fundamental_eval(n, d, num_vars):
    """
    Monomial expansion of a fundamental quasisymmetric function in a
    finite variable set: chains i_1 <= ... <= i_n with strict rises at D.
    Returns a multiset of exponent vectors; an independent numeric
    cross-check of the descent-multiset sums.
    """
    d = frozenset(d)
    if not d <= frozenset(range(1, n)):
        raise ValueError(f"invalid descent positions {set(d)}")
    out = Counter()

    def gen(pos, current, expo):
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


def test_fundamental_eval():
    assert fundamental_eval(2, set(), 2) == Counter({(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert fundamental_eval(2, {1}, 2) == Counter({(1, 1): 1})
    # F_{3,{1}}: chains i1 < i2 <= i3 in two variables
    assert fundamental_eval(3, {1}, 2) == Counter({(1, 2): 1})
    with pytest.raises(ValueError):
        fundamental_eval(2, {2}, 2)


def test_schur_descent_multiset():
    assert symfun.schur_descent_multiset((4,)) == Counter({frozenset(): 1})
    assert symfun.schur_descent_multiset((1, 1, 1)) == Counter({frozenset({1, 2}): 1})
    assert symfun.schur_descent_multiset((2, 2)) == Counter(
        {frozenset({2}): 1, frozenset({1, 3}): 1}
    )
    assert symfun.schur_descent_multiset((2, 1)) == Counter(
        {frozenset({1}): 1, frozenset({2}): 1}
    )


def test_main0_hand_expansions():
    assert symfun.lhs_main0(1) == Counter({(1, 0, frozenset()): 1})
    assert symfun.rhs_main0(1) == Counter({(1, 0, frozenset()): 1})
    lhs2 = symfun.lhs_main0(2)
    assert lhs2 == Counter({(2, 0, frozenset()): 1, (0, 1, frozenset({1})): 1})
    assert lhs2 == symfun.rhs_main0(2)
    # the same terms in another order are the same sum; multiplicities count
    assert symfun.lhs_main0(2) == Counter([(0, 1, frozenset({1})), (2, 0, frozenset())])
    assert lhs2 != Counter([(2, 0, frozenset()), (2, 0, frozenset())])


@pytest.mark.parametrize("n", range(1, 10))
def test_main0(n):
    result = symfun.verify_main0(n)
    assert result.ok, result.witness_diff
    assert result.counts["lhs"] == result.counts["rhs"]


@pytest.mark.parametrize("n", range(1, 7))
def test_main0_numeric_crosscheck(n):
    # independent check: evaluate both sides in three variables
    def evaluate(f):
        total = Counter()
        for (a, b, d), terms in f.items():
            for expo, mult in fundamental_eval(n, d, 3).items():
                total[(a, b, expo)] += terms * mult
        return total

    assert evaluate(symfun.lhs_main0(n)) == evaluate(symfun.rhs_main0(n))


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10])
def test_main1(n2):
    result = symfun.verify_lemma_main1(n2)
    assert result.ok, result.witness_diff
    assert result.counts["matchings"] == mm.count_matchings(n2, 0)


def test_main1_hand_case():
    # 2n=4: the three perfect matchings pair (Des, MDes) symmetrically
    pairs = Counter()
    for m in mm.enumerate_matchings(4, 0):
        pairs[(mm.des(m).members, mm.mdes(m).members)] += 1
    assert pairs == Counter({(g, d): c for (d, g), c in pairs.items()})


def all_nk(max_n):
    return [(n, k) for n in range(1, max_n + 1) for k in range(n % 2, n + 1, 2)]


@pytest.mark.parametrize("n,k", all_nk(9))
def test_main11_main111(n, k):
    r1 = symfun.verify_main11(n, k)
    r2 = symfun.verify_main111(n, k)
    assert r1.ok, r1.witness_diff
    assert r2.ok, r2.witness_diff
    assert r1.counts["matchings"] == mm.count_matchings(n, k)


def test_gessel_paper_example():
    cls = symfun.gessel_class((3, 1, 2), (4,))
    assert set(cls) == {(3, 1, 2, 4), (4, 1, 3, 2), (4, 2, 1, 3), (1, 4, 2, 3)}
    shuf = perm.shuffles((3, 1, 2), (4,))
    assert Counter(perm.des(w).members for w in cls) == Counter(
        perm.des(w).members for w in shuf
    )
    result = symfun.verify_gessel((3, 1, 2), (4,))
    assert result.ok
    assert result.counts == {"class": 4, "shuffles": 4}


def test_gessel_rejects_shared_parts():
    with pytest.raises(ValueError):
        symfun.gessel_class((2, 1), (4, 3))  # both types are (2)
    with pytest.raises(ValueError):
        symfun.gessel_class((1, 2), (3, 4))  # letters must start at m+1
    with pytest.raises(ValueError):
        symfun.gessel_class((2, 2), (3, 4))  # pi is not a permutation
    with pytest.raises(ValueError):
        symfun.gessel_class((3, 1), (3,))  # pi is not a permutation of [2]


def test_gessel_all():
    result = symfun.verify_gessel_all(7)
    assert result.ok, result.witness_diff
    assert result.counts["pairs_checked"] == 1074
