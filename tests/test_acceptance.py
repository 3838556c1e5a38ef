"""
Acceptance suite: eight exhaustive desk-scale criteria, each reported
with a single pass/fail line in the terminal summary.
"""
import time
from collections import Counter
from contextlib import contextmanager

from matchdescents import bijection as bj
from matchdescents import oscillating as osc, perm, symfun, tableau
from matchdescents import matching as mm

from conftest import ACCEPTANCE
from oracles import crossing_number_oracle, nesting_number_oracle


@contextmanager
def criterion(num, name):
    ACCEPTANCE[num] = (name, False)
    yield
    ACCEPTANCE[num] = (name, True)


def involutions(n):
    for k in range(n % 2, n + 1, 2):
        for m in mm.enumerate_matchings(n, k):
            yield mm.to_involution(m)


def test_criterion_1_paper_examples():
    with criterion(1, "paper-example regression"):
        fig1 = mm.matching(8, (1, 6), (3, 4), (5, 7))
        assert mm.mdes(fig1).members == frozenset({2, 3, 5, 6})
        assert mm.des(fig1).members == frozenset({1, 3, 5})
        assert mm.cmdes(fig1).members == frozenset({2, 3, 5, 6, 8})
        rotated = mm.rotate(fig1)
        assert rotated == mm.matching(8, (2, 7), (4, 5), (6, 8))
        assert mm.cmdes(rotated).members == frozenset({1, 3, 4, 6, 7})

        ex_word = (5, 4, 8, 2, 1, 7, 6, 3)  # (1,5)(2,4)(3,8)(6,7)
        assert osc.sundaram(ex_word).shapes == (
            (), (1,), (1, 1), (2, 1), (2,), (1,), (1, 1), (1,), ()
        )
        assert osc.chen_iota(mm.from_involution(ex_word)) == mm.matching(
            8, (1, 4), (2, 7), (3, 5), (6, 8)
        )

        pre = (4, 2, 6, 1, 5, 3)
        image = bj.iota_hat(pre)
        assert image == (1, 6, 4, 3, 5, 2)
        assert mm.mdes(mm.from_involution(pre)).members == frozenset({2, 3, 5})
        assert perm.des(image).members == frozenset({2, 3, 5})
        assert mm.crossing_number(mm.from_involution(pre)) == 2
        assert mm.nesting_number(mm.from_involution(image)) == 2

        q = tableau.from_rows(((1, 2, 4, 6), (3, 5, 8), (7,)))
        assert tableau.q_inverse_shuffle(q) == (3, 5, 1, 7, 6, 8, 2, 4)
        _, first_pos = tableau.reverse_rs_insert(q, (2, 3))
        assert first_pos == 6

        cls = symfun.gessel_class((3, 1, 2), (4,))
        assert set(cls) == {(3, 1, 2, 4), (4, 1, 3, 2), (4, 2, 1, 3), (1, 4, 2, 3)}
        assert Counter(perm.des(w).members for w in cls) == Counter(
            perm.des(w).members for w in perm.shuffles((3, 1, 2), (4,))
        )


def test_criterion_2_counting_identities():
    with criterion(2, "counting identities"):
        assert [mm.count_matchings(n2, 0) for n2 in (2, 4, 6, 8, 10)] == [1, 3, 15, 105, 945]
        for n2 in (2, 4, 6, 8, 10):
            assert sum(1 for _ in mm.enumerate_matchings(n2, 0)) == mm.count_matchings(n2, 0)
        for n in range(1, 10):
            for k in range(n % 2, n + 1, 2):
                count = sum(1 for _ in mm.enumerate_matchings(n, k))
                assert count == mm.count_matchings(n, k)
                assert sum(1 for _ in tableau.enumerate_syt_nk(n, k)) == count


def test_criterion_3_equidistribution_suite():
    start = time.perf_counter()
    with criterion(3, "equidistribution suite"):
        for n2 in (2, 4, 6, 8, 10):
            assert symfun.verify("main1", n=n2).ok
        for n in range(1, 10):
            for k in range(n % 2, n + 1, 2):
                assert symfun.verify("main11", n=n, k=k).ok
                assert symfun.verify("main111", n=n, k=k).ok
            assert symfun.verify("main0", n=n).ok
        assert time.perf_counter() - start < 60


def test_criterion_4_bijection_roundtrips():
    with criterion(4, "bijection round-trips"):
        for n2 in (2, 4, 6, 8, 10):
            result = symfun.verify("sundaram-roundtrip", n=n2)
            assert result.ok, result.witness_diff
        for n in range(1, 9):
            for word in involutions(n):
                assert bj.iota_hat_inverse(bj.iota_hat(word)) == word
        for n in range(1, 8):
            for word in perm.enumerate_sn(n):
                assert tableau.rs_inverse(*tableau.rs_pair(word)) == word
        for n in range(1, 9):
            for k in range(n % 2, n + 1, 2):
                bigs = tuple(range(n - k + 1, n + 1))
                for m in mm.enumerate_matchings(n - k, 0):
                    sigma = mm.to_involution(m)
                    for word in perm.shuffle_sets([sigma], [bigs]):
                        q = tableau.rs_pair_q(word)
                        assert tableau.q_inverse_shuffle(q) == word


def test_criterion_5_structural_transport():
    with criterion(5, "structural transport"):
        # chen: ι is an involution with Des(ι m) = MDes(m), cr(ι m) = ne(m)
        # and ne(ι m) = cr(m); kim: Kim's descent set of sundaram(w) is Des(w)
        for n2 in (2, 4, 6, 8, 10):
            for identity in ("chen", "kim"):
                result = symfun.verify(identity, n=n2)
                assert result.ok, (identity, result.witness_diff)
        for n in range(1, 9):
            for word in involutions(n):
                q = tableau.rs_pair_q(word)
                assert mm.nesting_number(mm.from_involution(word)) == tableau.height(q.shape) // 2
        for n2 in (2, 4, 6, 8):
            for m in mm.enumerate_matchings(n2, 0):
                flipped = mm.from_involution(perm.conjugate_w0(mm.to_involution(m)))
                assert mm.mdes(flipped).members == frozenset(
                    n2 - i for i in mm.mdes(m).members
                )
        # negative witness: the crossing/nesting involution extended by
        # transposition alone does not transport descents once unmatched
        # points appear
        pi = mm.matching(5, (1, 4), (2, 5))
        sigma = mm.matching(5, (1, 5), (2, 4))
        assert mm.des(pi).members != mm.mdes(sigma).members
        assert mm.des(sigma).members != mm.mdes(pi).members


def test_criterion_6_cyclic_extension_suite():
    with criterion(6, "cyclic-extension suite"):
        # every class (n, k, j) of involutions and of SYT: the extension,
        # equivariance and non-Escher axioms, Escher witnesses exactly on
        # the Escherian classes, and orbit sizes dividing n
        for n in range(1, 9):
            classes = sum((n - k) // 2 + 1 for k in range(n % 2, n + 1, 2))
            for identity in ("cdes", "cdes-syt"):
                result = symfun.verify(identity, n=n)
                assert result.ok, (identity, result.params, result.witness_diff)
                assert result.counts == {"classes_checked": classes}


def test_criterion_7_gessel_suite():
    start = time.perf_counter()
    with criterion(7, "Gessel suite"):
        result = symfun.verify_gessel_all(7)
        assert result.ok, result.witness_diff
        assert result.counts["pairs_checked"] == 1074
        assert time.perf_counter() - start < 30


def test_criterion_8_oracle_equivalence():
    with criterion(8, "oracle equivalence"):
        for n in range(1, 10):
            for m in mm.enumerate_all_matchings(n):
                assert mm.crossing_number(m) == crossing_number_oracle(m)
                assert mm.nesting_number(m) == nesting_number_oracle(m)
