import itertools
import json

import pytest

from matchdescents import bijection as bj
from matchdescents import cli, cyclic
from matchdescents import matching as mm
from matchdescents import perm, tableau

from oracles import (
    enumerate_inkj,
    enumerate_syt_n,
    enumerate_syt_nkj,
    mask_of,
    oracle_report,
    verify_cdes,
    verify_cdes_involutions,
    verify_cdes_syt,
)


def test_cdes_involution_examples():
    # ι̂ maps (1,4)(3,6) to [1,6,4,3,5,2], so the cyclic descents of the
    # image are the cyclic geometric descents of that matching
    expected = mm.cmdes(mm.matching(6, (1, 4), (3, 6))).members
    assert cyclic.transport_involution((1, 6, 4, 3, 5, 2))[0].members == expected
    assert cyclic.transport_involution(tuple(range(1, 6)))[0].members == frozenset()
    assert cyclic.transport_involution((2, 1))[0].members == frozenset({1, 2})
    with pytest.raises(ValueError):
        cyclic.transport_involution((2, 3, 1))


def test_cdes_syt_examples():
    single_row = tableau.from_rows(((1, 2, 3, 4),))
    assert cyclic.transport_syt(single_row)[0].members == frozenset()
    single_col = tableau.from_rows(((1,), (2,), (3,), (4,)))
    assert cyclic.transport_syt(single_col)[0].members == frozenset({1, 2, 3, 4})
    # the single-column preimage is the maximal-crossing matching
    pre = mm.from_involution(bj.h_map_inverse(single_col))
    assert mm.crossing_number(pre) == 2


def test_p_map_small():
    def p(w):
        return cyclic.transport_involution(w)[1]

    # on I_{2,0} the rotation squares to the identity
    w = (2, 1)
    assert p(p(w)) == w
    # the identity involution is a fixed point of p
    assert p((1, 2)) == (1, 2)


def test_classify_escherian():
    assert cyclic.classify_escherian(8, 2, 1) == "non_escherian"
    assert cyclic.classify_escherian(6, 0, 3) == "escherian"
    assert cyclic.classify_escherian(5, 5, 0) == "escherian"
    assert cyclic.classify_escherian(4, 2, 1) == "non_escherian"
    with pytest.raises(ValueError):
        cyclic.classify_escherian(5, 2, 0)
    with pytest.raises(ValueError):
        cyclic.classify_escherian(6, 0, 4)


def test_verify_cdes_i42():
    report = verify_cdes_involutions(4, 2, 1)
    assert report.all_axioms_ok
    assert all(size in (1, 2, 4) for size in report.orbit_sizes)


def test_verify_cdes_i20_escherian():
    report = verify_cdes_involutions(2, 0, 1)
    assert report.extension_ok and report.equivariance_ok
    assert not report.non_escher_ok
    assert report.escher_witnesses == [(2, 1)]
    assert cyclic.transport_involution((2, 1))[0].members == frozenset({1, 2})


# Hand-built cyclic extension on the transpositions in S_4: cDes values
# and the rotation orbits.
S4_TRANSPOSITIONS_CDES = {
    (2, 1, 3, 4): frozenset({1, 4}),
    (3, 2, 1, 4): frozenset({1, 2}),
    (4, 2, 3, 1): frozenset({1, 3}),
    (1, 3, 2, 4): frozenset({2, 4}),
    (1, 4, 3, 2): frozenset({2, 3}),
    (1, 2, 4, 3): frozenset({3, 4}),
}

S4_TRANSPOSITIONS_P = {
    (3, 2, 1, 4): (1, 4, 3, 2),
    (1, 4, 3, 2): (1, 2, 4, 3),
    (1, 2, 4, 3): (2, 1, 3, 4),
    (2, 1, 3, 4): (3, 2, 1, 4),
    (4, 2, 3, 1): (1, 3, 2, 4),
    (1, 3, 2, 4): (4, 2, 3, 1),
}


def test_s4_transpositions_fixture():
    words = list(S4_TRANSPOSITIONS_CDES)
    des = {w: mask_of(perm.des(w).members) for w in words}
    cdes = {w: mask_of(S4_TRANSPOSITIONS_CDES[w]) for w in words}
    report = cyclic._report("S4-transpositions", 4, des, cdes, S4_TRANSPOSITIONS_P)
    assert report.all_axioms_ok
    assert sorted(report.orbit_sizes) == [2, 4]
    assert report == verify_cdes(
        words,
        perm.des,
        lambda w: (perm.DescentSet(4, S4_TRANSPOSITIONS_CDES[w], cyclic=True), S4_TRANSPOSITIONS_P[w]),
        set_id="S4-transpositions",
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_report_wraps_bit_n_to_bit_1(n):
    # one orbit of n elements, element i with cDes {i}: p sends {n} to {1}
    cdes = {i: 1 << i for i in range(1, n + 1)}
    p = {i: i % n + 1 for i in cdes}
    des = {i: c & ~(1 << n) for i, c in cdes.items()}
    report = cyclic._report("wrap", n, des, cdes, p)
    assert report.extension_ok and report.equivariance_ok
    assert report.orbit_sizes == [n]
    for wrong in (1, 1 << n + 1):  # {n} sent to position 0 or n + 1
        assert not cyclic._report("wrap", n, des, {**cdes, 1: wrong}, p).equivariance_ok


@pytest.mark.parametrize("n", range(1, 6))
def test_report_extension_clears_bit_n(n):
    for c in range(0, 1 << n + 1, 2):  # every subset of [n]
        d = c & ~(1 << n)
        assert cyclic._report("ext", n, {0: d}, {0: c}, {0: 0}).extension_ok
        assert cyclic._report("ext", n, {0: c}, {0: c}, {0: 0}).extension_ok == (d == c)
        for i in range(1, n):  # a Des that differs below n
            assert not cyclic._report("ext", n, {0: d ^ 1 << i}, {0: c}, {0: 0}).extension_ok


@pytest.mark.parametrize("n", range(1, 6))
def test_report_escher_masks(n):
    # the empty set and [n] are the Escher witnesses, and nothing else
    full = (1 << n + 1) - 2
    cdes = {c: c for c in range(0, full + 1, 2)}
    report = cyclic._report("escher", n, {c: c & ~(1 << n) for c in cdes}, cdes, {c: c for c in cdes})
    assert report.escher_witnesses == [0, full]
    assert not report.non_escher_ok


@pytest.mark.parametrize("n", range(1, 6))
def test_report_on_masks_matches_the_set_rules(n):
    # every pair of cyclic descent sets a, b on two elements swapped by p,
    # the second with n left in its Des: the mask axioms against the set rules
    subsets = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    p = {0: 1, 1: 0}
    for a in subsets:
        for b in subsets:
            des, cdes = {0: a - {n}, 1: b}, {0: a, 1: b}
            masks = ({x: mask_of(s) for x, s in des.items()}, {x: mask_of(s) for x, s in cdes.items()})
            assert cyclic._report("pair", n, *masks, p) == oracle_report("pair", n, des, cdes, p)


def test_a_backward_rotation_fails_equivariance(capsys, monkeypatch):
    # rotation turned the other way keeps cr, so the walk runs, but cDes
    # shifts by -1 along p
    monkeypatch.setattr(mm, "_rotate", lambda word: tuple((v - 2) % len(word) + 1 for v in word[1:] + word[:1]))
    assert cli.main(["verify", "cdes", "--n", "6"]) == 1
    (witness,) = json.loads(capsys.readouterr().out)["witness_diff"]
    assert witness["report"]["axioms"]["equivariance"] is False


def test_report_json():
    report = verify_cdes_involutions(4, 2, 1)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["set_id"] == "I_{4,2,1}"
    assert data["axioms"] == {"extension": True, "equivariance": True, "non_escher": True}
    assert data["witnesses"] == []


def all_nkj(max_n):
    for n in range(1, max_n + 1):
        for k in range(n % 2, n + 1, 2):
            for j in range((n - k) // 2 + 1):
                yield n, k, j


@pytest.mark.parametrize("n,k,j", list(all_nkj(6)))
def test_cdes_axioms_involutions(n, k, j):
    if not any(True for _ in enumerate_inkj(n, k, j)):
        return
    report = verify_cdes_involutions(n, k, j)
    assert report.extension_ok and report.equivariance_ok
    escherian = cyclic.classify_escherian(n, k, j) == "escherian"
    assert report.non_escher_ok == (not escherian)
    assert all(n % size == 0 for size in report.orbit_sizes)


@pytest.mark.parametrize("n,k,j", list(all_nkj(6)))
def test_cdes_axioms_syt(n, k, j):
    if not list(enumerate_syt_nkj(n, k, j)):
        return
    report = verify_cdes_syt(n, k, j)
    assert report.extension_ok and report.equivariance_ok
    escherian = cyclic.classify_escherian(n, k, j) == "escherian"
    assert report.non_escher_ok == (not escherian)
    assert all(n % size == 0 for size in report.orbit_sizes)


@pytest.mark.parametrize("n", range(1, 9))
def test_involutions_by_nesting(n):
    for k in range(n % 2, n + 1, 2):
        classes = cyclic._cr_ne_classes(n, k)[1]
        assert sorted(classes) == list(range((n - k) // 2 + 1))
        for j, words in classes.items():
            assert list(words) == [mm.to_involution(m) for m in enumerate_inkj(n, k, j)]


@pytest.mark.parametrize("n", range(1, 7))
def test_transport_shares_one_preimage(n):
    # cDes(x) and p(x) come from one preimage of x, so cDes(p(x)) is cDes(x)
    # shifted, and p keeps the class of x: k and the nesting number of an
    # involution, the shape class (odd columns, height // 2) of a tableau
    for k in range(n % 2, n + 1, 2):
        for m in mm.enumerate_matchings(n, k):
            w = mm.to_involution(m)
            cd, image = cyclic.transport_involution(w)
            assert cyclic.transport_involution(image)[0] == cd.shifted()
            assert len(perm.fixed_points(image)) == k
            assert mm.nesting_number(mm.from_involution(image)) == mm.nesting_number(m)
    for t in enumerate_syt_n(n):
        cd, image = cyclic.transport_syt(t)
        assert cyclic.transport_syt(image)[0] == cd.shifted()
        assert tableau.odd_cols(image.shape) == tableau.odd_cols(t.shape)
        assert tableau.height(image.shape) // 2 == tableau.height(t.shape) // 2


@pytest.mark.slow
def test_cdes_exhaustive_n10():
    n = 10
    for k in range(0, n + 1, 2):
        for j in range((n - k) // 2 + 1):
            non_escherian = cyclic.classify_escherian(n, k, j) == "non_escherian"
            reports = [verify_cdes_involutions(n, k, j)]
            if any(True for _ in enumerate_syt_nkj(n, k, j)):
                reports.append(verify_cdes_syt(n, k, j))
            for report in reports:
                assert report.extension_ok, report.set_id
                assert report.equivariance_ok, report.set_id
                assert report.non_escher_ok == non_escherian, report.set_id
                assert all(n % size == 0 for size in report.orbit_sizes), report.set_id
