import json

import pytest

from matchdescents import bijection as bj
from matchdescents import cyclic
from matchdescents import matching as mm
from matchdescents import perm, tableau


def test_cdes_involution_examples():
    # ι̂ maps (1,4)(3,6) to [1,6,4,3,5,2], so the cyclic descents of the
    # image are the cyclic geometric descents of that matching
    expected = mm.cmdes(mm.matching(6, (1, 4), (3, 6))).members
    assert cyclic.cdes_involution((1, 6, 4, 3, 5, 2)).members == expected
    assert cyclic.cdes_involution(tuple(range(1, 6))).members == frozenset()
    assert cyclic.cdes_involution((2, 1)).members == frozenset({1, 2})
    with pytest.raises(ValueError):
        cyclic.cdes_involution((2, 3, 1))


def test_cdes_syt_examples():
    single_row = tableau.from_rows(((1, 2, 3, 4),))
    assert cyclic.cdes_syt(single_row).members == frozenset()
    single_col = tableau.from_rows(((1,), (2,), (3,), (4,)))
    assert cyclic.cdes_syt(single_col).members == frozenset({1, 2, 3, 4})
    # the single-column preimage is the maximal-crossing matching
    pre = mm.from_involution(bj.h_map_inverse(single_col))
    assert mm.crossing_number(pre) == 2


def test_p_map_small():
    # on I_{2,0} the rotation squares to the identity
    w = (2, 1)
    assert cyclic.p_map_involution(cyclic.p_map_involution(w)) == w
    # the identity involution is a fixed point of p
    assert cyclic.p_map_involution((1, 2)) == (1, 2)


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
    report = cyclic.verify_cdes_involutions(4, 2, 1)
    assert report.all_axioms_ok
    assert all(size in (1, 2, 4) for size in report.orbit_sizes)


def test_verify_cdes_i20_escherian():
    report = cyclic.verify_cdes_involutions(2, 0, 1)
    assert report.extension_ok and report.equivariance_ok
    assert not report.non_escher_ok
    assert report.escher_witnesses == [(2, 1)]
    assert cyclic.cdes_involution((2, 1)).members == frozenset({1, 2})


def test_s4_transpositions_fixture():
    words = list(cyclic.S4_TRANSPOSITIONS_CDES)
    report = cyclic.verify_cdes(
        words,
        perm.des,
        lambda w: perm.DescentSet(4, cyclic.S4_TRANSPOSITIONS_CDES[w], cyclic=True),
        lambda w: cyclic.S4_TRANSPOSITIONS_P[w],
        set_id="S4-transpositions",
    )
    assert report.all_axioms_ok
    assert sorted(report.orbit_sizes) == [2, 4]


def test_report_json():
    report = cyclic.verify_cdes_involutions(4, 2, 1)
    data = json.loads(report.to_json())
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
    if not any(True for _ in mm.enumerate_inkj(n, k, j)):
        return
    report = cyclic.verify_cdes_involutions(n, k, j)
    assert report.extension_ok and report.equivariance_ok
    escherian = cyclic.classify_escherian(n, k, j) == "escherian"
    assert report.non_escher_ok == (not escherian)
    assert all(n % size == 0 for size in report.orbit_sizes)


@pytest.mark.parametrize("n,k,j", list(all_nkj(6)))
def test_cdes_axioms_syt(n, k, j):
    if not list(tableau.enumerate_syt_nkj(n, k, j)):
        return
    report = cyclic.verify_cdes_syt(n, k, j)
    assert report.extension_ok and report.equivariance_ok
    escherian = cyclic.classify_escherian(n, k, j) == "escherian"
    assert report.non_escher_ok == (not escherian)
    assert all(n % size == 0 for size in report.orbit_sizes)


@pytest.mark.parametrize("n", range(1, 9))
def test_involutions_by_nesting(n):
    for k in range(n % 2, n + 1, 2):
        classes = cyclic.involutions_by_nesting(n, k)
        assert sorted(classes) == list(range((n - k) // 2 + 1))
        for j, words in classes.items():
            assert words == [mm.to_involution(m) for m in mm.enumerate_inkj(n, k, j)]


@pytest.mark.parametrize("n", range(1, 7))
def test_transport_shares_one_preimage(n):
    for k in range(n % 2, n + 1, 2):
        for m in mm.enumerate_matchings(n, k):
            w = mm.to_involution(m)
            assert cyclic.transport_involution(w) == (cyclic.cdes_involution(w), cyclic.p_map_involution(w))
    for t in tableau.enumerate_syt_n(n):
        assert cyclic.transport_syt(t) == (cyclic.cdes_syt(t), cyclic.p_map_syt(t))


@pytest.mark.slow
def test_cdes_exhaustive_n10():
    n = 10
    for k in range(0, n + 1, 2):
        classes = cyclic.involutions_by_nesting(n, k)
        for j in range((n - k) // 2 + 1):
            non_escherian = cyclic.classify_escherian(n, k, j) == "non_escherian"
            reports = [cyclic.verify_cdes_involutions(n, k, j, classes[j])]
            if any(True for _ in tableau.enumerate_syt_nkj(n, k, j)):
                reports.append(cyclic.verify_cdes_syt(n, k, j))
            for report in reports:
                assert report.extension_ok, report.set_id
                assert report.equivariance_ok, report.set_id
                assert report.non_escher_ok == non_escherian, report.set_id
                assert all(n % size == 0 for size in report.orbit_sizes), report.set_id
