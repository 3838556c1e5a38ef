import pytest

from matchdescents import bijection as bj
from matchdescents import matching as mm
from matchdescents import oscillating as osc
from matchdescents import perm, tableau


def involutions(n, k=None):
    for word in perm.enumerate_sn(n):
        if perm.is_involution(word) and (k is None or len(perm.fixed_points(word)) == k):
            yield word


def test_res():
    assert bj.res((4, 2, 6, 1, 5, 3)) == (frozenset({2, 5}), (3, 4, 1, 2))
    assert bj.res((1, 2, 3)) == (frozenset({1, 2, 3}), ())
    assert bj.res((2, 1)) == (frozenset(), (2, 1))
    with pytest.raises(ValueError):
        bj.res((2, 3, 1))


def test_emb():
    assert bj.emb(frozenset({2, 5}), (4, 3, 2, 1), 6).word == (4, 5, 3, 2, 6, 1)
    assert bj.emb(frozenset(), (2, 1, 4, 3), 4).word == (2, 1, 4, 3)
    assert bj.emb(frozenset({1, 2, 3}), (), 3).word == (1, 2, 3)
    with pytest.raises(ValueError):
        bj.emb(frozenset({1}), (2, 1), 4)


def test_emb_refuses_a_sigma_that_is_not_a_fixed_point_free_involution():
    for sigma in [(1, 2), (2, 2)]:  # fixed points; not a permutation
        with pytest.raises(ValueError, match="not a fixed-point-free involution"):
            bj.emb(frozenset({3}), sigma, 3)
    with pytest.raises(ValueError, match="not a fixed-point-free involution"):
        bj.emb(frozenset({4}), (2, 3, 1), 4)  # not an involution


def test_shuffle_element_validation():
    with pytest.raises(ValueError):
        bj.ShuffleElement((5, 6, 3, 2, 4, 1), 2)  # big letters 5,6 fine but core not fpf involution
    with pytest.raises(ValueError):
        bj.ShuffleElement((6, 5, 2, 1, 4, 3), 2)  # big letters decreasing
    t = bj.ShuffleElement((4, 5, 3, 2, 6, 1), 2)
    assert t.small_involution() == (4, 3, 2, 1)
    assert t.big_letter_positions() == frozenset({2, 5})


def test_phi():
    assert bj.phi((4, 2, 6, 1, 5, 3)).word == (4, 5, 3, 2, 6, 1)
    # on a fixed-point-free involution phi reduces to the crossing/nesting swap
    fpf = (3, 4, 1, 2)
    image = bj.phi(fpf)
    assert image.word == mm.to_involution(osc.chen_iota(mm.from_involution(fpf)))
    assert bj.phi((1, 2, 3)).word == (1, 2, 3)


def test_q_map():
    assert bj.q_map(bj.ShuffleElement((4, 5, 3, 2, 6, 1), 2)) == (1, 6, 4, 3, 5, 2)
    # involutions are fixed by q_map
    assert bj.q_map(bj.ShuffleElement((2, 1, 4, 3), 0)) == (2, 1, 4, 3)
    tau = bj.ShuffleElement((3, 5, 1, 7, 6, 8, 2, 4), 2)
    q = tableau.from_rows(((1, 2, 4, 6), (3, 5, 8), (7,)))
    assert bj.q_map(tau) == tableau.rs_inverse(q, q)


def test_iota_hat_paper_example():
    image = bj.iota_hat((4, 2, 6, 1, 5, 3))
    assert image == (1, 6, 4, 3, 5, 2)
    assert mm.mdes(mm.from_involution((4, 2, 6, 1, 5, 3))).members == frozenset({2, 3, 5})
    assert perm.des(image).members == frozenset({2, 3, 5})
    assert mm.crossing_number(mm.from_involution((4, 2, 6, 1, 5, 3))) == 2
    assert mm.nesting_number(mm.from_involution(image)) == 2
    assert bj.iota_hat(tuple(range(1, 6))) == tuple(range(1, 6))


def test_shuffle_cr_ne():
    assert bj.shuffle_cr_ne(bj.ShuffleElement((3, 4, 5, 1, 6, 2), 2)) == (2, 1)
    assert bj.shuffle_cr_ne(bj.ShuffleElement((2, 1, 4, 3), 0)) == (
        mm.crossing_number(mm.from_involution((2, 1, 4, 3))),
        mm.nesting_number(mm.from_involution((2, 1, 4, 3))),
    )
    assert bj.shuffle_cr_ne(bj.ShuffleElement((1, 2, 3), 3)) == (0, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_iota_hat_roundtrip_and_transport(n):
    for word in involutions(n):
        image = bj.iota_hat(word)
        assert perm.is_involution(image)
        assert len(perm.fixed_points(image)) == len(perm.fixed_points(word))
        assert bj.iota_hat_inverse(image) == word
        m = mm.from_involution(word)
        assert perm.des(image).members == mm.mdes(m).members
        assert mm.nesting_number(mm.from_involution(image)) == mm.crossing_number(m)


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_transport(n):
    for word in involutions(n):
        t = bj.phi(word)
        assert bj.phi_inverse(t) == word
        m = mm.from_involution(word)
        assert perm.des(t.word).members == mm.mdes(m).members
        cr, ne = bj.shuffle_cr_ne(t)
        assert (cr, ne) == (mm.nesting_number(m), mm.crossing_number(m))


@pytest.mark.parametrize("n", range(1, 9))
def test_q_inverse_shuffle_two_sided(n):
    # q_map and its inverse via the recording tableau agree on all shuffles
    for k in range(n % 2, n + 1, 2):
        smalls = [mm.to_involution(m) for m in mm.enumerate_matchings(n - k, 0)]
        for sigma in smalls:
            for word in perm.shuffle_sets([sigma], [tuple(range(n - k + 1, n + 1))]):
                t = bj.ShuffleElement(word, k)
                image = bj.q_map(t)
                assert bj.q_map_inverse(image).word == word


def test_h_map():
    t = bj.h_map((4, 2, 6, 1, 5, 3))
    assert t == tableau.rs_pair_q((1, 6, 4, 3, 5, 2))
    assert tableau.odd_cols(t.shape) == 2
    assert bj.h_map_inverse(t) == (4, 2, 6, 1, 5, 3)
    assert bj.h_map(tuple(range(1, 5))) == tableau.from_rows(((1, 2, 3, 4),))


def test_h_map_refuses_a_non_involution():
    with pytest.raises(ValueError, match=r"^not an involution: \(2, 3, 1\)$"):
        bj.h_map((2, 3, 1))


@pytest.mark.parametrize("public_map", [bj.iota_hat, bj.h_map])
def test_iota_hat_and_h_map_refuse_a_non_involution(public_map):
    for word in [(2, 3, 1), (1, 3, 4, 2), (2, 2)]:
        with pytest.raises(ValueError, match=r"^not an involution: "):
            public_map(word)


@pytest.mark.parametrize("public_map", [bj.res, bj.phi, bj.iota_hat, bj.h_map, bj.q_map_inverse, bj.iota_hat_inverse])
def test_public_maps_refuse_a_letter_above_the_length(public_map):
    # (3, 1) is no permutation of [2]; the involution test alone would index past its end
    with pytest.raises(ValueError, match=r"^not an involution: \(3, 1\)$"):
        public_map((3, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_h_map_bijection(n):
    for k in range(n % 2, n + 1, 2):
        domain = list(involutions(n, k))
        images = {bj.h_map(w) for w in domain}
        assert len(images) == len(domain)
        expected = set(tableau.enumerate_syt_nk(n, k))
        assert images == expected


def test_q_map_does_not_preserve_crossing():
    # the recording-tableau step preserves ne but not cr
    witnesses = []
    for sigma in (mm.to_involution(m) for m in mm.enumerate_matchings(4, 0)):
        for word in perm.shuffle_sets([sigma], [(5, 6)]):
            t = bj.ShuffleElement(word, 2)
            cr, ne = bj.shuffle_cr_ne(t)
            image = mm.from_involution(bj.q_map(t))
            assert mm.nesting_number(image) == ne
            if mm.crossing_number(image) != cr:
                witnesses.append(word)
    assert witnesses
