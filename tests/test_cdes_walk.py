"""
The forward walk of ``verify cdes``/``cdes-syt`` against the per-element
verifier: ``oracles.verify_cdes`` with one ``transport_involution``
(``transport_syt``) per element, which runs ι̂⁻¹ (H⁻¹) and then ι̂ (H).

The walk reads p(ι̂ m) = ι̂(rot m) off the class of M_{n,k} with crossing
number j.  It rests on rotation keeping cr and on its own check that ι̂
maps that class onto the class it reports on; both are tested here.
"""
import pytest

from matchdescents import bijection as bj
from matchdescents import cli, cyclic
from matchdescents import matching as mm
from matchdescents import oscillating as osc
from matchdescents import perm, tableau

from oracles import (
    _inkj_words,
    enumerate_syt_nkj,
    oracle_cr_ne,
    oracle_words,
    verify_cdes,
    verify_cdes_involutions,
    verify_cdes_syt,
)


def classes(n):
    for k in range(n % 2, n + 1, 2):
        for j in range((n - k) // 2 + 1):
            yield k, j


def oracle_involutions(n, k, j):
    elements = _inkj_words(n, k, j)
    return verify_cdes(elements, perm.des, cyclic.transport_involution, f"I_{{{n},{k},{j}}}")


def oracle_syt(n, k, j):
    elements = enumerate_syt_nkj(n, k, j)
    return verify_cdes(elements, tableau.des, cyclic.transport_syt, f"SYT_{{{n},{k},{j}}}")


@pytest.mark.parametrize("n", [*range(10), pytest.param(10, marks=pytest.mark.slow)])
def test_walk_matches_per_element_verifier(n):
    for k, j in classes(n):
        for walked, oracle in [
            (verify_cdes_involutions(n, k, j), oracle_involutions(n, k, j)),
            (verify_cdes_syt(n, k, j), oracle_syt(n, k, j)),
        ]:
            assert walked.to_dict() == oracle.to_dict()
            assert walked == oracle  # witnesses as objects, orbits in the class's order


@pytest.mark.parametrize("n", range(11))
def test_rotation_keeps_the_crossing_number(n):
    for k in range(n % 2, n + 1, 2):
        for word in oracle_words(n, k):
            assert oracle_cr_ne(mm._rotate(word))[0] == oracle_cr_ne(word)[0]


def test_walk_runs_iota_once_per_core(monkeypatch):
    # I_{9,3,1} is 420 involutions: C(9, 3) fixed-point sets times the 5 perfect
    # matchings of 6 points with cr = 1, so the walk's table runs ι 5 times
    cores = []

    def counting_iota(word):
        cores.append(word)
        return iota(word)

    iota = osc._iota
    monkeypatch.setattr(osc, "_iota", counting_iota)
    report = verify_cdes_involutions(9, 3, 1)
    assert sum(report.orbit_sizes) == 420
    assert len(cores) == len(set(cores)) == 5


def test_walk_refuses_a_map_that_is_not_onto_the_class(monkeypatch):
    # the identity is injective, but it keeps the noncrossing perfect
    # matchings of 6 points, which are not the nonnesting ones
    monkeypatch.setattr(bj, "_iota_hat", lambda word, iota=None: word)
    with pytest.raises(ValueError, match="not a bijection"):
        verify_cdes_involutions(6, 0, 1)


def test_walk_refuses_a_rotation_that_leaves_the_crossing_class(monkeypatch):
    # the identity word has cr = 0, outside the class cr = 1 of M_{6,0}
    monkeypatch.setattr(mm, "_rotate", lambda word: tuple(range(1, len(word) + 1)))
    with pytest.raises(ValueError, match="rotation leaves the crossing class"):
        verify_cdes_involutions(6, 0, 1)


def test_verify_cdes_exits_3_when_iota_hat_is_not_injective(capsys, monkeypatch):
    monkeypatch.setattr(bj, "_iota_hat", lambda word, iota=None: tuple(sorted(word)))  # every word to the identity
    code = cli.main(["verify", "cdes", "--n", "6"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "internal error" in err and "not a bijection" in err


@pytest.mark.parametrize(
    "module, attr, stand_in, flags, message",
    [
        # every tableau to the one-row tableau: not onto the class
        (bj, "_h_rows", lambda word, table=None: [list(range(1, len(word) + 1))], ["--n", "6"], "not a bijection"),
        # the identity word has cr = 0, outside the class cr = 1 of M_{6,0}
        (mm, "_rotate", lambda word: tuple(range(1, len(word) + 1)), ["--n", "6", "--k", "0", "--j", "1"],
         "rotation leaves the crossing class"),
    ],
)
def test_verify_cdes_syt_exits_3_when_the_walk_refuses(capsys, monkeypatch, module, attr, stand_in, flags, message):
    monkeypatch.setattr(module, attr, stand_in)
    code = cli.main(["verify", "cdes-syt", *flags])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("internal error: verify cdes-syt ")
    assert message in err.splitlines()[0]


def oracle_orbit_rows(n, k, j):
    """The rows of ``orbits`` from one ``transport_involution`` (ι̂⁻¹, then ι̂)
    per element."""
    elements = list(oracle_words(n, k) if j is None else _inkj_words(n, k, j))
    transported = {w: cyclic.transport_involution(w) for w in elements}
    return [
        [orbit_id, len(orbit), perm.format_cycles(w), "{" + ",".join(map(str, sorted(transported[w][0].members))) + "}"]
        for orbit_id, orbit in enumerate(cyclic.orbits(elements, lambda w: transported[w][1]))
        for w in orbit
    ]


@pytest.mark.parametrize("n", range(10))
def test_orbits_walk_matches_per_element_transport(capsys, n):
    for k, j in [*classes(n), *((k, None) for k in range(n % 2, n + 1, 2))]:
        flags = ["--n", str(n), "--k", str(k)] + ([] if j is None else ["--j", str(j)])
        assert cli.main(["orbits", *flags, "--format", "csv"]) == 0
        walked = capsys.readouterr().out
        with cli._row_sink(["orbit", "size", "element", "cdes"], "csv", None) as push:
            for row in oracle_orbit_rows(n, k, j):
                push(row)
        assert walked == capsys.readouterr().out
