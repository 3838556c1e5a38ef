import argparse
import csv
import errno
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import matchdescents
from matchdescents import bijection as bj
from matchdescents import cli, cyclic, perm, symfun, tableau
from matchdescents import matching as mm
from matchdescents import oscillating as osc

from oracles import (
    _inkj_words,
    enumerate_syt_n,
    enumerate_syt_nkj,
    oracle_class_sides,
    oracle_cr_ne,
    oracle_main0_sides,
    oracle_words,
    per_word_stats,
    verify_cdes,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_matching(capsys):
    code, out, _ = run(capsys, "stats", "--matching", "1-6,3-4,5-7", "--n", "8", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["MDes"] == [2, 3, 5, 6]
    assert record["Des"] == [1, 3, 5]
    assert record["cMDes"] == [2, 3, 5, 6, 8]
    assert record["cr"] == 2 and record["ne"] == 2 and record["um"] == 2


def test_stats_perm(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "[1,2,3]")
    assert code == 0
    assert "Des={}" in out


def test_stats_syt(capsys):
    code, out, _ = run(capsys, "stats", "--syt", "1,3,5,9/2,4,6/7,8", "--format", "json")
    assert code == 0
    assert json.loads(out)["Des"] == [1, 3, 5, 6]


@pytest.mark.parametrize("n", range(6))
def test_enum_syt_tableaux_round_trip_through_stats(capsys, n):
    # the empty tableau of n = 0 included, which enum lists as the blank text
    code, out, _ = run(capsys, "enum", "syt", "--n", str(n), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(list(enumerate_syt_n(n)))
    for row in rows:
        code, out, err = run(capsys, "stats", "--syt", row["tableau"], "--format", "json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["object"] == row["tableau"]
        assert perm.format_set(record["Des"]) == row["des"]


def test_map_iota_hat_cycles(capsys):
    code, out, _ = run(capsys, "map", "iota-hat", "(1,4)(3,6)", "--n", "6")
    assert code == 0
    assert out.strip() == "(2,6)(3,4)"


def test_map_roundtrip_preserves_codec(capsys):
    code, out, _ = run(capsys, "map", "iota-hat", "[4,2,6,1,5,3]")
    assert code == 0
    assert out.strip() == "[1,6,4,3,5,2]"
    code, out, _ = run(capsys, "map", "iota-hat-inv", "[1,6,4,3,5,2]")
    assert code == 0
    assert out.strip() == "[4,2,6,1,5,3]"


def test_map_sundaram(capsys):
    code, out, _ = run(capsys, "map", "sundaram", "(1,5)(2,4)(3,8)(6,7)", "--n", "8")
    assert code == 0
    assert out.strip() == "-;1;1,1;2,1;2;1;1,1;1;-"
    # a leading '-' in the codec needs the end-of-options marker
    code, out, _ = run(capsys, "map", "sundaram-inv", "--", out.strip())
    assert code == 0
    assert out.strip() == "(1,5)(2,4)(3,8)(6,7)"


def test_map_rotate(capsys):
    code, out, _ = run(capsys, "map", "rotate", "1-6,3-4,5-7", "--n", "8")
    assert code == 0
    assert out.strip() == "2-7,4-5,6-8"


def test_map_p_refuses_a_non_involution(capsys):
    assert run(capsys, "map", "p", "[2,3,1]") == (2, "", "error: not an involution: (2, 3, 1)\n")


def test_stats_refuses_bad_tableau_text(capsys):
    assert run(capsys, "stats", "--syt", "1,x") == (2, "", "error: bad tableau text: '1,x'\n")


@pytest.mark.parametrize("text", ["1-1", "1-2,3-3"])
def test_stats_refuses_a_degenerate_arc(capsys, text):
    assert run(capsys, "stats", "--matching", text, "--n", "4") == (2, "", "error: degenerate arc\n")


def _q_of_the_one_split(word):
    """q of the shuffle element that ``word`` is, trying every split k:
    a word is a valid shuffle for at most one k."""
    elements = []
    for k in range(len(word) + 1):
        try:
            elements.append(bj.ShuffleElement(word, k))
        except ValueError:
            pass
    if not elements:
        raise ValueError(f"no split k for {word}")
    (element,) = elements
    return bj.q_map(element)


# The library call behind each map name.  A word result prints in the
# codec of the input; any other result is the text itself.
MAP_CALLS = {
    "iota": lambda w: mm.to_involution(osc.chen_iota(mm.from_involution(w))),
    "iota-hat": bj.iota_hat,
    "iota-hat-inv": bj.iota_hat_inverse,
    "sundaram": lambda w: osc.format_oscillating(osc.sundaram(w)),
    "sundaram-inv": lambda o: perm.format_cycles(osc.sundaram_inverse(o)),
    "transpose": lambda o: osc.format_oscillating(osc.transpose(o)),
    "phi": lambda w: perm.format_one_line(bj.phi(w).word),
    "q": _q_of_the_one_split,
    "rotate": lambda w: mm.to_involution(mm.rotate(mm.from_involution(w))),
    "p": lambda w: cyclic.transport_involution(w)[1],
    "h": lambda w: tableau.format_tableau(bj.h_map(w)),
}
WALK_MAPS = ("sundaram-inv", "transpose")  # these parse their object as an oscillating tableau


@pytest.mark.parametrize("name", MAP_CALLS)
def test_map_matches_the_library(capsys, name):
    involutions = [
        w
        for n in range(7)
        for w in itertools.permutations(range(1, n + 1))
        if all(w[v - 1] == i for i, v in enumerate(w, start=1))
    ]
    assert len(involutions) == 1 + 1 + 2 + 4 + 10 + 26 + 76
    cases = [(perm.format_one_line(w), (), w, perm.format_one_line) for w in involutions]
    cases += [(perm.format_cycles(w), ("--n", str(len(w))), w, perm.format_cycles) for w in involutions]
    if name in WALK_MAPS:
        cases.append(("-;1;1,1;2,1;2;1;1,1;1;-", (), None, None))
    for text, flags, word, codec in cases:
        try:
            result = MAP_CALLS[name](osc.parse_oscillating(text) if name in WALK_MAPS else word)
            expected = (0, (result if isinstance(result, str) else codec(result)) + "\n")
        except ValueError:
            expected = (2, "")
        code, out, err = run(capsys, "map", name, *flags, "--", text)
        assert (code, out) == expected, (name, text)
        assert code == 0 or err.startswith("error: "), (name, text)


def _source_env():
    """The environment of a child Python that imports this source tree."""
    src = str(Path(matchdescents.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli():
    # the package runs as a module from a source tree, where no console script is installed
    done = subprocess.run(
        [sys.executable, "-m", "matchdescents", "verify", "main0", "--n", "4"],
        capture_output=True,
        text=True,
        env=_source_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True


def test_start_up_imports_no_code_introspection():
    # dataclasses loads inspect, ast, dis and tokenize, and its decorators
    # generate code at import: together about a quarter of the CLI's
    # start-up, which the plain record classes of perm._Record avoid; enum and
    # orbits render their own csv lines, so csv is not loaded either; the
    # annotations' names come from collections.abc, so typing is not loaded.
    # -S keeps site's own start-up hooks, which may load any of these, out of it
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "typing")
    probe = f"import sys; from matchdescents import cli; cli.build_parser(); print([m for m in {heavy} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=_source_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


_FAILING_KIM = (
    "-c",
    "import sys; from matchdescents import cli, symfun; symfun._kim_holds = lambda *stats: False; "
    "sys.exit(cli.main(['verify', 'kim', '--n', '4']))",
)


@pytest.mark.parametrize(
    "argv, lines, expected",
    [
        # about 600 kB of rows, far past a pipe's buffer, after the reader takes one line
        (("-m", "matchdescents", "enum", "matchings", "--n", "12", "--k", "0", "--format", "csv"), 1, 0),
        (("-m", "matchdescents", "orbits", "--n", "9", "--k", "1", "--format", "csv"), 1, 0),
        (("-m", "matchdescents", "stats", "--matching", "1-2", "--n", "4"), 0, 0),
        (("-m", "matchdescents", "map", "iota-hat", "1-2", "--n", "4"), 0, 0),
        (("-m", "matchdescents", "verify", "main0", "--n", "4"), 0, 0),
        (_FAILING_KIM, 0, 1),  # a failed identity keeps its verdict
    ],
    ids=["enum", "orbits", "stats", "map", "verify", "verify-failing"],
)
def test_a_closed_stdout_ends_the_command_quietly(argv, lines, expected):
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env()
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == expected
    assert err == b""


@pytest.mark.parametrize("argv", [("stats", "--matching", "1-2"), ("stats", "--cycles", "(1,2)"), ("map", "p", "1-2")])
def test_stats_and_map_refuse_a_huge_n(capsys, argv):
    # refused before any word is built: the 20-digit n overflowed list() before
    for n in ("99999999999999999999", str(cli.MAX_OBJECT_N + 1)):
        code, out, err = run(capsys, *argv, "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: n={n} exceeds the guard ({cli.MAX_OBJECT_N})\n"
    code, out, err = run(capsys, *argv, "--n", str(cli.MAX_OBJECT_N))
    assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "--matching", "", "--n", "-3"),
        ("stats", "--matching", "", "--n", "-5"),
        ("stats", "--matching", "", "--n", "-3", "--format", "json"),
        ("stats", "--cycles", "()", "--n", "-2"),
        ("map", "rotate", "", "--n", "-1"),
    ],
)
def test_stats_and_map_refuse_a_negative_n(capsys, argv):
    # these answered as if for a matching on n (or 0) points, with exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    n = argv[argv.index("--n") + 1]
    assert err == f"error: invalid n = {n}\n"


@pytest.mark.parametrize(
    "argv, conflict",
    [
        (
            ("stats", "--perm", "[2,1,3]", "--matching", "1-3", "--n", "3"),
            "argument --matching: not allowed with argument --perm",
        ),
        (
            ("stats", "--cycles", "(1,2)", "--syt", "1,2/3", "--n", "3"),
            "argument --syt: not allowed with argument --cycles",
        ),
        (("stats", "--n", "3"), "one of the arguments --perm --matching --syt --cycles is required"),
    ],
)
def test_stats_takes_exactly_one_object(capsys, argv, conflict):
    # the first two answered for one of the objects, with exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {conflict}\n")


@pytest.mark.parametrize(
    "argv, what, size",
    [
        (("stats", "--perm", "[2,1,3]"), "the length of the word", 3),
        (("map", "rotate", "[2,1,3]"), "the length of the word", 3),
        (("stats", "--syt", "1,2/3"), "the size of the tableau", 3),
        (("map", "transpose", "--", "-;1;-"), "the length of the oscillating tableau", 2),
    ],
)
def test_stats_and_map_refuse_an_n_that_differs_from_the_object(capsys, argv, what, size):
    # these answered for the object's own size, with exit 0
    verb, *rest = argv
    for n in (size + 4, size - 1):
        expected = (2, "", f"error: n={n} disagrees with {what} ({size})\n")
        assert run(capsys, verb, "--n", str(n), *rest) == expected
    code, out, err = run(capsys, verb, "--n", str(size), *rest)
    assert code == 0 and out and err == ""
    assert run(capsys, *argv) == (0, out, "")


def _size_flags():
    """(id, argv for a value of the size flag, flag, bound, whether the command
    takes --force, the smallest value over the bound that its flags allow)."""
    bound = cli.MAX_OBJECT_N
    yield "stats", lambda v: ("stats", "--matching", "", "--n", str(v)), "n", bound, False, bound + 1
    yield "map", lambda v: ("map", "rotate", "", "--n", str(v)), "n", bound, False, bound + 1
    bound = cli.MAX_ENUM_N
    for family in ("matchings", "involutions"):
        yield f"enum-{family}", lambda v, family=family: ("enum", family, "--n", str(v), "--k", str(v)), "n", bound, False, bound + 1
    yield "enum-syt", lambda v: ("enum", "syt", "--n", str(v)), "n", bound, False, bound + 1
    bound = symfun.REGISTRY["cdes"].guard[1]
    yield "orbits", lambda v: ("orbits", "--n", str(v), "--k", str(v)), "n", bound, True, bound + 1
    for name, entry in symfun.REGISTRY.items():
        flag, bound = entry.guard
        over = bound + 1 + (entry.perfect and bound % 2 == 0)  # a perfect matching has an even n
        yield f"verify-{name}", lambda v, name=name, flag=flag: ("verify", name, f"--{flag}", str(v)), flag, bound, True, over


def _stub_the_work(monkeypatch):
    """Replace what each command runs after its checks by a stand-in that
    records its call; return the list of calls."""
    ran = []
    monkeypatch.setattr(cli, "_matching_stats", lambda word: ran.append(len(word)) or {})
    monkeypatch.setitem(cli.MAPS, "rotate", (False, lambda w, codec: ran.append(len(w)) or "rotated"))
    monkeypatch.setitem(cli.MAPS, "transpose", (True, lambda o, codec: ran.append(o.size) or "transposed"))
    monkeypatch.setattr(cyclic, "_cr_ne_classes", lambda n, k: ran.append(n) or ({}, {}))
    monkeypatch.setattr(mm, "_stat_counts", lambda n, k, fold, **bounds: ran.append(n))
    # the shapes of enum syt without --k, which _syt_shapes takes from partitions past its own refusals
    monkeypatch.setattr(tableau, "partitions", lambda n: ran.append(n) or iter(()))
    monkeypatch.setattr(symfun, "run_identity", lambda name, params: ran.append(params) or symfun.VerifyResult(name, params, True))
    return ran


@pytest.mark.parametrize("case", list(_size_flags()), ids=lambda case: case[0])
def test_every_size_flag_is_refused_past_its_bound_and_nowhere_else(capsys, monkeypatch, case):
    _, argv, flag, bound, takes_force, over = case
    ran = _stub_the_work(monkeypatch)
    for force in ((), ("--force",)) if takes_force else ((),):
        hint = "; pass --force to run anyway" if takes_force else ""
        code, out, err = run(capsys, *argv(-1), *force)
        assert (code, out, ran) == (2, "", []) and err.startswith("error: ")
        expected = (0, "") if force else (2, f"error: {flag}={over} exceeds the guard ({bound}){hint}\n")
        code, out, err = run(capsys, *argv(over), *force)
        assert (code, err) == expected and len(ran) == bool(force)
        ran.clear()
        code, out, err = run(capsys, *argv(bound), *force)
        assert code == 0 and out and err == "" and len(ran) == 1
        ran.clear()
    if not takes_force:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv(bound), "--force"])
        assert exc.value.code == 2 and capsys.readouterr().out == "" and ran == []


@pytest.mark.parametrize(
    "argv, over",
    [
        (lambda size: ("stats", "--perm", perm.format_one_line(perm.identity(size))), cli.MAX_OBJECT_N + 1),
        (lambda size: ("map", "rotate", perm.format_one_line(perm.identity(size))), cli.MAX_OBJECT_N + 1),
        (lambda size: ("stats", "--syt", ",".join(map(str, range(1, size + 1)))), cli.MAX_OBJECT_N + 1),
        # an oscillating tableau has an even length
        (lambda size: ("map", "transpose", "--", "-" + ";1;-" * (size // 2)), cli.MAX_OBJECT_N + 2),
    ],
    ids=["stats-one-line", "map-one-line", "stats-tableau", "map-oscillating"],
)
def test_an_object_over_the_guard_is_refused_without_n(capsys, monkeypatch, argv, over):
    # these answered, however large the object, when no --n was given
    ran = _stub_the_work(monkeypatch)
    assert run(capsys, *argv(over)) == (2, "", f"error: n={over} exceeds the guard ({cli.MAX_OBJECT_N})\n")
    code, out, err = run(capsys, *argv(cli.MAX_OBJECT_N))
    assert code == 0 and out and err == ""
    assert ran in ([], [cli.MAX_OBJECT_N])  # stats --syt runs no stand-in


def test_verify_takes_the_flags_of_the_registry():
    # every integer option of the verify subparser is a registry flag, in first-seen order
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [a.option_strings for a in subparsers.choices["verify"]._actions if a.type is int]
    flags = dict.fromkeys(flag for entry in symfun.REGISTRY.values() for flag in entry.flags)
    assert options == [[f"--{flag}"] for flag in flags]
    assert list(flags) == ["n", "k", "j", "max"]


def test_enum_matchings_csv(capsys):
    code, out, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matching,n,k,des,mdes,cmdes,cr,ne,um"
    assert len(lines) == 4  # header + 3 rows
    # byte-stable output
    code2, out2, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0", "--format", "csv")
    assert out2 == out


def test_enum_syt_count(capsys):
    code, out, _ = run(capsys, "enum", "syt", "--n", "4", "--k", "4", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + the single row


def test_enum_syt_k_builds_only_the_shapes_that_fit(capsys):
    # the one shape (500,) of SYT_{500,500}: a filter over the partitions of 500 never ends
    code, out, err = run(capsys, "enum", "syt", "--n", "500", "--k", "500", "--format", "csv")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == "tableau,shape,height,odd_cols,des"
    assert row == '"' + ",".join(map(str, range(1, 501))) + '",500,1,500,{}'


def test_enum_involutions_filter(capsys):
    code, out, _ = run(capsys, "enum", "involutions", "--n", "6", "--k", "2", "--j", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    assert all(row["ne"] == 1 and row["um"] == 2 for row in rows)


@pytest.mark.parametrize("family", ["matchings", "involutions"])
def test_enum_honours_j(capsys, family):
    # M_{6,0} has 15 matchings, 5 of them with nesting number 1
    code, out, _ = run(capsys, "enum", family, "--n", "6", "--k", "0", "--j", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5 and all(row["ne"] == 1 and row["um"] == 0 for row in rows)
    code, out, err = run(capsys, "enum", family, "--n", "6", "--k", "0", "--j", "9")
    assert code == 2 and out == "" and "invalid j" in err


def test_enum_syt_j_without_k(capsys):
    code, out, err = run(capsys, "enum", "syt", "--n", "6", "--j", "1")
    assert code == 2 and out == "" and "requires --k" in err


def test_enum_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0",
                       "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0].startswith("matching,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("syt", "--n", "6", "--k", "2", "--j", "9"), "invalid"),
        (("syt", "--n", "5", "--k", "2"), "invalid"),
        (("syt", "--n", "5", "--k", "7"), "invalid"),
        (("matchings", "--n", "6", "--k", "0", "--j", "9"), "invalid j"),
        (("involutions", "--n", "5", "--k", "2"), "invalid"),
        (("matchings", "--n", "6"), "requires --k"),
        (("syt", "--n", "-2"), "invalid n = -2"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_enum_refuses_before_writing(capsys, tmp_path, argv, message, fmt):
    code, out, err = run(capsys, "enum", *argv, "--format", fmt)
    assert code == 2 and out == "" and message in err
    target = tmp_path / "rows.csv"
    code, out, err = run(capsys, "enum", *argv, "--format", fmt, "--output", str(target))
    assert code == 2 and out == "" and message in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [("enum", "matchings", "--k", "0"), ("enum", "involutions", "--k", "0"), ("enum", "syt"), ("orbits", "--k", "0")],
)
@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_unwritable_output_is_refused(capsys, tmp_path, argv, fmt):
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):  # no such directory; a directory
        code, out, err = run(capsys, *argv, "--n", "4", "--format", fmt, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --output {target}: ") and err.count("\n") == 1


_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, the device whose writes fail")


@_DEV_FULL
@pytest.mark.parametrize(
    "argv", [("enum", "syt", "--n", "3", "--format", "csv"), ("orbits", "--n", "4", "--k", "0")], ids=["enum", "orbits"]
)
def test_a_failed_write_to_output_is_refused(capsys, argv):
    # the file opens, and the write fails: exit 2 with one line, as when it cannot be opened
    code, out, err = run(capsys, *argv, "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --output /dev/full: {os.strerror(errno.ENOSPC)}\n"


@_DEV_FULL
@pytest.mark.parametrize(
    "argv",
    [("verify", "main0", "--n", "4"), ("stats", "--perm", "[2,1]"), ("enum", "syt", "--n", "3", "--format", "csv")],
    ids=["verify", "stats", "enum"],
)
def test_a_failed_write_to_stdout_is_refused(argv):
    # stdout buffered, as a user gets it, so that the rejected bytes wait for the flush at exit
    env = {name: value for name, value in _source_env().items() if name != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "matchdescents", *argv], stdout=full, stderr=subprocess.PIPE, text=True,
            env=env, timeout=60,
        )
    assert (done.returncode, done.stderr) == (2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@_DEV_FULL
@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_a_full_output_keeps_the_internal_error_of_the_walk(capsys, monkeypatch, fmt):
    # csv flushes its header before the walk, so it is refused unwalked; json and plain
    # have written nothing when the walk fails, so closing the output cannot hide it
    walked = []
    monkeypatch.setattr(bj, "_iota_hat", lambda word, iota=None: walked.append(word) or word)  # a broken ι̂
    argv = ("orbits", "--n", "6", "--k", "0", "--j", "1", "--format", fmt, "--output", "/dev/full")
    code, out, err = run(capsys, *argv)
    if fmt == "csv":
        assert (code, out, walked) == (2, "", [])
        assert err == f"error: cannot write --output /dev/full: {os.strerror(errno.ENOSPC)}\n"
    else:
        assert (code, out) == (3, "") and walked
        assert err.startswith('internal error: orbits {"n": 6, "k": 0, "j": 1}: ValueError: p is not a bijection')


@pytest.mark.parametrize("j", [None, 1])
def test_orbits_refuses_unwritable_output_before_the_walk(capsys, monkeypatch, tmp_path, j):
    walked = []
    monkeypatch.setattr(cyclic, "_class_table", lambda *args: walked.append(args))
    flags = ["--n", "6", "--k", "0"] + ([] if j is None else ["--j", str(j)])
    code, out, err = run(capsys, "orbits", *flags, "--output", str(tmp_path / "missing" / "rows.csv"))
    assert code == 2 and out == "" and err.startswith("error: cannot write --output ")
    assert walked == []


@pytest.mark.parametrize("family", ["syt", "matchings"])
def test_enum_json_empty_class_writes_nothing(capsys, tmp_path, family):
    # I_{4,0,0} and the tableaux with 0 odd columns and height <= 1 of size 4 are empty
    argv = ("enum", family, "--n", "4", "--k", "0", "--j", "0", "--format", "json")
    assert run(capsys, *argv) == (0, "", "")
    target = tmp_path / "rows.json"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == b""


def test_orbits_guard(capsys, monkeypatch):
    started = []

    def stand_in(word, iota=None):
        started.append(word)
        raise RuntimeError("transport started")

    monkeypatch.setattr(bj, "_iota_hat", stand_in)  # the walk's first kernel call on a word
    code, out, err = run(capsys, "orbits", "--n", "13", "--k", "13")
    assert code == 2 and out == "" and "exceeds the guard" in err and "--force" in err
    assert started == []
    code, out, err = run(capsys, "orbits", "--n", "13", "--k", "13", "--force")
    assert code == 3 and out == "" and "RuntimeError: transport started" in err
    assert started == [tuple(range(1, 14))]


@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_orbits_internal_error_exits_3(capsys, monkeypatch, fmt):
    monkeypatch.setattr(bj, "_iota_hat", lambda word, iota=None: word)  # a broken ι̂
    code, out, err = run(capsys, "orbits", "--n", "6", "--k", "0", "--j", "1", "--format", fmt)
    assert code == 3
    assert out == ("orbit,size,element,cdes\n" if fmt == "csv" else "")  # csv writes its header first
    assert err.startswith('internal error: orbits {"n": 6, "k": 0, "j": 1}: ValueError: p is not a bijection')
    for bad in (("--j", "4"), ("--k", "1"), ("--n", "-1")):
        flags = {"--n": "6", "--k": "0", "--j": "1", **dict([bad])}
        code, out, err = run(capsys, "orbits", *itertools.chain(*flags.items()))
        assert code == 2 and out == "" and err.startswith("error: invalid")


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert sum(1 for _ in rows) == 6
    assert all(4 % row["size"] == 0 for row in rows)
    code, out, _ = run(capsys, "orbits", "--n", "2", "--k", "2", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1 and rows[0]["size"] == 1
    code, out, _ = run(capsys, "orbits", "--n", "4", "--k", "0", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(row["cdes"] == "{1,2,3,4}" for row in rows)


def test_verify_main11(capsys):
    code, out, _ = run(capsys, "verify", "main11", "--n", "8", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["identity"] == "main11"
    assert "elapsed_ms" in report and "counts" in report


def test_verify_cdes_escherian(capsys):
    code, out, _ = run(capsys, "verify", "cdes", "--n", "6", "--k", "0", "--j", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["classification"] == "escherian"


def test_verify_gessel(capsys):
    code, out, _ = run(capsys, "verify", "gessel", "--max", "6")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "main0", "--n", "13")
    assert code == 2
    assert "force" in err


def test_verify_gessel_max_guard(capsys, monkeypatch):
    started = []

    def stand_in(max_total):
        started.append(max_total)
        return cli.symfun.VerifyResult("gessel", {"max": max_total}, True)

    monkeypatch.setattr(cli.symfun, "verify_gessel_all", stand_in)
    code, _, err = run(capsys, "verify", "gessel", "--max", "10")
    assert code == 2 and "force" in err
    assert started == []
    code, _, _ = run(capsys, "verify", "gessel", "--max", "10", "--force")
    assert code == 0 and started == [10]


@pytest.mark.parametrize(
    "name, flag, argv",
    [
        ("main0", "n", lambda v: ("verify", "main0", "--n", v)),
        ("gessel", "max", lambda v: ("verify", "gessel", "--max", v)),
        ("cdes", "n", lambda v: ("orbits", "--n", v, "--k", v)),
    ],
    ids=["verify-main0", "verify-gessel", "orbits"],
)
def test_verify_and_orbits_honour_the_entrys_guard(capsys, monkeypatch, name, flag, argv):
    # the guard is the registry entry's, and orbits takes cdes's
    entry = symfun.REGISTRY[name]
    monkeypatch.setitem(symfun.REGISTRY, name, symfun.Identity(**{**vars(entry), "guard": (flag, 5)}))
    expected = (2, "", f"error: {flag}=6 exceeds the guard (5); pass --force to run anyway\n")
    assert run(capsys, *argv("6")) == expected
    for ran in (argv("5"), (*argv("6"), "--force")):
        code, out, err = run(capsys, *ran)
        assert code == 0 and out and err == ""


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "stats", "--perm", "[1,2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "map", "iota-hat", "(1,2)(2,3)", "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "map", "iota-hat", "(1,2)")
    assert code == 2  # cycles without --n
    code, _, err = run(capsys, "stats", "--matching", "1-6", "--n", "3")
    assert code == 2  # endpoint out of range


@pytest.mark.parametrize("identity", ["main11", "main111"])
def test_verify_main11_all_k_counts_add_up(capsys, identity):
    # without --k every class M_{9,k} is checked; 2620 = |I_9|
    code, out, _ = run(capsys, "verify", identity, "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"matchings": 2620}


def test_verify_cdes_all_classes(capsys):
    code, out, _ = run(capsys, "verify", "cdes", "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"classes_checked": 10}
    code, _, err = run(capsys, "verify", "cdes", "--n", "6", "--k", "0", "--j", "4")
    assert code == 2 and "invalid" in err


@pytest.mark.parametrize(
    "argv, per_class",
    [
        (("main11", "--n", "9"), {k: {"matchings": mm.count_matchings(9, k)} for k in (1, 3, 5, 7, 9)}),
        (("main111", "--n", "9"), {k: {"matchings": mm.count_matchings(9, k)} for k in (1, 3, 5, 7, 9)}),
        (("cdes", "--n", "6"), {k: {"classes_checked": (6 - k) // 2 + 1} for k in (0, 2, 4, 6)}),
        (("cdes-syt", "--n", "6", "--j", "1"), {k: {"classes_checked": 1} for k in (0, 2, 4)}),
    ],
)
def test_verify_reports_per_class_counts_that_add_up(capsys, argv, per_class):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == {str(k): counts for k, counts in per_class.items()}
    (key,) = report["counts"]
    assert report["counts"][key] == sum(counts[key] for counts in per_class.values())
    code, out, _ = run(capsys, "verify", *argv, "--k", str(min(per_class)))
    assert "classes" not in json.loads(out)


@pytest.mark.slow
def test_verify_main11_exhaustive_n12(capsys):
    # 140,152 = |I_12|, summed over every class M_{12,k}
    code, out, _ = run(capsys, "verify", "main11", "--n", "12")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"matchings": 140152}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("main0", "--n", "5", "--k", "3"), "--k"),
        (("main11", "--n", "5", "--j", "1"), "--j"),
        (("gessel", "--n", "4"), "--n"),
        (("cdes", "--n", "4", "--max", "3"), "--max"),
        (("roby", "--n", "4", "--k", "0"), "--k"),
    ],
)
def test_verify_refuses_flags_the_identity_ignores(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"does not take {flag}" in err


@pytest.mark.parametrize(
    "argv, params",
    [
        (("main0", "--n", "5"), {"n": 5}),
        (("main11", "--n", "6", "--k", "2"), {"n": 6, "k": 2}),
        (("main111", "--n", "6"), {"n": 6, "k": None}),
        (("cdes", "--n", "6", "--k", "0", "--j", "3"), {"n": 6, "k": 0, "j": 3}),
        (("gessel",), {"max": 6}),
        (("gessel", "--max", "5"), {"max": 5}),
    ],
)
def test_verify_reports_only_the_params_it_uses(capsys, argv, params):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    report = json.loads(out)
    assert report["params"] == params
    assert "failing" not in report


def _packed(class_words):
    """A stand-in for ``symfun._class_packed`` from one for ``symfun._class_words``:
    the words it lays out, packed a byte per letter, one word after another."""

    def class_packed(pi, sigma_word, table):
        words = class_words(pi, sigma_word, perm.placements(len(pi), len(sigma_word)))
        return int.from_bytes(b"".join(map(bytes, words)), "little")

    return class_packed


def test_verify_gessel_names_the_failing_pair(capsys, monkeypatch):
    def identity_words(pi, sigma_word, kernel):
        return [perm.identity(len(pi) + len(sigma_word))] * len(kernel)

    monkeypatch.setattr(symfun, "_class_packed", _packed(identity_words))
    code, out, _ = run(capsys, "verify", "gessel", "--max", "5")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["params"] == {"max": 5}
    # the first pair: pi = 1 (type (1)) and sigma = 32 (type (2))
    assert report["failing"] == {"pi": [1], "sigma": [3, 2]}
    assert report["counts"] == {"class": 3, "shuffles": 3, "pairs_checked": 1}
    # shuffles of 1 and 32: 132, 312, 321 with Des {2}, {1}, {1,2}
    assert sorted(report["witness_diff"]) == [
        ["lhs-only", [], 3],
        ["rhs-only", [1], 1],
        ["rhs-only", [1, 2], 1],
        ["rhs-only", [2], 1],
    ]


def _gessel_stand_ins(max_total):
    """Stand-ins for ``symfun._class_words``: identity words on every pair, and
    the reversed class words on the pairs of the last block, m + n = max_total."""
    real = symfun._class_words

    def identity_words(pi, sigma_word, kernel):
        return [perm.identity(len(pi) + len(sigma_word))] * len(kernel)

    def reversed_last_block(pi, sigma_word, kernel):
        words = real(pi, sigma_word, kernel)
        return [w[::-1] for w in words] if len(pi) + len(sigma_word) == max_total else words

    return {"identity": identity_words, "reversed-last-block": reversed_last_block}


@pytest.mark.parametrize("stand_in", ["identity", "reversed-last-block"])
@pytest.mark.parametrize("max_total", [5, 6])
def test_a_failing_gessel_report_names_the_set_keyed_witness(capsys, monkeypatch, stand_in, max_total):
    # witness_diff, entry by entry and in order, against multiset_diff of the
    # frozenset-keyed Des multisets of the same class words and of the shuffles
    class_words = _gessel_stand_ins(max_total)[stand_in]
    monkeypatch.setattr(symfun, "_class_packed", _packed(class_words))
    code, out, _ = run(capsys, "verify", "gessel", "--max", str(max_total))
    assert code == 1
    report = json.loads(out)
    pi, sigma_word = tuple(report["failing"]["pi"]), tuple(report["failing"]["sigma"])
    if stand_in == "reversed-last-block":
        assert len(pi) + len(sigma_word) == max_total
    kernel = perm.placements(len(pi), len(sigma_word))
    lhs = Counter(perm.des(w).members for w in class_words(pi, sigma_word, kernel))
    rhs = Counter(perm.des(w).members for w in perm.shuffles(pi, sigma_word))
    expected = [[side, sorted(d), c] for side, d, c in symfun.multiset_diff(lhs, rhs)]
    assert len(expected) > 1 and report["witness_diff"] == expected


def _fails_at_k3(real):
    """A stand-in for ``symfun._compared`` whose result fails exactly on class k = 3."""

    def compared(identity, params, lhs, rhs, counts, read):
        result = real(identity, params, lhs, rhs, counts, read)
        result.ok = params["k"] != 3
        return result

    return compared


def test_verify_main11_names_the_failing_class(capsys, monkeypatch):
    monkeypatch.setattr(symfun, "_compared", _fails_at_k3(symfun._compared))
    code, out, _ = run(capsys, "verify", "main11", "--n", "7")
    assert code == 1
    report = json.loads(out)
    assert report["params"] == {"n": 7, "k": None}
    assert report["failing"] == {"n": 7, "k": 3}
    assert report["classes"] == {"1": {"matchings": 105}, "3": {"matchings": 105}}
    assert report["counts"] == {"matchings": 210}


def _per_class_report(capsys, identity, n):
    """The report of ``verify identity --n n`` assembled from one ``--k`` run
    per class, as a loop over the classes would: counts summed, each class's
    counts under ``classes``, and the first failing class as the result."""
    total, classes = {}, {}
    for k in range(n % 2, n + 1, 2):
        code, out, _ = run(capsys, "verify", identity, "--n", str(n), "--k", str(k))
        report = json.loads(out)
        for key, value in report["counts"].items():
            total[key] = total.get(key, 0) + value
        classes[str(k)] = report["counts"]
        if code:
            break
    else:
        report = {"ok": True, "witness_diff": []}
    expected = {"identity": identity, "params": {"n": n, "k": None}, "ok": report["ok"]}
    expected |= {"witness_diff": report["witness_diff"], "counts": total, "classes": classes}
    if not report["ok"]:
        expected["failing"] = report["failing"]
    return code, expected


@pytest.mark.parametrize("identity", ["main11", "main111"])
@pytest.mark.parametrize("stand_in", [None, "kernel", "class"])
def test_verify_all_classes_match_the_per_class_loop(capsys, monkeypatch, identity, stand_in):
    # one search for every k gives the report of one --k run per class, on a
    # pass and on failing stand-ins: MDes folded as the empty set in every
    # class (k = n % 2 fails first), and a compare that fails only at k = 3
    if stand_in == "kernel":
        monkeypatch.setattr(mm, "_stat_counts", _no_geometric_descents)
    elif stand_in == "class":
        monkeypatch.setattr(symfun, "_compared", _fails_at_k3(symfun._compared))
    for n in range(10):
        expected_code, expected = _per_class_report(capsys, identity, n)
        code, out, _ = run(capsys, "verify", identity, "--n", str(n))
        report = json.loads(out)
        del report["elapsed_ms"]
        assert (code, report) == (expected_code, expected), n


@pytest.mark.slow
def test_verify_gessel_exhaustive_max9(capsys):
    code, out, _ = run(capsys, "verify", "gessel", "--max", "9", "--force")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"pairs_checked": 52328}


def test_verify_cdes_j_without_k(capsys):
    # --j alone checks every k with j <= (n - k) / 2: k = 0, 2, 4 for n = 6
    code, out, _ = run(capsys, "verify", "cdes", "--n", "6", "--j", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"classes_checked": 3}
    # each k class's extra fields are kept, keyed by k
    assert report["classification"] == {"0": "non_escherian", "2": "non_escherian", "4": "non_escherian"}
    code, out, _ = run(capsys, "verify", "cdes-syt", "--n", "6", "--j", "3")
    assert code == 0
    assert json.loads(out)["classification"] == {"0": "escherian"}
    code, out, err = run(capsys, "verify", "cdes", "--n", "6", "--j", "4")
    assert code == 2 and out == "" and "invalid" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("main0", "--n", "-1"), "negative"),
        (("cdes", "--n", "-2"), "negative"),
        (("main11", "--n", "-3"), "negative"),
        (("main1", "--n", "5"), "must be even"),
        (("chen", "--n", "3"), "must be even"),
        (("sundaram-roundtrip", "--n", "7"), "must be even"),
        (("kim", "--n", "1"), "must be even"),
        (("roby", "--n", "9"), "must be even"),
        (("gessel", "--max", "1"), "at least 3"),
        (("gessel", "--max", "2"), "at least 3"),
        (("main11", "--n", "7", "--k", "2"), "invalid"),
        (("cdes", "--n", "6", "--k", "8"), "invalid"),
        (("main11",), "requires --n"),
    ],
)
def test_verify_refuses_bad_params_up_front(capsys, monkeypatch, argv, message):
    started = []
    monkeypatch.setattr(symfun, "run_identity", lambda *a: started.append(a))
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert started == []


@pytest.mark.parametrize("exc", [ValueError("broken invariant"), RuntimeError("broken invariant")])
def test_verify_internal_error_exits_3(capsys, monkeypatch, exc):
    def broken(n):
        raise exc

    monkeypatch.setattr(symfun, "verify_main0", broken)
    code, out, err = run(capsys, "verify", "main0", "--n", "4")
    assert code == 3 and out == ""
    assert err.startswith("internal error: verify main0 {\"n\": 4}:")
    assert f"{type(exc).__name__}: broken invariant" in err


_stat_counts = mm._stat_counts


def _no_geometric_descents(n, k, fold):
    """The matching-statistics kernel with every MDes folded as the empty set,
    for one class k, and for every class at once when k is None."""

    def blind(class_fold):
        return lambda cr, ne, mdes, des: class_fold(cr, ne, 0, des)

    _stat_counts(n, k, blind(fold) if k is not None else lambda kk: blind(fold(kk)))


def _no_cyclic_descents(word, mdes):
    """cMDes folded as the empty set, where the class split reads it."""
    return 0


def _identity_class_words(pi, sigma_word, kernel):
    return [perm.identity(len(pi) + len(sigma_word))] * len(kernel)


# Per registry identity: the flags of a small passing run, and a map to
# patch, (module, attribute, stand-in), that the identity must then fail on.
REGISTRY_CASES = {
    "main1": (("--n", "4"), (mm, "_stat_counts", _no_geometric_descents)),
    "main11": (("--n", "4"), (mm, "_stat_counts", _no_geometric_descents)),
    "main111": (("--n", "4"), (mm, "_stat_counts", _no_geometric_descents)),
    "main0": (("--n", "4"), (mm, "_stat_counts", _no_geometric_descents)),
    "cdes": (("--n", "4"), (mm, "_cmdes_mask", _no_cyclic_descents)),
    "cdes-syt": (("--n", "4"), (mm, "_cmdes_mask", _no_cyclic_descents)),
    "gessel": (("--max", "4"), (symfun, "_class_packed", _packed(_identity_class_words))),
    "chen": (("--n", "6"), (osc, "_iota", lambda w: w)),
    "sundaram-roundtrip": (("--n", "6"), (osc, "sundaram_inverse", lambda o: perm.identity(o.size))),
    "kim": (("--n", "6"), (osc, "kim_des", lambda o: perm.DescentSet(o.size, frozenset()))),
    "roby": (("--n", "6"), (perm, "conjugate_w0", lambda w: w)),
}


@pytest.mark.parametrize("name", list(symfun.REGISTRY))
def test_every_registry_identity_passes_refuses_and_fails(capsys, monkeypatch, name):
    argv, (module, attr, stand_in) = REGISTRY_CASES[name]  # a new identity needs a case here
    code, out, _ = run(capsys, "verify", name, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["identity"] == name and "failing" not in report

    foreign = next(f for f in ("n", "k", "j", "max") if f not in symfun.REGISTRY[name].flags)
    code, out, err = run(capsys, "verify", name, *argv, f"--{foreign}", "1")
    assert code == 2 and out == "" and f"does not take --{foreign}" in err

    monkeypatch.setattr(module, attr, stand_in)
    code, out, _ = run(capsys, "verify", name, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witness_diff"]
    assert report["failing"]


def test_verify_chen_fails_when_iota_is_not_an_involution(capsys, monkeypatch):
    # iota followed by a rotation: applied twice it does not come back
    real_iota = osc._iota
    monkeypatch.setattr(osc, "_iota", lambda w: mm._rotate(real_iota(w)))
    code, out, _ = run(capsys, "verify", "chen", "--n", "4")
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and len(report["witness_diff"]) == 3


def _first_mdes_flipped(n, k, fold, *rest):
    """The matching-statistics kernel with bit 1 of the first MDes mask of
    each class flipped: one matching counted under a wrong key."""

    def flip_first(class_fold):
        first = [True]

        def flipped(cr, ne, mdes, des):
            if first:
                first.clear()
                mdes ^= 2
            class_fold(cr, ne, mdes, des)

        return flipped

    _stat_counts(n, k, flip_first(fold) if k is not None else lambda kk: flip_first(fold(kk)), *rest)


def _as_printed(value):
    """``value`` as the JSON report prints it: sets as sorted lists."""
    return json.loads(json.dumps(value, default=cli._json_default))


def _set_keyed_failure(identity, n):
    """The failing class and the witness of ``verify identity --n n`` under
    ``_first_mdes_flipped``, from the set-keyed multisets of the oracles."""
    stats = {}
    for k in [0] if identity == "main1" else range(n % 2, n + 1, 2):
        (cr, ne, g, d), *rest = per_word_stats(n, k)  # words in increasing order, as the kernel folds them
        stats[k] = [(cr, ne, g ^ {1}, d), *rest]
    if identity == "main0":
        return {"n": n}, symfun.multiset_diff(*oracle_main0_sides(n, stats))
    for k, class_stats in stats.items():
        lhs, rhs = oracle_class_sides(identity, class_stats)
        if lhs != rhs:
            return ({"n": n} if identity == "main1" else {"n": n, "k": k}), symfun.multiset_diff(lhs, rhs)
    raise AssertionError("the stand-in leaves every class passing")


@pytest.mark.parametrize(
    "identity,n",
    [(i, n) for i in ("main0", "main1", "main11", "main111") for n in (4, 6, 7) if i != "main1" or n % 2 == 0],
)
def test_a_failing_multiset_report_names_the_set_keyed_witness(capsys, monkeypatch, identity, n):
    # the masks are read as sets only for the witness, which lists them as
    # the set-keyed multisets do, in the same order
    failing, diff = _set_keyed_failure(identity, n)
    monkeypatch.setattr(mm, "_stat_counts", _first_mdes_flipped)
    code, out, _ = run(capsys, "verify", identity, "--n", str(n))
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    assert report["failing"] == failing
    assert diff and report["witness_diff"] == _as_printed(diff)


@pytest.mark.parametrize("identity", ["cdes", "cdes-syt"])
@pytest.mark.parametrize("n", [5, 6])
def test_a_failing_cdes_report_matches_the_set_keyed_report(capsys, monkeypatch, identity, n):
    # bit 1 of one matching's cMDes mask flipped: its class fails, and its
    # report is the one that the per-element verifier gives on sets
    k = n % 2
    words = list(oracle_words(n, k))
    target = words[len(words) // 2]
    j = oracle_cr_ne(target)[0]  # ι̂ carries the matchings with cr = j onto the class ne = j
    cmdes_mask = mm._cmdes_mask
    monkeypatch.setattr(
        mm, "_cmdes_mask", lambda word, mdes: cmdes_mask(word, mdes) ^ (2 if word == target else 0)
    )
    if identity == "cdes":
        expected = verify_cdes(_inkj_words(n, k, j), perm.des, cyclic.transport_involution, f"I_{{{n},{k},{j}}}")
    else:
        expected = verify_cdes(enumerate_syt_nkj(n, k, j), tableau.des, cyclic.transport_syt, f"SYT_{{{n},{k},{j}}}")
    assert not expected.extension_ok
    code, out, _ = run(capsys, "verify", identity, "--n", str(n))
    report = json.loads(out)
    assert code == 1
    assert report["failing"] == {"n": n, "k": k, "j": j}
    assert report["witness_diff"] == _as_printed([{"set": expected.set_id, "report": expected.to_dict()}])


@pytest.mark.parametrize("identity", ["cdes", "cdes-syt"])
def test_verify_cdes_reports_class_sizes(capsys, identity):
    # 2620 = |I_9| = |SYT(9)|; the sizes sit outside counts
    enumerate_class = enumerate_syt_nkj if identity == "cdes-syt" else _inkj_words
    code, out, _ = run(capsys, "verify", identity, "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"classes_checked": 15}
    sizes = report["class_sizes"]
    assert sizes == {
        str(k): {str(j): sum(1 for _ in enumerate_class(9, k, j)) for j in range((9 - k) // 2 + 1)}
        for k in range(1, 10, 2)
    }
    assert sum(sum(per_j.values()) for per_j in sizes.values()) == 2620
    assert sum(1 for _ in enumerate_syt_n(9)) == 2620
    code, out, _ = run(capsys, "verify", identity, "--n", "9", "--k", "3", "--j", "2")
    assert json.loads(out)["class_sizes"] == {"2": sizes["3"]["2"]}
