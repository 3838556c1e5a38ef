"""
The committed output corpus: every command family run on every small
input, pinned by digests in ``tests/golden.json``.

A family is a list of argument vectors for ``cli.main``.  Each family has
two sha256 digests: one over (argv, exit code, stdout) of its commands,
with the ``elapsed_ms`` of ``verify`` masked, and one over (argv, stderr).
A change that moves any byte of a command's output, or its exit code,
changes a digest.  The tier-1 families run up to n = 5; the ``slow`` ones
run up to n = 8, with ``stats`` and ``map`` up to n = 6.

Regenerating the digests is a deliberate act, never done by the test:

    PYTHONPATH=src python tests/test_golden.py --write

``--dump DIR`` writes each family's transcript to ``DIR/<family>.txt`` so
that the outputs of two trees can be compared line by line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Iterator

import pytest

from matchdescents import cli, symfun
from matchdescents import oscillating as osc
from matchdescents import tableau

from oracles import enumerate_oscillating, enumerate_syt_n

GOLDEN = Path(__file__).with_name("golden.json")
FORMATS = ("json", "csv", "plain")
# family -> the largest n of its tier-1 run and of its slow run
SIZES = {"stats": (5, 6), "map": (5, 6), "enum": (5, 8), "orbits": (5, 8), "verify": (5, 8)}


def involutions(n: int) -> Iterator[tuple[int, ...]]:
    return (w for w in itertools.permutations(range(1, n + 1)) if all(w[v - 1] == i for i, v in enumerate(w, 1)))


def one_line(word: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def cycle_text(word: tuple[int, ...]) -> str:
    return "".join(f"({i},{v})" for i, v in enumerate(word, 1) if v > i) or "()"


def arc_text(word: tuple[int, ...]) -> str:
    return ",".join(f"{i}-{v}" for i, v in enumerate(word, 1) if v > i)


def ks(n: int) -> range:
    return range(n % 2, n + 1, 2)


def js(n: int, k: int) -> list[int | None]:
    return [None, *range((n - k) // 2 + 1)]


def class_flags(k: int | None, j: int | None) -> list[str]:
    return [f"--{flag}={value}" for flag, value in (("k", k), ("j", j)) if value is not None]


def stats_commands(top: int) -> Iterator[tuple[str, ...]]:
    for n, fmt in itertools.product(range(top + 1), ("plain", "json")):
        for word in itertools.permutations(range(1, n + 1)):
            yield "stats", "--perm", one_line(word), "--format", fmt
        for word in involutions(n):
            yield "stats", "--cycles", cycle_text(word), "--n", str(n), "--format", fmt
            yield "stats", "--matching", arc_text(word), "--n", str(n), "--format", fmt
        for t in enumerate_syt_n(n):
            yield "stats", "--syt", tableau.format_tableau(t), "--format", fmt


def map_commands(top: int) -> Iterator[tuple[str, ...]]:
    for n in range(top + 1):
        for word, name in itertools.product(involutions(n), cli.MAPS):
            yield "map", name, one_line(word)
            yield "map", name, cycle_text(word), "--n", str(n)
        for walk, name in itertools.product(enumerate_oscillating(n) if n % 2 == 0 else (), cli.MAPS):
            yield "map", name, "--", osc.format_oscillating(walk)


def enum_commands(top: int) -> Iterator[tuple[str, ...]]:
    for n, fmt in itertools.product(range(top + 1), FORMATS):
        classes = [(k, j) for k in ks(n) for j in js(n, k)]
        for family in ("matchings", "involutions", "syt"):
            for k, j in classes + ([(None, None)] if family == "syt" else []):
                yield "enum", family, "--n", str(n), *class_flags(k, j), "--format", fmt


def orbits_commands(top: int) -> Iterator[tuple[str, ...]]:
    for n, fmt in itertools.product(range(top + 1), FORMATS):
        for k in ks(n):
            for j in js(n, k):
                yield "orbits", "--n", str(n), "--k", str(k), *(() if j is None else ("--j", str(j))), "--format", fmt


def verify_commands(top: int) -> Iterator[tuple[str, ...]]:
    for name, entry in symfun.REGISTRY.items():
        if "max" in entry.flags:
            for m in range(3, top + 2):
                yield "verify", name, "--max", str(m)
            continue
        for n in range(0, top + 1, 2 if entry.perfect else 1):
            if "k" not in entry.flags:
                yield "verify", name, "--n", str(n)
                continue
            for k in [None, *ks(n)]:
                for j in js(n, k) if "j" in entry.flags and k is not None else [None]:
                    yield "verify", name, "--n", str(n), *class_flags(k, j)


COMMANDS = {
    "stats": stats_commands,
    "map": map_commands,
    "enum": enum_commands,
    "orbits": orbits_commands,
    "verify": verify_commands,
}


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue()), err.getvalue()


def transcript(family: str, slow: bool) -> list[tuple[tuple[str, ...], int, str, str]]:
    return [(argv, *run(argv)) for argv in COMMANDS[family](SIZES[family][slow])]


def digests(rows: list) -> dict:
    out, err = hashlib.sha256(), hashlib.sha256()
    for argv, code, stdout, stderr in rows:
        out.update(json.dumps([argv, code, stdout]).encode() + b"\n")
        err.update(json.dumps([argv, stderr]).encode() + b"\n")
    return {"commands": len(rows), "stdout": out.hexdigest(), "stderr": err.hexdigest()}


def key(family: str, slow: bool) -> str:
    return f"{family}-slow" if slow else family


def check(family: str, slow: bool) -> None:
    expected = json.loads(GOLDEN.read_text())[key(family, slow)]
    assert digests(transcript(family, slow)) == expected


@pytest.mark.parametrize("family", COMMANDS)
def test_corpus(family):
    check(family, slow=False)


@pytest.mark.slow
@pytest.mark.parametrize("family", COMMANDS)
def test_corpus_slow(family):
    check(family, slow=True)


def main(argv: list[str]) -> None:
    if argv[:1] == ["--write"]:
        golden = {key(f, slow): digests(transcript(f, slow)) for slow in (False, True) for f in COMMANDS}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    elif argv[:1] == ["--dump"] and len(argv) == 2:
        target = Path(argv[1])
        target.mkdir(parents=True, exist_ok=True)
        for family, slow in itertools.product(COMMANDS, (False, True)):
            lines = [json.dumps(row) for row in transcript(family, slow)]
            (target / f"{key(family, slow)}.txt").write_text("\n".join(lines) + "\n")
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --dump DIR")


if __name__ == "__main__":
    main(sys.argv[1:])
