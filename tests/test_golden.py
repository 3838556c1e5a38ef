"""
The committed output corpus: every command family run on every small
input, pinned by digests in ``tests/golden.json``.

A family is a list of argument vectors for ``cli.main``.  Each family has
two sha256 digests: one over (argv, exit code, stdout) of its commands,
with the ``elapsed_ms`` of ``verify`` masked, and one over (argv, stderr).
A change that moves any byte of a command's output, or its exit code,
changes a digest.  The tier-1 families run up to n = 5; the ``slow`` ones
run up to n = 8, with ``enum`` up to n = 9 and ``stats`` and ``map`` up to
n = 6.  The ``refusals`` family, every size flag of ``tests/test_cli.py``'s
``_size_flags`` at -1 and just past its guard, runs in tier-1 only: each
of its commands is refused before it does any work, whatever the size.
So does the ``failing`` family: each identity of the registry, with the
flags of ``tests/test_cli.py``'s ``REGISTRY_CASES``, run under that
case's stand-in, so that every failing report (exit code 1, its
``witness_diff`` and ``failing``) is pinned too.

Regenerating the digests is a deliberate act, never done by the test:

    PYTHONPATH=src python tests/test_golden.py --write

``--dump DIR`` writes each family's transcript to ``DIR/<family>.txt``.
``--against REV`` compares the work tree with a git revision: it extracts
REV's ``src/`` with ``git archive`` into a temporary directory, dumps the
commands of this file on both trees, each in a fresh interpreter, and
prints the first commands whose exit code, stdout or stderr differ:

    PYTHONPATH=src python tests/test_golden.py --against HEAD
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator
from unittest import mock

import pytest

from matchdescents import cli, symfun
from matchdescents import oscillating as osc
from matchdescents import tableau

from oracles import enumerate_oscillating, enumerate_syt_n
from test_cli import REGISTRY_CASES, _identity_class_words, _size_flags

GOLDEN = Path(__file__).with_name("golden.json")
FORMATS = ("json", "csv", "plain")
# family -> the largest n of its tier-1 run and of its slow run, None for no slow run
SIZES = {"stats": (5, 6), "map": (5, 6), "enum": (5, 9), "orbits": (5, 8), "verify": (5, 8), "refusals": (0, None),
         "failing": (0, None)}


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


def refusal_commands(top: int) -> Iterator[tuple[str, ...]]:
    """Each size flag at -1 and just past its guard, with no --force."""
    for _, argv, *_, over in _size_flags():
        yield argv(-1)
        yield argv(over)


def failing_commands(top: int) -> Iterator[tuple[str, ...]]:
    """Each identity's small run of ``REGISTRY_CASES``, made under its ``stand_in``."""
    for name, (flags, _) in REGISTRY_CASES.items():
        yield "verify", name, *flags


COMMANDS = {
    "stats": stats_commands,
    "map": map_commands,
    "enum": enum_commands,
    "orbits": orbits_commands,
    "verify": verify_commands,
    "refusals": refusal_commands,
    "failing": failing_commands,
}


# A seam of ``REGISTRY_CASES`` that an earlier tree lacks, with the map that
# the earlier tree's stand-in patched instead, so that ``--against`` a
# revision from before the move runs the same failing check on both trees.
EARLIER_SEAMS = {"_class_packed": ("_class_words", _identity_class_words)}


def stand_in(family: str, argv: tuple[str, ...]) -> contextlib.AbstractContextManager:
    """The map of ``REGISTRY_CASES`` patched by its stand-in while a command
    of the ``failing`` family runs; nothing for the other families."""
    if family != "failing":
        return contextlib.nullcontext()
    _, (module, attr, replacement) = REGISTRY_CASES[argv[1]]
    if not hasattr(module, attr):
        attr, replacement = EARLIER_SEAMS[attr]
    return mock.patch.object(module, attr, replacement)


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue()), err.getvalue()


def transcript(family: str, slow: bool) -> list[tuple[tuple[str, ...], int, str, str]]:
    rows = []
    for argv in COMMANDS[family](SIZES[family][slow]):
        with stand_in(family, argv):
            rows.append((argv, *run(argv)))
    return rows


def digests(rows: list) -> dict:
    out, err = hashlib.sha256(), hashlib.sha256()
    for argv, code, stdout, stderr in rows:
        out.update(json.dumps([argv, code, stdout]).encode() + b"\n")
        err.update(json.dumps([argv, stderr]).encode() + b"\n")
    return {"commands": len(rows), "stdout": out.hexdigest(), "stderr": err.hexdigest()}


def key(family: str, slow: bool) -> str:
    return f"{family}-slow" if slow else family


def runs() -> list[tuple[str, bool]]:
    """The (family, slow) pairs that have digests."""
    return [(family, slow) for slow in (False, True) for family in COMMANDS if SIZES[family][slow] is not None]


def check(family: str, slow: bool) -> None:
    expected = json.loads(GOLDEN.read_text())[key(family, slow)]
    assert digests(transcript(family, slow)) == expected


@pytest.mark.parametrize("family", COMMANDS)
def test_corpus(family):
    check(family, slow=False)


@pytest.mark.slow
@pytest.mark.parametrize("family", [family for family, slow in runs() if slow])
def test_corpus_slow(family):
    check(family, slow=True)


def against(rev: str) -> int:
    """Print the first differing commands of each family between ``rev``
    and the work tree; return 1 if any command differs, else 0."""
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=root, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(Path(tmp, "old"), filter="data")
        dumps = {"old": Path(tmp, "old", "src"), "new": root / "src"}
        children = [
            subprocess.Popen([sys.executable, __file__, "--dump", str(Path(tmp, name, "dump"))],
                             env={**os.environ, "PYTHONPATH": str(src)})
            for name, src in dumps.items()
        ]
        if any([child.wait() for child in children]):  # wait for both before the directory goes
            sys.exit("a dump failed")
        differing = 0
        for family, slow in runs():
            old, new = (Path(tmp, name, "dump", f"{key(family, slow)}.txt").read_text().splitlines() for name in dumps)
            diffs = [(json.loads(a), json.loads(b)) for a, b in zip(old, new) if a != b]
            if len(old) != len(new):
                print(f"{key(family, slow)}: {len(old)} commands at {rev}, {len(new)} in the work tree")
            for (argv, *was), (_, *now) in diffs[:3]:
                parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), was, now) if a != b]
                print(f"{key(family, slow)}: {shlex.join(argv)}: {', '.join(parts)} differ")
            differing += len(diffs) + (len(old) != len(new))
    print(f"{differing} differing commands against {rev}")
    return 1 if differing else 0


def main(argv: list[str]) -> None:
    if argv[:1] == ["--write"]:
        golden = {key(family, slow): digests(transcript(family, slow)) for family, slow in runs()}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    elif argv[:1] == ["--dump"] and len(argv) == 2:
        target = Path(argv[1])
        target.mkdir(parents=True, exist_ok=True)
        for family, slow in runs():
            lines = [json.dumps(row) for row in transcript(family, slow)]
            (target / f"{key(family, slow)}.txt").write_text("\n".join(lines) + "\n")
    elif argv[:1] == ["--against"] and len(argv) == 2:
        sys.exit(against(argv[1]))
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --dump DIR | --against REV")


if __name__ == "__main__":
    main(sys.argv[1:])
