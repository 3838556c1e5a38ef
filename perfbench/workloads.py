"""
The benchmark workloads: fixed ``matchdescents`` CLI commands, the
closed-form object and row counts they must reach, and the checks on
their outputs.

The counts are computed here, independently of the package, because the
CLI's own report is not trusted: at the seed commit ``verify main11``
reports only the k = 1 class of M_{11}.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Closed forms


def double_factorial(m: int) -> int:
    """m!! with (-1)!! = 0!! = 1."""
    out = 1
    for i in range(m, 0, -2):
        out *= i
    return out


def count_matchings(n: int, k: int) -> int:
    """Matchings on n points with k unmatched: C(n, k) (n-k-1)!!."""
    return math.comb(n, k) * double_factorial(n - k - 1)


def involutions(n: int) -> int:
    """Involutions of [n], which is also the number of SYT of size n."""
    return sum(count_matchings(n, k) for k in range(n % 2, n + 1, 2))


def cdes_classes(n: int) -> int:
    """Number of (k, j) classes I_{n,k,j}: j runs over 0..(n-k)/2."""
    return sum((n - k) // 2 + 1 for k in range(n % 2, n + 1, 2))


def _partitions(n: int, bound: int | None = None):
    bound = n if bound is None else bound
    if n == 0:
        yield ()
        return
    for part in range(min(n, bound), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _class_size(shape: tuple[int, ...]) -> int:
    """Permutations of cycle type ``shape``: n! / z_shape."""
    z = 1
    for part in set(shape):
        mult = shape.count(part)
        z *= part**mult * math.factorial(mult)
    return math.factorial(sum(shape)) // z


def gessel_pairs(max_total: int) -> int:
    """Pairs (pi in S_m, sigma in S_n), m, n >= 1, m + n <= max_total,
    whose cycle types share no part size."""
    total = 0
    for size in range(2, max_total + 1):
        for m in range(1, size):
            for mu in _partitions(m):
                for nu in _partitions(size - m):
                    if not set(mu) & set(nu):
                        total += _class_size(mu) * _class_size(nu)
    return total


# ---------------------------------------------------------------------------
# Commands and workloads


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``{out}`` in argv is replaced by an output file
    path.  ``objects`` is the closed-form count of objects it processes;
    ``report_counts`` are report fields that must equal closed forms;
    ``rows`` is the expected number of data rows written to ``{out}``."""

    argv: tuple[str, ...]
    objects: int
    report_counts: dict[str, int] = field(default_factory=dict)
    rows: int | None = None

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a not in ("--output", "{out}"))

    def resolve(self, out_path: str) -> list[str]:
        return [out_path if a == "{out}" else a for a in self.argv]


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "cdes": (
        Command(
            ("verify", "cdes", "--n", "9"),
            objects=involutions(9),
            report_counts={"classes_checked": cdes_classes(9)},
        ),
    ),
    "equidist": (
        # The report's "matchings" count covers one k class only at the seed
        # commit; it is recorded as seen, not gated.
        Command(("verify", "main11", "--n", "11"), objects=involutions(11)),
        Command(("verify", "main1", "--n", "10"), objects=double_factorial(9), report_counts={"matchings": double_factorial(9)}),
        Command(
            ("verify", "main0", "--n", "10"),
            objects=2 * involutions(10),
            report_counts={"lhs": involutions(10), "rhs": involutions(10)},
        ),
    ),
    "gessel": (
        Command(
            ("verify", "gessel", "--max", "8"),
            objects=gessel_pairs(8),
            report_counts={"pairs_checked": gessel_pairs(8)},
        ),
    ),
    "enum": (
        Command(
            ("enum", "matchings", "--n", "12", "--k", "0", "--format", "csv", "--output", "{out}"),
            objects=count_matchings(12, 0),
            rows=count_matchings(12, 0),
        ),
        Command(
            ("enum", "syt", "--n", "11", "--format", "csv", "--output", "{out}"),
            objects=involutions(11),
            rows=involutions(11),
        ),
    ),
}


def objects_per_pass(workload: str) -> int:
    return sum(c.objects for c in WORKLOADS[workload])


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    reported: dict = field(default_factory=dict)  # the report's counts, as seen
    rows: int = 0
    bytes_written: int = 0


def check(cmd: Command, exit_code, stdout: str, out_path: str) -> Outcome:
    """Judge one finished command: exit code, the report's verdict and
    counts, and the rows it wrote, against the closed forms."""
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    if cmd.rows is not None:
        return _check_rows(cmd, out_path)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Outcome(False, "no JSON report on stdout")
    reported = report.get("counts", {}) if isinstance(report, dict) else {}
    if not isinstance(report, dict) or report.get("ok") is not True:
        return Outcome(False, "report is not ok", reported)
    for key, expected in cmd.report_counts.items():
        if reported.get(key) != expected:
            return Outcome(False, f"report count {key}={reported.get(key)!r}, closed form {expected}", reported)
    return Outcome(True, reported=reported)


def _check_rows(cmd: Command, out_path: str) -> Outcome:
    if not os.path.isfile(out_path):
        return Outcome(False, "no output file")
    size = os.path.getsize(out_path)
    with open(out_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            return Outcome(False, "empty output", bytes_written=size)
        rows = 0
        objects = set()
        for row in reader:
            if len(row) != len(header):
                return Outcome(False, f"row {rows + 1} has {len(row)} fields, header has {len(header)}", bytes_written=size)
            objects.add(row[0])
            rows += 1
    if rows != cmd.rows or len(objects) != cmd.rows:
        return Outcome(
            False, f"{rows} rows with {len(objects)} distinct objects, closed form {cmd.rows}", rows=rows, bytes_written=size
        )
    return Outcome(True, rows=rows, bytes_written=size)
