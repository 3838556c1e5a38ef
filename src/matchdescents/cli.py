"""
Command-line front end: object statistics, named maps, enumeration
tables, orbit tables and the verification suite.

Exit codes: 0 on success; 1 when a verified identity fails, with a
witness; 2 on usage or parse errors, refused before any work starts; 3
on an internal error, an exception raised inside a ``verify`` run or an
``orbits`` walk after its parameters were accepted.  A stdout closed
early ends a command quietly, with the code it would have had anyway.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Callable, Iterator, Sequence

from . import bijection, cyclic, matching as matching_mod, oscillating, perm, symfun, tableau

MAX_N_WITHOUT_FORCE = 12
MAX_GESSEL_TOTAL_WITHOUT_FORCE = 9  # 52,328 pairs; 444,012 at 10
# the size of the one object of stats and map, --n or not: stats on 2,500 nested arcs around
# 2,500 arcs of neighbours, the slowest shape tried, takes about 2 s at this size
MAX_OBJECT_N = 10_000
MAX_ENUM_N = 500  # enum's searches recurse once per point or cell: half of Python's default recursion limit
# the integer flags of verify: those of every registry entry, in first-seen order
_VERIFY_FLAGS = tuple(dict.fromkeys(flag for entry in symfun.REGISTRY.values() for flag in entry.flags))

class UsageError(Exception):
    pass


class InternalError(Exception):
    """A broken invariant, raised from its cause; the text names the command and its accepted parameters."""


def _parse_involution(text: str, n: int | None, codec: str | None = None) -> tuple[tuple[int, ...], str]:
    """Read a word in ``codec`` (one-line, cycle or matching notation), or in
    the one its first character names; return (word, codec)."""
    text = text.strip()
    if codec is None:
        codec = "one-line" if text.startswith("[") else "cycle" if text.startswith("(") or text == "" else "matching"
    if codec == "one-line":
        word = perm.parse_one_line(text)
    elif n is None:
        raise UsageError(f"{codec} notation requires --n")
    elif codec == "cycle":
        word = perm.parse_cycles(text, n)
    else:
        word = matching_mod.to_involution(matching_mod.parse_matching(text, n))
    _refuse_size(n, len(word), "the length of the word")
    return word, codec


def _refuse_size(n: int | None, size: int, what: str) -> None:
    """Refuse an object whose size differs from the --n given, or exceeds the --n guard."""
    if n is not None and n != size:
        raise UsageError(f"n={n} disagrees with {what} ({size})")
    _refuse_over_guard("n", size, MAX_OBJECT_N)


def _format_involution(word: tuple[int, ...], codec: str) -> str:
    if codec == "one-line":
        return perm.format_one_line(word)
    if codec == "matching":
        return matching_mod._format_word(word)
    return perm.format_cycles(word)


def cmd_stats(args: argparse.Namespace) -> int:
    _refuse_over_guard("n", args.n, MAX_OBJECT_N)
    if args.syt is not None:  # the parser admits exactly one object
        t = tableau.parse_tableau(args.syt)
        _refuse_size(args.n, sum(t.shape), "the size of the tableau")
        record = {
            "object": tableau.format_tableau(t),
            "shape": list(t.shape),
            "height": tableau.height(t.shape),
            "odd_cols": tableau.odd_cols(t.shape),
            "Des": sorted(tableau.des(t).members),
        }
    else:
        flags = {"one-line": args.perm, "cycle": args.cycles, "matching": args.matching}
        codec = next(c for c, text in flags.items() if text is not None)
        word, _ = _parse_involution(flags[codec], args.n, codec)
        if codec == "matching":
            record = {"object": matching_mod._format_word(word), "n": len(word)}
        else:
            record = {
                "object": perm.format_one_line(word),
                "n": len(word),
                "Des": sorted(perm.des(word).members),
                "cDes_cellini": sorted(perm.cellini_cdes(word).members),
                "cycle_type": list(perm.cycle_type(word)),
                "fixed_points": sorted(perm.fixed_points(word)),
                "is_involution": perm.is_involution(word),
            }
        if record.get("is_involution", True):  # a matching always is one
            record.update(_matching_stats(word))

    if args.format == "json":
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}={_plain(value)}")
    return 0


def _matching_stats(word: tuple[int, ...]) -> dict:
    """The matching statistics of the involution word ``word``."""
    cr, ne, mdes, des = matching_mod._sweep(word)  # one sweep for every statistic
    return {
        "Des": sorted(perm._members(des)),
        "MDes": sorted(perm._members(mdes)),
        "cMDes": sorted(perm._members(matching_mod._cmdes_mask(word, mdes))),
        "cr": cr,
        "ne": ne,
        "um": len(perm.fixed_points(word)),
    }


def _plain(value) -> str:
    if isinstance(value, list):
        return "{" + ",".join(map(str, value)) + "}" if all(isinstance(v, int) for v in value) else str(value)
    return str(value)


# name -> (whether it takes an oscillating tableau, the text of its image
# of the parsed object, given the codec of the input)
MAPS: dict[str, tuple[bool, Callable]] = {
    "iota": (False, lambda w, codec: _format_involution(oscillating._iota(perm._fixed_point_free(w)), codec)),
    "iota-hat": (False, lambda w, codec: _format_involution(bijection.iota_hat(w), codec)),
    "iota-hat-inv": (False, lambda w, codec: _format_involution(bijection.iota_hat_inverse(w), codec)),
    "sundaram": (False, lambda w, _: oscillating.format_oscillating(oscillating.sundaram(w))),
    "sundaram-inv": (True, lambda o, _: perm.format_cycles(oscillating.sundaram_inverse(o))),
    "transpose": (True, lambda o, _: oscillating.format_oscillating(oscillating.transpose(o))),
    "phi": (False, lambda w, _: perm.format_one_line(bijection.phi(w).word)),
    # a shuffle word's k is the number of odd columns of its recording tableau
    "q": (False, lambda w, codec: _format_involution(
        bijection.q_map(bijection.ShuffleElement(w, tableau.odd_cols(tableau.rs_pair_q(w).shape))), codec)),
    "rotate": (False, lambda w, codec: _format_involution(matching_mod._rotate(perm._involution(w)), codec)),
    "p": (False, lambda w, codec: _format_involution(cyclic.transport_involution(w)[1], codec)),
    "h": (False, lambda w, _: tableau.format_tableau(bijection.h_map(w))),
}


def cmd_map(args: argparse.Namespace) -> int:
    _refuse_over_guard("n", args.n, MAX_OBJECT_N)
    takes_walk, image = MAPS[args.name]
    if takes_walk or ";" in args.object:
        obj, codec = oscillating.parse_oscillating(args.object), None
        if not takes_walk:
            raise UsageError(f"map {args.name} does not accept an oscillating tableau")
        _refuse_size(args.n, obj.size, "the length of the oscillating tableau")
    else:
        obj, codec = _parse_involution(args.object, args.n)
    print(image(obj, codec))
    return 0


@contextlib.contextmanager
def _row_sink(header: list[str], fmt: str, output: str | None) -> Iterator[Callable[[str], object]]:
    """
    Open ``output``, or stdout, for a table and yield the function that
    takes its lines, one call per row, each built on ``_line_template``.
    csv and json write each line at once, csv after its header; plain
    collects them and aligns its columns at the end.  A command runs every
    check on its input before it opens the sink, and an ``output`` that
    cannot be opened is refused as a usage error.
    """
    try:
        target = open(output, "w") if output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write --output {output}: {exc.strerror}") from exc
    with target as fh:
        if fmt != "plain":
            if fmt == "csv":
                fh.write(",".join(header) + "\n")
            yield fh.write
            return
        lines: list[str] = []
        yield lines.append
        rows = [header, *(line[:-1].split(_PLAIN_SEP) for line in lines)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        fh.write("".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n" for row in rows))


_PLAIN_SEP = "\t"  # between the cells of a plain line until the sink aligns them
_SLOT = "\0"  # a varying cell, while a template is rendered


def _text_cell(fmt: str) -> Callable[[str], str]:
    """
    The function that renders a text as a cell of ``fmt``.  The texts of
    every table hold only digits and ``, / - ( ) [ ] { }``, so a csv cell
    needs quotes exactly when it holds a comma, as ``csv.writer`` quotes
    it, and a json string needs no escaping; no cell holds a tab.
    """
    if fmt == "json":
        return lambda text: f'"{text}"'
    if fmt == "csv":
        return lambda text: f'"{text}"' if "," in text else text
    return str


def _line_template(header: list[str], fmt: str, cells: list) -> list[str]:
    """
    The fixed text of a table line around its varying cells: ``cells``
    holds the value of each column that a group of lines shares, and None
    for each that varies.  A line is ``pieces[0] + v_1 + pieces[1] + ... +
    v_m + pieces[m]``, with v_i the rendered cell of the i-th varying
    column.

    >>> _line_template(["a", "b", "c"], "json", [None, "1,2", 3])
    ['{"a": ', ', "b": "1,2", "c": 3}\\n']
    """
    text_cell = _text_cell(fmt)
    rendered = [_SLOT if v is None else str(v) if isinstance(v, int) else text_cell(v) for v in cells]
    if fmt == "json":
        line = "{" + ", ".join(f'"{name}": {cell}' for name, cell in zip(header, rendered)) + "}"
    else:
        line = ("," if fmt == "csv" else _PLAIN_SEP).join(rendered)
    return (line + "\n").split(_SLOT)


class _MaskCells(dict):
    """The cell of each descent set in one command's format, by its mask
    (bit i for position i), rendered on first use; it lives as long as the
    command."""

    def __init__(self, fmt: str):
        super().__init__()
        self.text_cell = _text_cell(fmt)

    def __missing__(self, mask: int) -> str:
        cell = self[mask] = self.text_cell(perm.format_set(perm._members(mask)))
        return cell


def _refuse_over_guard(flag: str, value: int | None, bound: int, force: bool | None = None) -> None:
    if value is not None and value > bound and not force:
        hint = "" if force is None else "; pass --force to run anyway"  # None: the command has no --force
        raise UsageError(f"{flag}={value} exceeds the guard ({bound}){hint}")


def cmd_enum(args: argparse.Namespace) -> int:
    n, k, j, fmt = args.n, args.k, args.j, args.format
    _refuse_over_guard("n", n, MAX_ENUM_N)
    if args.family == "syt":
        if j is not None and k is None:
            raise UsageError("enum syt --j requires --k")
        shapes = tableau._syt_shapes(n, k, j)
        header = ["tableau", "shape", "height", "odd_cols", "des"]
        text_cell, masks = _text_cell(fmt), _MaskCells(fmt)
        with _row_sink(header, fmt, args.output) as write:
            for shape in shapes:
                cells = [None, tableau.format_shape(shape), tableau.height(shape), tableau.odd_cols(shape), None]
                head, mid, tail = _line_template(header, fmt, cells)
                tableau._syt_des(
                    shape, lambda _, des, texts: write(f"{head}{text_cell('/'.join(texts))}{mid}{masks[des]}{tail}")
                )
        return 0
    if k is None:
        raise UsageError(f"enum {args.family} requires --k")
    matching_mod._check_nkj(n, k, j)
    _write_matching_rows(n, k, j, args.family == "matchings", fmt, args.output)
    return 0


def _write_matching_rows(n: int, k: int, j: int | None, matchings: bool, fmt: str, output: str | None) -> None:
    """
    Write the ``enum matchings`` (or ``involutions``) row of each matching
    of M_{n,k}, or of I_{n,k,j} when j is given, in increasing order of
    words.  The statistics and the word come from ``_stat_counts``, which
    cuts every branch whose ne passes j or can no longer reach it.  n, k
    and um are the same on every row, so the template holds them.
    """
    # the text of arc {i, q}, for i < q: an arc of the list, or a 2-cycle
    arc = [[f"{i}-{q}" if matchings else f"({i},{q})" for q in range(n + 1)] for i in range(n + 1)]
    header = ["matching", "n", "k"] if matchings else ["cycles", "one_line"]
    header += ["des", "mdes", "cmdes", "cr", "ne", "um"]
    lead = [None, n, k] if matchings else [None, None]
    first, *between, b_des, b_mdes, b_cmdes, b_cr, b_ne, tail = _line_template(header, fmt, [*lead, *[None] * 5, k])
    text_cell, masks, cmdes_mask = _text_cell(fmt), _MaskCells(fmt), matching_mod._cmdes_mask

    with _row_sink(header, fmt, output) as write:

        def fold(cr, ne, mdes, des, word):
            arcs = [arc[i][q] for i, q in enumerate(word, 1) if q > i]
            if matchings:
                obj = text_cell(",".join(arcs))
            else:  # between holds the text between the cycles and the one-line word
                cycles, one_line = "".join(arcs) or "()", "[" + ",".join(map(str, word)) + "]"
                obj = f"{text_cell(cycles)}{between[0]}{text_cell(one_line)}"
            write(
                f"{first}{obj}{b_des}{masks[des]}{b_mdes}{masks[mdes]}"
                f"{b_cmdes}{masks[cmdes_mask(word, mdes)]}{b_cr}{cr}{b_ne}{ne}{tail}"
            )

        matching_mod._stat_counts(n, k, fold, ne_max=j, ne_min=j, words=True)


def cmd_orbits(args: argparse.Namespace) -> int:
    n, k, j, fmt = args.n, args.k, args.j, args.format
    _refuse_over_guard("n", n, MAX_N_WITHOUT_FORCE, args.force)
    matching_mod._check_nkj(n, k, j)
    header = ["orbit", "size", "element", "cdes"]
    with _row_sink(header, fmt, args.output) as write:
        try:
            des, cdes, p = cyclic._class_table(n, k, j, cyclic._cr_ne_classes(n, k))
            table = cyclic.orbits(sorted(des), p.__getitem__)  # in increasing order of words, as M_{n,k}
        except Exception as exc:  # the flags were accepted, so this is a broken invariant
            params = {"n": n, "k": k} if j is None else {"n": n, "k": k, "j": j}
            raise InternalError(f"orbits {json.dumps(params)}") from exc
        first, b_size, b_element, b_cdes, tail = _line_template(header, fmt, [None] * 4)
        text_cell, masks = _text_cell(fmt), _MaskCells(fmt)
        for orbit_id, orbit in enumerate(table):
            size = len(orbit)
            for w in orbit:
                element = text_cell(perm.format_cycles(w))
                write(f"{first}{orbit_id}{b_size}{size}{b_element}{element}{b_cdes}{masks[cdes[w]]}{tail}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    name = args.identity
    params = symfun.resolve_params(name, {flag: getattr(args, flag) for flag in _VERIFY_FLAGS})
    for flag, bound in (("n", MAX_N_WITHOUT_FORCE), ("max", MAX_GESSEL_TOTAL_WITHOUT_FORCE)):
        _refuse_over_guard(flag, params.get(flag, 0), bound, args.force)
    start = time.perf_counter()
    try:
        res = symfun.run_identity(name, params)
    except Exception as exc:  # the parameters were accepted, so this is a broken invariant
        raise InternalError(f"verify {name} {json.dumps(params)}") from exc
    report = {
        "identity": name,
        "params": params,
        "ok": res.ok,
        "witness_diff": res.witness_diff,
        "counts": res.counts,
        **res.extra,
    }
    if not res.ok:
        report["failing"] = res.params  # the class, or for gessel the pair, that failed
    report["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    with _until_stdout_closes():  # the verdict stands if no one reads it
        print(json.dumps(report, default=_json_default))
    return 0 if res.ok else 1


def _json_default(value):
    """Descent sets in a witness print as sorted lists, anything else as its str."""
    return sorted(value) if isinstance(value, frozenset) else str(value)


@contextlib.contextmanager
def _until_stdout_closes() -> Iterator[None]:
    """Run the block and flush stdout; if its reader has closed it, stop
    quietly and send the rest, and the flush at exit, to the null device."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchdescents")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_stats = sub.add_parser("stats", help="all statistics of one object")
    objects = p_stats.add_mutually_exclusive_group(required=True)
    objects.add_argument("--perm", help="one-line notation, e.g. [6,2,4,3,7,1,5,8]")
    objects.add_argument("--matching", help="arc list, e.g. 1-6,3-4,5-7")
    objects.add_argument("--syt", help="tableau codec, e.g. 1,3,5,9/2,4,6/7,8")
    objects.add_argument("--cycles", help="cycle notation, e.g. (1,6)(3,4)(5,7)")
    p_stats.add_argument("--n", type=int)
    p_stats.add_argument("--format", choices=["json", "plain"], default="plain")
    p_stats.set_defaults(func=cmd_stats)

    p_map = sub.add_parser("map", help="apply a named map to an object")
    p_map.add_argument("name", choices=MAPS)
    p_map.add_argument("object")
    p_map.add_argument("--n", type=int)
    p_map.set_defaults(func=cmd_map)

    p_enum = sub.add_parser("enum", help="enumerate a family with statistics")
    p_enum.add_argument("family", choices=["matchings", "involutions", "syt"])
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--j", type=int)
    p_enum.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p_enum.add_argument("--output")
    p_enum.set_defaults(func=cmd_enum)

    p_orbits = sub.add_parser("orbits", help="orbit table of the transported rotation")
    p_orbits.add_argument("--n", type=int, required=True)
    p_orbits.add_argument("--k", type=int, required=True)
    p_orbits.add_argument("--j", type=int)
    p_orbits.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p_orbits.add_argument("--output")
    p_orbits.add_argument("--force", action="store_true")
    p_orbits.set_defaults(func=cmd_orbits)

    p_verify = sub.add_parser("verify", help="run one verification identity")
    p_verify.add_argument("identity", choices=list(symfun.REGISTRY))
    for flag in _VERIFY_FLAGS:
        p_verify.add_argument(f"--{flag}", type=int)
    p_verify.add_argument("--force", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _until_stdout_closes():
            return args.func(args)
        return 0  # stdout closed before the command finished its output
    except (UsageError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        cause = exc.__cause__
        print(f"internal error: {exc}: {type(cause).__name__}: {cause}", file=sys.stderr)
        import traceback  # only here, so that a normal run does not import it

        traceback.print_exception(cause)
        return 3


if __name__ == "__main__":
    sys.exit(main())
