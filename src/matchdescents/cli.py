"""
Command-line front end: object statistics, named maps, enumeration
tables, orbit tables and the verification suite.

Exit codes: 0 on success, 1 when a verified identity fails, 2 on usage
or parse errors.
"""
from __future__ import annotations

import argparse
import collections
import csv
import io
import json
import sys
import time
from typing import Sequence

from . import bijection, cyclic, matching as matching_mod, oscillating, perm, symfun, tableau
from .perm import ParseError

MAX_N_WITHOUT_FORCE = 12
MAX_GESSEL_TOTAL_WITHOUT_FORCE = 9  # 52,328 pairs; 444,012 at 10

MAP_NAMES = [
    "iota",
    "iota-hat",
    "iota-hat-inv",
    "sundaram",
    "sundaram-inv",
    "transpose",
    "phi",
    "q",
    "rotate",
    "p",
    "h",
]

# The flags each identity takes; the rest are refused, and the report's
# params name exactly these.
VERIFY_PARAMS = {
    "main1": ("n",),
    "main11": ("n", "k"),
    "main111": ("n", "k"),
    "main0": ("n",),
    "cdes": ("n", "k", "j"),
    "gessel": ("max",),
    "chen": ("n",),
    "sundaram-roundtrip": ("n",),
    "kim": ("n",),
    "roby": ("n",),
}
GESSEL_DEFAULT_MAX = 6


class UsageError(Exception):
    pass


def _parse_involution(text: str, n: int | None) -> tuple[tuple[int, ...], str]:
    """Accept cycles, one-line or matching codec; return (word, codec)."""
    text = text.strip()
    if text.startswith("["):
        return perm.parse_one_line(text), "one-line"
    if text.startswith("(") or text == "":
        if n is None:
            raise UsageError("cycle notation requires --n")
        return perm.parse_cycles(text, n), "cycles"
    if n is None:
        raise UsageError("matching notation requires --n")
    return matching_mod.to_involution(matching_mod.parse_matching(text, n)), "matching"


def _format_involution(word: tuple[int, ...], codec: str) -> str:
    if codec == "one-line":
        return perm.format_one_line(word)
    if codec == "matching":
        return matching_mod.format_matching(matching_mod.from_involution(word))
    return perm.format_cycles(word)


def cmd_stats(args: argparse.Namespace) -> int:
    record: dict = {}
    if args.perm:
        word = perm.parse_one_line(args.perm)
        record = {
            "object": perm.format_one_line(word),
            "n": len(word),
            "Des": sorted(perm.des(word).members),
            "cDes_cellini": sorted(perm.cellini_cdes(word).members),
            "cycle_type": list(perm.cycle_type(word)),
            "fixed_points": sorted(perm.fixed_points(word)),
            "is_involution": perm.is_involution(word),
        }
        if perm.is_involution(word):
            m = matching_mod.from_involution(word)
            record.update(_matching_stats(m))
    elif args.matching is not None:
        if args.n is None:
            raise UsageError("--matching requires --n")
        m = matching_mod.parse_matching(args.matching, args.n)
        record = {"object": matching_mod.format_matching(m), "n": m.n}
        record.update(_matching_stats(m))
    elif args.syt:
        t = tableau.parse_tableau(args.syt)
        record = {
            "object": tableau.format_tableau(t),
            "shape": list(t.shape),
            "height": tableau.height(t.shape),
            "odd_cols": tableau.odd_cols(t.shape),
            "Des": sorted(tableau.des(t).members),
        }
    elif args.cycles is not None:
        if args.n is None:
            raise UsageError("--cycles requires --n")
        word = perm.parse_cycles(args.cycles, args.n)
        args.perm = perm.format_one_line(word)
        return cmd_stats(args)
    else:
        raise UsageError("one of --perm, --matching, --syt, --cycles is required")

    if args.format == "json":
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}={_plain(value)}")
    return 0


def _matching_stats(m: matching_mod.Matching) -> dict:
    return {
        "Des": sorted(matching_mod.des(m).members),
        "MDes": sorted(matching_mod.mdes(m).members),
        "cMDes": sorted(matching_mod.cmdes(m).members),
        "cr": matching_mod.crossing_number(m),
        "ne": matching_mod.nesting_number(m),
        "um": m.unmatched,
    }


def _plain(value) -> str:
    if isinstance(value, list):
        return "{" + ",".join(map(str, value)) + "}" if all(isinstance(v, int) for v in value) else str(value)
    return str(value)


def cmd_map(args: argparse.Namespace) -> int:
    name = args.name
    text = args.object

    if name in ("sundaram-inv", "transpose") or (";" in text):
        o = oscillating.parse_oscillating(text)
        if name == "transpose":
            print(oscillating.format_oscillating(oscillating.transpose(o)))
            return 0
        if name == "sundaram-inv":
            print(perm.format_cycles(oscillating.sundaram_inverse(o)))
            return 0
        raise UsageError(f"map {name} does not accept an oscillating tableau")

    word, codec = _parse_involution(text, args.n)

    if name == "iota":
        m = matching_mod.from_involution(word)
        image = oscillating.chen_iota(m)
        print(_format_involution(matching_mod.to_involution(image), codec))
    elif name == "iota-hat":
        print(_format_involution(bijection.iota_hat(word), codec))
    elif name == "iota-hat-inv":
        print(_format_involution(bijection.iota_hat_inverse(word), codec))
    elif name == "sundaram":
        print(oscillating.format_oscillating(oscillating.sundaram(word)))
    elif name == "phi":
        print(perm.format_one_line(bijection.phi(word).word))
    elif name == "q":
        k = args.k if args.k is not None else tableau.odd_cols(tableau.rs_pair_q(word).shape)
        element = bijection.ShuffleElement(word, k)
        print(_format_involution(bijection.q_map(element), codec))
    elif name == "rotate":
        m = matching_mod.from_involution(word)
        rotated = matching_mod.to_involution(matching_mod.rotate(m))
        print(_format_involution(rotated, codec))
    elif name == "p":
        print(_format_involution(cyclic.p_map_involution(word), codec))
    elif name == "h":
        print(tableau.format_tableau(bijection.h_map(word)))
    else:
        raise UsageError(f"unknown map {name!r}")
    return 0


def _emit_rows(header: list[str], rows: list[list], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = "\n".join(json.dumps(dict(zip(header, row))) for row in rows) + "\n"
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _set_str(members) -> str:
    return "{" + ",".join(map(str, sorted(members))) + "}"


def cmd_enum(args: argparse.Namespace) -> int:
    n, k, j = args.n, args.k, args.j
    if args.family == "matchings":
        if k is None:
            raise UsageError("enum matchings requires --k")
        header = ["matching", "n", "k", "des", "mdes", "cmdes", "cr", "ne", "um"]
        rows = []
        for m in matching_mod.enumerate_matchings(n, k):
            rows.append(
                [
                    matching_mod.format_matching(m),
                    m.n,
                    k,
                    _set_str(matching_mod.des(m).members),
                    _set_str(matching_mod.mdes(m).members),
                    _set_str(matching_mod.cmdes(m).members),
                    *matching_mod.crossing_nesting(m),
                    m.unmatched,
                ]
            )
    elif args.family == "involutions":
        if k is None:
            raise UsageError("enum involutions requires --k")
        source = matching_mod.enumerate_inkj(n, k, j) if j is not None else matching_mod.enumerate_matchings(n, k)
        header = ["cycles", "one_line", "des", "mdes", "cmdes", "cr", "ne", "um"]
        rows = []
        for m in source:
            word = matching_mod.to_involution(m)
            rows.append(
                [
                    perm.format_cycles(word),
                    perm.format_one_line(word),
                    _set_str(matching_mod.des(m).members),
                    _set_str(matching_mod.mdes(m).members),
                    _set_str(matching_mod.cmdes(m).members),
                    *matching_mod.crossing_nesting(m),
                    m.unmatched,
                ]
            )
    elif args.family == "syt":
        if k is None:
            stream = tableau.enumerate_syt_n(n)
        elif j is None:
            stream = tableau.enumerate_syt_nk(n, k)
        else:
            stream = tableau.enumerate_syt_nkj(n, k, j)
        header = ["tableau", "shape", "height", "odd_cols", "des"]
        rows = []
        for t in stream:
            rows.append(
                [
                    tableau.format_tableau(t),
                    tableau.format_shape(t.shape),
                    tableau.height(t.shape),
                    tableau.odd_cols(t.shape),
                    _set_str(tableau.des(t).members),
                ]
            )
    else:
        raise UsageError(f"unknown family {args.family!r}")
    _emit_rows(header, rows, args.format, args.output)
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    n, k, j = args.n, args.k, args.j
    source = matching_mod.enumerate_inkj(n, k, j) if j is not None else matching_mod.enumerate_matchings(n, k)
    elements = [matching_mod.to_involution(m) for m in source]
    remaining = set(elements)
    header = ["orbit", "size", "element", "cdes"]
    rows = []
    orbit_id = 0
    for start in elements:
        if start not in remaining:
            continue
        orbit = []
        y = start
        while not orbit or y != start:
            cdes, image = cyclic.transport_involution(y)
            orbit.append((y, cdes))
            y = image
        remaining -= {w for w, _ in orbit}
        for w, cdes in orbit:
            rows.append([orbit_id, len(orbit), perm.format_cycles(w), _set_str(cdes.members)])
        orbit_id += 1
    _emit_rows(header, rows, args.format, args.output)
    return 0


def _verify_dispatch(args: argparse.Namespace) -> tuple[bool, dict]:
    identity = args.identity
    n, k, j = args.n, args.k, args.j
    counts: dict = {}
    witness: list = []
    extra: dict = {}

    def need_n() -> int:
        if n is None:
            raise UsageError(f"verify {identity} requires --n")
        return n

    if identity == "main1":
        res = symfun.verify_lemma_main1(need_n())
    elif identity in ("main11", "main111"):
        fn = symfun.verify_main11 if identity == "main11" else symfun.verify_main111
        if k is not None:
            res = fn(need_n(), k)
        else:
            nn = need_n()
            res = None
            total: collections.Counter = collections.Counter()
            for kk in range(nn % 2, nn + 1, 2):
                sub = fn(nn, kk)
                total.update(sub.counts)
                if res is None or not sub.ok:
                    res = sub
                if not sub.ok:
                    break
            res.counts = dict(total)
    elif identity == "main0":
        res = symfun.verify_main0(need_n())
    elif identity == "gessel":
        res = symfun.verify_gessel_all(args.max)
    elif identity == "cdes":
        nn = need_n()
        ok = True
        checked = 0
        for kk in range(nn % 2, nn + 1, 2) if k is None else [k]:
            j_range = range((nn - kk) // 2 + 1) if j is None else [j]
            classes = cyclic.involutions_by_nesting(nn, kk)
            for jj in j_range:
                classification = cyclic.classify_escherian(nn, kk, jj)
                report = cyclic.verify_cdes_involutions(nn, kk, jj, classes[jj])
                checked += 1
                expected_non_escher = classification == "non_escherian"
                sub_ok = (
                    report.extension_ok
                    and report.equivariance_ok
                    and report.non_escher_ok == expected_non_escher
                )
                if k is not None and j is not None:
                    extra["classification"] = classification
                if not sub_ok:
                    ok = False
                    witness.append({"set": report.set_id, "report": json.loads(report.to_json())})
        counts["classes_checked"] = checked
        res = symfun.VerifyResult("cdes", {"n": nn, "k": k, "j": j}, ok, witness, counts)
    elif identity == "chen":
        nn = need_n()
        ok = True
        checked = 0
        for m in matching_mod.enumerate_matchings(nn, 0):
            image = oscillating.chen_iota(m)
            checked += 1
            if (
                oscillating.chen_iota(image) != m
                or matching_mod.crossing_number(m) != matching_mod.nesting_number(image)
                or matching_mod.des(image).members != matching_mod.mdes(m).members
            ):
                ok = False
                witness.append(matching_mod.format_matching(m))
        res = symfun.VerifyResult("chen", {"n": nn}, ok, witness, {"matchings": checked})
    elif identity == "sundaram-roundtrip":
        nn = need_n()
        ok = True
        checked = 0
        for m in matching_mod.enumerate_matchings(nn, 0):
            word = matching_mod.to_involution(m)
            checked += 1
            if oscillating.sundaram_inverse(oscillating.sundaram(word)) != word:
                ok = False
                witness.append(perm.format_cycles(word))
        res = symfun.VerifyResult("sundaram-roundtrip", {"n": nn}, ok, witness, {"involutions": checked})
    elif identity == "kim":
        nn = need_n()
        ok = True
        checked = 0
        for m in matching_mod.enumerate_matchings(nn, 0):
            word = matching_mod.to_involution(m)
            checked += 1
            if oscillating.kim_des(oscillating.sundaram(word)).members != perm.des(word).members:
                ok = False
                witness.append(perm.format_cycles(word))
        res = symfun.VerifyResult("kim", {"n": nn}, ok, witness, {"involutions": checked})
    elif identity == "roby":
        nn = need_n()
        ok = True
        checked = 0
        for m in matching_mod.enumerate_matchings(nn, 0):
            word = matching_mod.to_involution(m)
            checked += 1
            reversed_shapes = tuple(reversed(oscillating.sundaram(word).shapes))
            if oscillating.sundaram(perm.conjugate_w0(word)).shapes != reversed_shapes:
                ok = False
                witness.append(perm.format_cycles(word))
        res = symfun.VerifyResult("roby", {"n": nn}, ok, witness, {"involutions": checked})
    else:
        raise UsageError(f"unknown identity {identity!r}")

    report = {
        "identity": res.identity,
        "params": {flag: getattr(args, flag) for flag in VERIFY_PARAMS[identity]},
        "ok": res.ok,
        "witness_diff": [list(w) if isinstance(w, tuple) else w for w in res.witness_diff],
        "counts": res.counts,
        **extra,
    }
    if not res.ok:
        report["failing"] = res.params  # the class, or for gessel the pair, that failed
    return res.ok, report


def cmd_verify(args: argparse.Namespace) -> int:
    takes = VERIFY_PARAMS[args.identity]
    for flag in ("n", "k", "j", "max"):
        if flag not in takes and getattr(args, flag) is not None:
            raise UsageError(f"verify {args.identity} does not take --{flag}")
    if args.identity == "gessel" and args.max is None:
        args.max = GESSEL_DEFAULT_MAX
    if args.n is not None and args.n > MAX_N_WITHOUT_FORCE and not args.force:
        raise UsageError(f"n={args.n} exceeds the guard ({MAX_N_WITHOUT_FORCE}); pass --force to run anyway")
    if args.max is not None and args.max > MAX_GESSEL_TOTAL_WITHOUT_FORCE and not args.force:
        raise UsageError(
            f"max={args.max} exceeds the guard ({MAX_GESSEL_TOTAL_WITHOUT_FORCE}); pass --force to run anyway"
        )
    start = time.perf_counter()
    ok, report = _verify_dispatch(args)
    report["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    print(json.dumps(report, default=_json_default))
    return 0 if ok else 1


def _json_default(value):
    """Descent sets in a witness print as sorted lists, anything else as its str."""
    return sorted(value) if isinstance(value, frozenset) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchdescents")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_stats = sub.add_parser("stats", help="all statistics of one object")
    p_stats.add_argument("--perm", help="one-line notation, e.g. [6,2,4,3,7,1,5,8]")
    p_stats.add_argument("--matching", help="arc list, e.g. 1-6,3-4,5-7")
    p_stats.add_argument("--syt", help="tableau codec, e.g. 1,3,5,9/2,4,6/7,8")
    p_stats.add_argument("--cycles", help="cycle notation, e.g. (1,6)(3,4)(5,7)")
    p_stats.add_argument("--n", type=int)
    p_stats.add_argument("--format", choices=["json", "plain"], default="plain")
    p_stats.set_defaults(func=cmd_stats)

    p_map = sub.add_parser("map", help="apply a named map to an object")
    p_map.add_argument("name", choices=MAP_NAMES)
    p_map.add_argument("object")
    p_map.add_argument("--n", type=int)
    p_map.add_argument("--k", type=int)
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
    p_orbits.set_defaults(func=cmd_orbits)

    p_verify = sub.add_parser("verify", help="run one verification identity")
    p_verify.add_argument("identity", choices=list(VERIFY_PARAMS))
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--max", type=int)
    p_verify.add_argument("--force", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
