"""Command-line front end.

Every subcommand is a pure function of its arguments: no timestamps, no
randomness, stable orderings, so outputs are reproducible byte for byte.
Only reach, sequence and matrix have a CSV rendering.

Exit codes: 0 success, 1 bad input, 2 size guard exceeded, 3 a conjecture
check did not come out clean (failed or incomplete).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .automata import Transformation
from .conjecture import check_conjecture1, check_conjecture2
from .enumeration import (
    closed_form_coeffs,
    lower_bound_ie,
    matrix_power,
    matrix_S,
    r_totals,
    series_closed,
    series_direct,
    succ_count,
    succ_count_oracle,
)
from .errors import SizeGuardError
from .monster import f_bound, reachable_tableaux, state_complexity_shuffle
from .upair import generate_graded, s_projection, witness_full, witness_permutation

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_GUARD = 2
EXIT_CHECK_FAILED = 3

# Limits that --force passes in place of the library's guard defaults.
FORCED_CELLS = 64
FORCED_COUNT = 10**9

# The only commands with a CSV rendering; --format csv is refused elsewhere.
_CSV_COMMANDS = ("reach", "sequence", "matrix")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through CliError so
    # bad input maps to exit code 1 and 2 stays reserved for size guards.
    def error(self, message):
        raise CliError(message)


def _at_least(text: str, low: int, noun: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {noun} of at least {low}, got {value}")
    return value


def _count(text: str) -> int:
    """argparse type of an integer that may be 0 but not negative."""
    return _at_least(text, 0, "a count")


def _size(text: str) -> int:
    """argparse type of a grid side m or n, at least 1."""
    return _at_least(text, 1, "a grid size")


def _positive(text: str) -> int:
    """argparse type of a length or degree, at least 1."""
    return _at_least(text, 1, "an integer")


def _build_parser() -> _Parser:
    parser = _Parser(prog="shufflesc", description=__doc__)
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", help="write the result to this path instead of stdout")
    parser.add_argument("--force", action="store_true", help="widen the size guards")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="valid-tableau count f(m, n)")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)

    p = sub.add_parser("reach", help="reachable tableaux with minimal depths")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")

    p = sub.add_parser("sc", help="exact shuffle state complexity with maximizing finals")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)

    p = sub.add_parser("graded", help="grade-k valid vectors of length n")
    p.add_argument("n", type=_positive)
    p.add_argument("k", type=_count)
    p.add_argument("--count", action="store_true", dest="count_only", help="print only the count")

    p = sub.add_parser("matrix", help="successor-count matrix S_n (optionally a power)")
    p.add_argument("n", type=_positive)
    p.add_argument("--power", type=_count, default=1)

    p = sub.add_parser("sequence", help="totals r_total(n, k) for k = 0..kmax")
    p.add_argument("n", type=_positive)
    p.add_argument("kmax", type=_count)

    p = sub.add_parser("coeffs", help="closed-form rational coefficients for the totals")
    p.add_argument("n", type=_positive)

    p = sub.add_parser("series", help="generating series blocks 0..d, both constructions")
    p.add_argument("d", type=_positive)

    p = sub.add_parser("succ", help="successor count s(n; l -> l+delta)")
    p.add_argument("n", type=_positive)
    p.add_argument("l", type=int)
    p.add_argument("delta", type=_count)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force check")

    p = sub.add_parser("conjecture", help="reachability check at (m, n)")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)
    p.add_argument("--dense", action="store_true", help="check the dense restriction instead")
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")

    p = sub.add_parser("witness", help="explicit witness constructions")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    wp = wsub.add_parser("perm", help="pair hitting the permutation tableau")
    wp.add_argument("n", type=_positive)
    wp.add_argument("sigma", help="comma-separated images, e.g. 1,2,0")
    wf = wsub.add_parser("full", help="pair hitting the full m x n tableau")
    wf.add_argument("m", type=_size)
    wf.add_argument("n", type=_size)

    p = sub.add_parser("lower-bound", help="inclusion-exclusion reachability lower bound")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)
    return parser


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_rows(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def _forced(args, **limits) -> dict:
    """The widened guard under --force; otherwise nothing, so the library default holds."""
    return limits if args.force else {}


def _cmd_bound(args):
    value = f_bound(args.m, args.n)
    if args.fmt == "json":
        _emit(args, _json_dumps({"m": args.m, "n": args.n, "f": value}))
    else:
        _emit(args, str(value))
    return EXIT_OK


def _cmd_reach(args):
    reach = reachable_tableaux(
        args.m, args.n, depth_limit=args.depth_limit, **_forced(args, max_cells=FORCED_CELLS)
    )
    listing = reach.listing()
    if args.fmt == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "count": reach.count,
            "complete": reach.complete,
            "tableaux": [t.to_json(depth=d) for t, d in listing],
        }
        _emit(args, _json_dumps(payload))
    elif args.fmt == "csv":
        rows = [["depth", "cells"]] + [
            [d, ";".join(f"{i}.{j}" for i, j in sorted(t.cells))] for t, d in listing
        ]
        _emit(args, _csv_rows(rows))
    else:
        blocks = [f"{reach.count} reachable tableaux (complete={reach.complete})"]
        for t, d in listing:
            blocks.append(f"depth {d}\n{t.render()}")
        _emit(args, "\n\n".join(blocks))
    return EXIT_OK


def _cmd_sc(args):
    res = state_complexity_shuffle(args.m, args.n, **_forced(args, max_cells=FORCED_CELLS))
    maximizers = [[sorted(f1), sorted(f2)] for f1, f2 in res.maximizers]
    if args.fmt == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "state_complexity": res.value,
            "reachable": res.reachable_count,
            "f_bound": f_bound(args.m, args.n),
            "maximizers": maximizers,
        }
        _emit(args, _json_dumps(payload))
    else:
        f1, f2 = maximizers[0]
        _emit(
            args,
            f"sc({args.m},{args.n}) = {res.value} of f = {f_bound(args.m, args.n)}; "
            f"{len(maximizers)} maximizing final pairs, e.g. F1={f1} F2={f2}",
        )
    return EXIT_OK


def _cmd_graded(args):
    vectors = generate_graded(args.n, args.k, **_forced(args, max_count=FORCED_COUNT))
    if args.count_only:
        _emit(args, str(len(vectors)))
    elif args.fmt == "json":
        _emit(
            args,
            _json_dumps(
                {"n": args.n, "k": args.k, "count": len(vectors),
                 "vectors": [v.to_lists() for v in vectors]}
            ),
        )
    else:
        _emit(args, "\n".join(str(v) for v in vectors))
    return EXIT_OK


def _cmd_matrix(args):
    mat = matrix_power(matrix_S(args.n), args.power)
    if args.fmt == "json":
        _emit(args, _json_dumps({"n": args.n, "power": args.power, "rows": mat.to_lists()}))
    else:
        _emit(args, _csv_rows(mat.rows))
    return EXIT_OK


def _cmd_sequence(args):
    values = r_totals(args.n, args.kmax)
    if args.fmt == "json":
        _emit(args, _json_dumps({"n": args.n, "values": values}))
    elif args.fmt == "csv":
        _emit(args, _csv_rows([["k", "count"]] + [[k, v] for k, v in enumerate(values)]))
    else:
        _emit(args, ",".join(map(str, values)))
    return EXIT_OK


def _cmd_coeffs(args):
    coeffs = closed_form_coeffs(args.n)
    if args.fmt == "json":
        _emit(args, _json_dumps({"n": args.n, "coefficients": list(map(str, coeffs))}))
    else:
        _emit(args, ",".join(map(str, coeffs)))
    return EXIT_OK


def _cmd_series(args):
    guard = _forced(args, max_blocks_guard=FORCED_COUNT)
    direct = series_direct(args.d, **guard)
    closed = series_closed(args.d, **guard)
    agree = direct == closed
    blocks = [list(map(str, direct.y_block(i))) for i in range(args.d + 1)]
    if args.fmt == "json":
        _emit(args, _json_dumps({"d": args.d, "constructions_agree": agree, "y_blocks": blocks}))
    else:
        lines = [f"constructions agree: {agree}"]
        lines += [f"y^{i}: " + ",".join(b) for i, b in enumerate(blocks)]
        _emit(args, "\n".join(lines))
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_succ(args):
    if not 1 <= args.l <= args.n:
        raise CliError(f"expected l in 1..{args.n}, got {args.l}")
    value = succ_count(args.n, args.l, args.delta)
    payload = {"n": args.n, "l": args.l, "delta": args.delta, "count": value}
    if args.oracle:
        payload["oracle"] = succ_count_oracle(
            args.n, args.l, args.delta, **_forced(args, max_maps=FORCED_COUNT)
        )
        payload["agree"] = payload["oracle"] == value
    if args.fmt == "json":
        _emit(args, _json_dumps(payload))
    elif args.oracle:
        _emit(args, f"{value} (oracle {payload['oracle']}, agree={payload['agree']})")
    else:
        _emit(args, str(value))
    return EXIT_OK if payload.get("agree", True) else EXIT_CHECK_FAILED


def _cmd_conjecture(args):
    check = check_conjecture2 if args.dense else check_conjecture1
    report = check(
        args.m, args.n, depth_limit=args.depth_limit, **_forced(args, max_cells=FORCED_CELLS)
    )
    if args.fmt == "json":
        _emit(args, report.json_dumps())
    else:
        which = "dense reachability" if args.dense else "valid reachability"
        _emit(
            args,
            f"{which} ({args.m},{args.n}): {report.status}, "
            f"{report.reachable_count}/{report.valid_count} valid tableaux reached, "
            f"saturation depth {report.saturation_depth}",
        )
    return EXIT_OK if report.holds() else EXIT_CHECK_FAILED


def _cmd_witness(args):
    if args.witness_kind == "perm":
        try:
            images = [int(x) for x in args.sigma.split(",")]
        except ValueError:
            images = []
        if sorted(images) != list(range(args.n)):
            raise CliError(
                f"expected a comma list of 0..{args.n - 1} in some order, got {args.sigma!r}"
            )
        pair = witness_permutation(Transformation(images))
    else:
        pair = witness_full(args.m, args.n)
    tableau = s_projection(pair)
    if args.fmt == "json":
        payload = pair.to_json()
        payload["tableau"] = tableau.to_json()
        _emit(args, _json_dumps(payload))
    else:
        _emit(
            args,
            f"grade {pair.grade}\nleft  = {pair.left}\nright = {pair.right}\n"
            f"{tableau.render()}",
        )
    return EXIT_OK


def _cmd_lower_bound(args):
    value = lower_bound_ie(args.m, args.n)
    if args.fmt == "json":
        _emit(args, _json_dumps({"m": args.m, "n": args.n, "lower_bound": value}))
    else:
        _emit(args, str(value))
    return EXIT_OK


_HANDLERS = {
    "bound": _cmd_bound,
    "reach": _cmd_reach,
    "sc": _cmd_sc,
    "graded": _cmd_graded,
    "matrix": _cmd_matrix,
    "sequence": _cmd_sequence,
    "coeffs": _cmd_coeffs,
    "series": _cmd_series,
    "succ": _cmd_succ,
    "conjecture": _cmd_conjecture,
    "witness": _cmd_witness,
    "lower-bound": _cmd_lower_bound,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.fmt == "csv" and args.command not in _CSV_COMMANDS:
            raise CliError(f"--format csv is not supported by {args.command}")
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SizeGuardError as exc:
        message = str(exc)
        if not args.force:
            # the library names its keyword; --force is what widens it here
            message = re.sub(r"raise \w+ to override$", "pass --force to override", message)
        print(f"size guard: {message}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())
