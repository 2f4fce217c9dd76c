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
import sys
from functools import partial

from .automata import Transformation, bits
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
from .monster import f_bound, mask_lines, reachable_tableaux, state_complexity_shuffle
from .upair import (
    Packing,
    graded_level,
    part_texts,
    s_projection,
    stamp_guard,
    witness_full,
    witness_permutation,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_GUARD = 2
EXIT_CHECK_FAILED = 3

# Limits that --force passes in place of the library's guard defaults.
# reach, sc and conjecture keep a depth table of one byte per mask, 2^(mn)
# bytes, so their forced grids stop at 25 cells: 32 MiB at 5x5
FORCED_CELLS = 25
FORCED_COUNT = 10**9
# witness full writes every element of both sides as text: 2^23 per side
# make 132 MB of output at a peak near 1.1 GiB, so --force widens it to that
FORCED_WITNESS = 1 << 23

# bound and lower-bound print an exact value of about m*n bits, and writing
# it in decimal takes time quadratic in that: larger grids are refused.
MAX_VALUE_CELLS = 1 << 18

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


class _LazyParser:
    """A subcommand's parser as `add_parser` registers it: its keywords and
    the function that adds its arguments.  The parser is built only in
    `parse_known_args`, the one method argparse calls on a subparser, so a
    command line builds the parsers it dispatches to and no others."""

    def __init__(self, arguments, **kwargs):
        self.arguments, self.kwargs = arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        self.arguments(parser)
        return parser.parse_known_args(args, namespace)


def _add_subcommands(parser, dest: str, table: dict) -> None:
    """One subcommand per entry `name: (help, arguments function, ...)`."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_LazyParser)
    for name, (text, arguments, *_) in table.items():
        sub.add_parser(name, help=text, arguments=arguments)


def _build_parser() -> _Parser:
    parser = _Parser(prog="shufflesc", description=__doc__)
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", help="write the result to this path instead of stdout")
    parser.add_argument("--force", action="store_true", help="widen the size guards")
    _add_subcommands(parser, "command", _COMMANDS)
    return parser


def _grid(p):
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)


def _reach_arguments(p):
    _grid(p)
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")


def _graded_arguments(p):
    p.add_argument("n", type=_positive)
    p.add_argument("k", type=_count)
    p.add_argument("--count", action="store_true", dest="count_only", help="print only the count")


def _matrix_arguments(p):
    p.add_argument("n", type=_positive)
    p.add_argument("--power", type=_count, default=1)


def _sequence_arguments(p):
    p.add_argument("n", type=_positive)
    p.add_argument("kmax", type=_count)


def _succ_arguments(p):
    p.add_argument("n", type=_positive)
    p.add_argument("l", type=int)
    p.add_argument("delta", type=_count)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force check")


def _conjecture_arguments(p):
    _grid(p)
    p.add_argument("--dense", action="store_true", help="check the dense restriction instead")
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")


def _perm_arguments(p):
    p.add_argument("n", type=_positive)
    p.add_argument("sigma", help="comma-separated images, e.g. 1,2,0")


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


def _value_guard(args) -> None:
    """Refuse an exact value over more than MAX_VALUE_CELLS cells, or more
    than FORCED_COUNT under --force, before it is built."""
    cells, limit = args.m * args.n, FORCED_COUNT if args.force else MAX_VALUE_CELLS
    if cells > limit:
        raise SizeGuardError(
            f"the exact value at {args.m}x{args.n} has about {cells} bits, "
            f"beyond the guard of {limit} bits"
        )


def _cmd_bound(args):
    _value_guard(args)
    value = f_bound(args.m, args.n)
    if args.fmt == "json":
        _emit(args, _json_dumps({"m": args.m, "n": args.n, "f": value}))
    else:
        _emit(args, str(value))
    return EXIT_OK


def _row_text(fmt: str, i: int, n: int, s: int) -> str:
    """Row i of a reached tableau with row line s, as `reach` writes it in
    this format, ending in one separator that the writer strips."""
    if fmt == "json":
        return "".join(f"[{i},{j}]," for j in bits(s))
    if fmt == "csv":
        return "".join(f"{i}.{j};" for j in bits(s))
    return "".join(".×"[s >> j & 1] for j in range(n)) + "\n"


class _RowTexts(dict):
    """`_row_text` of one row of a grid in one format, by row line, each
    made on first use."""

    def __init__(self, *row):
        super().__init__()
        self.row = row

    def __missing__(self, s):
        text = self[s] = _row_text(*self.row, s)
        return text


def _cmd_reach(args):
    reach = reachable_tableaux(
        args.m, args.n, depth_limit=args.depth_limit, **_forced(args, max_cells=FORCED_CELLS)
    )
    m, n = args.m, args.n
    width = (1 << n) - 1
    rows = [(t, _RowTexts(args.fmt, i, n)) for i, t in enumerate(mask_lines(m, n).row_shifts)]
    # one block per depth, each written from the masks of that depth, in
    # increasing mask order; a tableau is its m row texts joined, less the
    # last separator: every reached tableau is valid, so it has a cell and
    # the join is not empty
    blocks = []
    for d in reach.depth_histogram():
        masks = reach.level(d)
        columns = [[texts[mask >> t & width] for mask in masks] for t, texts in rows]
        tableaux = [text[:-1] for text in map("".join, zip(*columns))]
        if args.fmt == "json":
            # the text _json_dumps would write, keys sorted
            tail = f'],"depth":{d},"m":{m},"n":{n}}}'
            blocks.append('{"cells":[' + f'{tail},{{"cells":['.join(tableaux) + tail)
        elif args.fmt == "csv":
            blocks.append(f"{d}," + f"\n{d},".join(tableaux))
        else:
            blocks.append(f"depth {d}\n" + f"\n\ndepth {d}\n".join(tableaux))
    if args.fmt == "json":
        _emit(
            args,
            f'{{"complete":{_json_dumps(reach.complete)},"count":{reach.count},'
            f'"m":{m},"n":{n},"tableaux":[{",".join(blocks)}]}}',
        )
    elif args.fmt == "csv":
        _emit(args, "\n".join(["depth,cells"] + blocks))
    else:
        head = f"{reach.count} reachable tableaux (complete={reach.complete})"
        _emit(args, "\n\n".join([head] + blocks))
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
    if args.force and not args.count_only:
        # a listing writes every element as text, as witness full does
        stamp_guard(args.k, f"a written graded vector of length {args.n}", FORCED_WITNESS)
    level = graded_level(args.n, args.k, **_forced(args, max_count=FORCED_COUNT))
    if args.count_only:
        _emit(args, str(len(level)))
        return EXIT_OK
    vectors, parts = Packing(args.n, args.k).ranks(level)
    del level  # the packed level is not held through the sort
    vectors.sort()
    # each part is decoded once, and each vector written from its ranks;
    # the JSON is what _json_dumps would write
    text = part_texts(parts, "[]" if args.fmt == "json" else "{}").__getitem__
    rows = map("[{}]".format, map(",".join, map(partial(map, text), vectors)))
    if args.fmt == "json":
        _emit(
            args,
            f'{{"count":{len(vectors)},"k":{args.k},"n":{args.n},"vectors":[{",".join(rows)}]}}',
        )
    else:
        _emit(args, "\n".join(rows))
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
    blocks = [list(map(str, block)) for block in direct]
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
        pair = witness_full(args.m, args.n, **_forced(args, max_count=FORCED_WITNESS))
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
    _value_guard(args)
    value = lower_bound_ie(args.m, args.n)
    if args.fmt == "json":
        _emit(args, _json_dumps({"m": args.m, "n": args.n, "lower_bound": value}))
    else:
        _emit(args, str(value))
    return EXIT_OK


_WITNESS_KINDS = {
    "perm": ("pair hitting the permutation tableau", _perm_arguments),
    "full": ("pair hitting the full m x n tableau", _grid),
}

# subcommand -> (help, the function adding its arguments, handler)
_COMMANDS = {
    "bound": ("valid-tableau count f(m, n)", _grid, _cmd_bound),
    "reach": ("reachable tableaux with minimal depths", _reach_arguments, _cmd_reach),
    "sc": ("exact shuffle state complexity with maximizing finals", _grid, _cmd_sc),
    "graded": ("grade-k valid vectors of length n", _graded_arguments, _cmd_graded),
    "matrix": ("successor-count matrix S_n (optionally a power)", _matrix_arguments, _cmd_matrix),
    "sequence": ("totals r_total(n, k) for k = 0..kmax", _sequence_arguments, _cmd_sequence),
    "coeffs": (
        "closed-form rational coefficients for the totals",
        lambda p: p.add_argument("n", type=_positive),
        _cmd_coeffs,
    ),
    "series": (
        "generating series blocks 0..d, both constructions",
        lambda p: p.add_argument("d", type=_positive),
        _cmd_series,
    ),
    "succ": ("successor count s(n; l -> l+delta)", _succ_arguments, _cmd_succ),
    "conjecture": ("reachability check at (m, n)", _conjecture_arguments, _cmd_conjecture),
    "witness": (
        "explicit witness constructions",
        lambda p: _add_subcommands(p, "witness_kind", _WITNESS_KINDS),
        _cmd_witness,
    ),
    "lower-bound": ("inclusion-exclusion reachability lower bound", _grid, _cmd_lower_bound),
}


def main(argv=None) -> int:
    # exact values can have more digits than the interpreter's int-to-str
    # limit (4300 by default; there is none before 3.10.7): lift it while the
    # CLI runs, and restore it after
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.fmt == "csv" and args.command not in _CSV_COMMANDS:
            raise CliError(f"--format csv is not supported by {args.command}")
        return _COMMANDS[args.command][2](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SizeGuardError as exc:
        # the library names its keyword; --force is what widens it here
        message = str(exc) if args.force else exc.refusal + "; pass --force to override"
        print(f"size guard: {message}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())
