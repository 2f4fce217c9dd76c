"""Command-line front end.

Every subcommand is a pure function of its arguments: no timestamps, no
randomness, stable orderings, so outputs are reproducible byte for byte.

Exit codes: 0 success, 1 bad input, 2 size guard exceeded, 3 a conjecture
check did not come out clean (failed or incomplete).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import Transformation
from .conjecture import check_conjecture1, check_conjecture2
from .enumeration import (
    closed_form_coeffs,
    lower_bound_ie,
    matrix_power,
    matrix_S,
    r_total,
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

# Guard defaults, widened only through --force.
GUARD_REACH_CELLS = 16
GUARD_SC_CELLS = 12
GUARD_GRADED_COUNT = 2_000_000
GUARD_SERIES_BLOCKS = 64
GUARD_ORACLE_MAPS = 2_000_000
GUARD_PERMUTATION_SIZE = 6
FORCED_CELLS = 64
FORCED_COUNT = 10**9


@dataclass
class RunConfig:
    """Everything one invocation needs; built from parsed arguments."""

    command: str
    m: Optional[int] = None
    n: Optional[int] = None
    k: Optional[int] = None
    kmax: Optional[int] = None
    l: Optional[int] = None
    delta: Optional[int] = None
    d: Optional[int] = None
    power: Optional[int] = None
    sigma: Optional[str] = None
    witness_kind: Optional[str] = None
    fmt: str = "text"
    output: Optional[str] = None
    force: bool = False
    oracle: bool = False
    dense: bool = False
    count_only: bool = False
    depth_limit: Optional[int] = None
    threads: int = 1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through CliError so
    # bad input maps to exit code 1 and 2 stays reserved for size guards.
    def error(self, message):
        raise CliError(message)


def _count(text: str) -> int:
    """argparse type of an integer that may be 0 but not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="shufflesc", description=__doc__)
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", help="write the result to this path instead of stdout")
    parser.add_argument("--force", action="store_true", help="widen the size guards")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="cap on internal parallelism (the current implementation is serial,"
        " so any cap is honored trivially)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="valid-tableau count f(m, n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("reach", help="reachable tableaux with minimal depths")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")

    p = sub.add_parser("sc", help="exact shuffle state complexity with maximizing finals")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("graded", help="grade-k valid vectors of length n")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--count", action="store_true", dest="count_only", help="print only the count")

    p = sub.add_parser("matrix", help="successor-count matrix S_n (optionally a power)")
    p.add_argument("n", type=int)
    p.add_argument("--power", type=int, default=1)

    p = sub.add_parser("sequence", help="totals r_total(n, k) for k = 0..kmax")
    p.add_argument("n", type=int)
    p.add_argument("kmax", type=_count)

    p = sub.add_parser("coeffs", help="closed-form rational coefficients for the totals")
    p.add_argument("n", type=int)

    p = sub.add_parser("series", help="generating series blocks 0..d, both constructions")
    p.add_argument("d", type=int)

    p = sub.add_parser("succ", help="successor count s(n; l -> l+delta)")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("delta", type=int)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force check")

    p = sub.add_parser("conjecture", help="reachability check at (m, n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--dense", action="store_true", help="check the dense restriction instead")
    p.add_argument("--depth-limit", type=_count, dest="depth_limit")

    p = sub.add_parser("witness", help="explicit witness constructions")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    wp = wsub.add_parser("perm", help="pair hitting the permutation tableau")
    wp.add_argument("n", type=int)
    wp.add_argument("sigma", help="comma-separated images, e.g. 1,2,0")
    wf = wsub.add_parser("full", help="pair hitting the full m x n tableau")
    wf.add_argument("m", type=int)
    wf.add_argument("n", type=int)

    p = sub.add_parser("lower-bound", help="inclusion-exclusion reachability lower bound")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    return parser


def _config_from_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for name in vars(cfg):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    return cfg


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {cfg.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_rows(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def run(cfg: RunConfig) -> int:
    """Execute one configuration and emit its artifact; returns an exit code."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise CliError(f"unknown command {cfg.command!r}")
    return handler(cfg)


def _cmd_bound(cfg):
    value = f_bound(cfg.m, cfg.n)
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"m": cfg.m, "n": cfg.n, "f": value}))
    else:
        _emit(cfg, str(value))
    return EXIT_OK


def _cmd_reach(cfg):
    max_cells = FORCED_CELLS if cfg.force else GUARD_REACH_CELLS
    reach = reachable_tableaux(cfg.m, cfg.n, depth_limit=cfg.depth_limit, max_cells=max_cells)
    listing = reach.tableaux()
    if cfg.fmt == "json":
        payload = {
            "m": cfg.m,
            "n": cfg.n,
            "count": reach.count,
            "complete": reach.complete,
            "tableaux": [t.to_json(depth=reach.depths[t]) for t in listing],
        }
        _emit(cfg, _json_dumps(payload))
    elif cfg.fmt == "csv":
        rows = [["depth", "cells"]] + [
            [reach.depths[t], ";".join(f"{i}.{j}" for i, j in sorted(t.cells))]
            for t in listing
        ]
        _emit(cfg, _csv_rows(rows))
    else:
        blocks = [f"{reach.count} reachable tableaux (complete={reach.complete})"]
        for t in listing:
            blocks.append(f"depth {reach.depths[t]}\n{t.render()}")
        _emit(cfg, "\n\n".join(blocks))
    return EXIT_OK


def _cmd_sc(cfg):
    max_cells = FORCED_CELLS if cfg.force else GUARD_SC_CELLS
    res = state_complexity_shuffle(cfg.m, cfg.n, max_cells=max_cells)
    maximizers = [[sorted(f1), sorted(f2)] for f1, f2 in res.maximizers]
    if cfg.fmt == "json":
        payload = {
            "m": cfg.m,
            "n": cfg.n,
            "state_complexity": res.value,
            "reachable": res.reachable_count,
            "f_bound": f_bound(cfg.m, cfg.n),
            "maximizers": maximizers,
        }
        _emit(cfg, _json_dumps(payload))
    else:
        f1, f2 = maximizers[0]
        _emit(
            cfg,
            f"sc({cfg.m},{cfg.n}) = {res.value} of f = {f_bound(cfg.m, cfg.n)}; "
            f"{len(maximizers)} maximizing final pairs, e.g. F1={f1} F2={f2}",
        )
    return EXIT_OK


def _cmd_graded(cfg):
    max_count = FORCED_COUNT if cfg.force else GUARD_GRADED_COUNT
    vectors = generate_graded(cfg.n, cfg.k, max_count=max_count)
    if cfg.count_only:
        _emit(cfg, str(len(vectors)))
    elif cfg.fmt == "json":
        _emit(
            cfg,
            _json_dumps(
                {"n": cfg.n, "k": cfg.k, "count": len(vectors),
                 "vectors": [v.to_lists() for v in vectors]}
            ),
        )
    else:
        _emit(cfg, "\n".join(str(v) for v in vectors))
    return EXIT_OK


def _cmd_matrix(cfg):
    mat = matrix_power(matrix_S(cfg.n), cfg.power)
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"n": cfg.n, "power": cfg.power, "rows": mat.to_lists()}))
    else:
        _emit(cfg, _csv_rows(mat.rows))
    return EXIT_OK


def _cmd_sequence(cfg):
    values = [r_total(cfg.n, k) for k in range(cfg.kmax + 1)]
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"n": cfg.n, "values": values}))
    elif cfg.fmt == "csv":
        _emit(cfg, _csv_rows([["k", "count"]] + [[k, v] for k, v in enumerate(values)]))
    else:
        _emit(cfg, ",".join(map(str, values)))
    return EXIT_OK


def _cmd_coeffs(cfg):
    coeffs = closed_form_coeffs(cfg.n)
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"n": cfg.n, "coefficients": [_frac(c) for c in coeffs]}))
    else:
        _emit(cfg, ",".join(_frac(c) for c in coeffs))
    return EXIT_OK


def _cmd_series(cfg):
    guard = FORCED_COUNT if cfg.force else GUARD_SERIES_BLOCKS
    direct = series_direct(cfg.d, max_blocks_guard=guard)
    closed = series_closed(cfg.d, max_blocks_guard=guard)
    agree = direct == closed
    blocks = [[_frac(c) for c in direct.y_block(i)] for i in range(cfg.d + 1)]
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"d": cfg.d, "constructions_agree": agree, "y_blocks": blocks}))
    else:
        lines = [f"constructions agree: {agree}"]
        lines += [f"y^{i}: " + ",".join(b) for i, b in enumerate(blocks)]
        _emit(cfg, "\n".join(lines))
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_succ(cfg):
    value = succ_count(cfg.n, cfg.l, cfg.delta)
    payload = {"n": cfg.n, "l": cfg.l, "delta": cfg.delta, "count": value}
    if cfg.oracle:
        max_maps = FORCED_COUNT if cfg.force else GUARD_ORACLE_MAPS
        payload["oracle"] = succ_count_oracle(cfg.n, cfg.l, cfg.delta, max_maps=max_maps)
        payload["agree"] = payload["oracle"] == value
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps(payload))
    elif cfg.oracle:
        _emit(cfg, f"{value} (oracle {payload['oracle']}, agree={payload['agree']})")
    else:
        _emit(cfg, str(value))
    return EXIT_OK if payload.get("agree", True) else EXIT_CHECK_FAILED


def _cmd_conjecture(cfg):
    max_cells = FORCED_CELLS if cfg.force else GUARD_SC_CELLS
    check = check_conjecture2 if cfg.dense else check_conjecture1
    report = check(cfg.m, cfg.n, max_cells=max_cells, depth_limit=cfg.depth_limit)
    if cfg.fmt == "json":
        _emit(cfg, report.json_dumps())
    else:
        which = "dense reachability" if cfg.dense else "valid reachability"
        _emit(
            cfg,
            f"{which} ({cfg.m},{cfg.n}): {report.status}, "
            f"{report.reachable_count}/{report.valid_count} valid tableaux reached, "
            f"saturation depth {report.saturation_depth}",
        )
    return EXIT_OK if report.holds() else EXIT_CHECK_FAILED


def _cmd_witness(cfg):
    if cfg.witness_kind == "perm":
        images = [int(x) for x in cfg.sigma.split(",")]
        if len(images) != cfg.n:
            raise CliError(f"expected {cfg.n} images, got {len(images)}")
        pair = witness_permutation(Transformation(images))
    else:
        pair = witness_full(cfg.m, cfg.n)
    tableau = s_projection(pair)
    if cfg.fmt == "json":
        payload = pair.to_json()
        payload["tableau"] = tableau.to_json()
        _emit(cfg, _json_dumps(payload))
    else:
        _emit(
            cfg,
            f"grade {pair.grade}\nleft  = {pair.left}\nright = {pair.right}\n"
            f"{tableau.render()}",
        )
    return EXIT_OK


def _cmd_lower_bound(cfg):
    value = lower_bound_ie(cfg.m, cfg.n)
    if cfg.fmt == "json":
        _emit(cfg, _json_dumps({"m": cfg.m, "n": cfg.n, "lower_bound": value}))
    else:
        _emit(cfg, str(value))
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
        cfg = _config_from_args(argv)
        return run(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
