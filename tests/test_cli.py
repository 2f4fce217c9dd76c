import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from shufflesc import cli, monster
from shufflesc.cli import EXIT_CHECK_FAILED, FORCED_CELLS, FORCED_COUNT, FORCED_WITNESS, main
from shufflesc.enumeration import series_direct
from shufflesc.errors import SizeGuardError
from shufflesc.monster import Tableau, reachable_tableaux
from shufflesc.upair import generate_graded


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "2", "6")
        assert code == 0
        assert out.strip() == "1,2,6,22,86,342,1366"

    def test_sequence_csv(self, capsys):
        assert run_cli(capsys, "--format", "csv", "sequence", "3", "4") == (
            0, "k,count\n0,1\n1,3\n2,21\n3,363\n4,9021\n", ""
        )

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "2", "2")
        assert code == 0 and out.strip() == "10"

    def test_succ(self, capsys):
        code, out, _ = run_cli(capsys, "succ", "5", "3", "1")
        assert code == 0 and out.strip() == "74"

    def test_succ_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "succ", "4", "2", "1", "--oracle")
        assert code == 0
        assert "agree=True" in out

    def test_coeffs(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "2")
        assert code == 0 and out.strip() == "2/3,1/3"

    def test_lower_bound(self, capsys):
        code, out, _ = run_cli(capsys, "lower-bound", "2", "2")
        assert code == 0 and out.strip() == "5"

    def test_matrix_power(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "3", "--power", "2")
        assert code == 0
        assert out.splitlines()[0] == "1,10,10"

    def test_graded_count(self, capsys):
        code, out, _ = run_cli(capsys, "graded", "2", "2", "--count")
        assert code == 0 and out.strip() == "6"

    def test_graded_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "graded", "2", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 2
        assert payload["vectors"] == [[[1], [2]], [[1, 2], []]]

    def test_series(self, capsys):
        code, out, _ = run_cli(capsys, "series", "2")
        assert code == 0
        assert "constructions agree: True" in out


class TestConjectureCommand:
    def test_holds(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "2", "2")
        assert code == 0
        assert "holds" in out and "10/10" in out

    def test_dense_flag(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "2", "2", "--dense")
        assert code == 0
        assert "dense" in out

    def test_incomplete_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "3", "3", "--depth-limit", "1")
        assert code == 3

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "--format", "json", "conjecture", "2", "2")
        code2, out2, _ = run_cli(capsys, "--format", "json", "conjecture", "2", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["reachable_count"] == payload["valid_count"] == 10


class TestReachCommand:
    def test_text_grids(self, capsys):
        code, out, _ = run_cli(capsys, "reach", "2", "2")
        assert code == 0
        assert "10 reachable tableaux" in out
        assert "××\n××" in out  # the full tableau grid

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "reach", "2", "2")
        payload = json.loads(out)
        assert payload["count"] == 10 and payload["complete"] is True
        assert payload["tableaux"][0] == {"m": 2, "n": 2, "cells": [[0, 0]], "depth": 0}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "reach", "1", "1")
        assert out.splitlines() == ["depth,cells", "0,0.0"]

    def test_depth_limit_reaching_bound_is_complete(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "reach", "2", "2", "--depth-limit", "2")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 10 and payload["complete"] is True

    def test_depth_limit_zero_on_1x1_is_complete(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "reach", "1", "1", "--depth-limit", "0")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 1 and payload["complete"] is True

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "reach", "2", "2")
        _, out2, _ = run_cli(capsys, "--format", "json", "reach", "2", "2")
        assert out1 == out2


def reference_reach_output(fmt, m, n, depth_limit=None):
    """The reach output written through one `Tableau` per reached state, the
    library views the CLI writer must agree with byte for byte: `depths`,
    sorted by (depth, mask), `Tableau.to_json` and `Tableau.render`."""
    reach = reachable_tableaux(m, n, depth_limit=depth_limit)
    listing = sorted(reach.depths.items(), key=lambda item: (item[1], item[0].mask))
    if fmt == "json":
        payload = {
            "m": m,
            "n": n,
            "count": reach.count,
            "complete": reach.complete,
            "tableaux": [{**t.to_json(), "depth": d} for t, d in listing],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        rows = ["depth,cells"] + [
            f"{d}," + ";".join(f"{i}.{j}" for i, j in sorted(t.cells)) for t, d in listing
        ]
        return "\n".join(rows) + "\n"
    blocks = [f"{reach.count} reachable tableaux (complete={reach.complete})"]
    blocks += [f"depth {d}\n{t.render()}" for t, d in listing]
    return "\n\n".join(blocks) + "\n"


class TestReachWriter:
    """The CLI writes the reach listing from the masks; the reference above
    builds a `Tableau` per state.  Every grid of at most 12 cells, every
    format, depth limits 0, 1, 2 and none."""

    @pytest.mark.parametrize(
        "m, n", [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]
    )
    def test_matches_reference(self, capsys, m, n):
        for fmt in ("text", "json", "csv"):
            for limit in (0, 1, 2, None):
                extra = [] if limit is None else ["--depth-limit", str(limit)]
                code, out, err = run_cli(capsys, "--format", fmt, "reach", str(m), str(n), *extra)
                assert (code, err) == (0, "")
                assert out == reference_reach_output(fmt, m, n, limit), (fmt, limit)

    def test_writes_one_depth_at_a_time(self, monkeypatch):
        # the listing is written in pieces as they are built, never as one
        # string: no write holds tableaux of two depths
        depth_of = {"text": r"depth (\d+)", "json": r'"depth":(\d+)', "csv": r"^(\d+),"}
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": writes.append})())
        for fmt, pattern in depth_of.items():
            writes.clear()
            assert main(["--format", fmt, "reach", "3", "4"]) == 0
            assert "".join(writes) == reference_reach_output(fmt, 3, 4)
            depths = [set(re.findall(pattern, w, re.M)) for w in writes]
            assert max(map(len, depths)) == 1
            assert set().union(*depths) == {"0", "1", "2", "3", "4"}

    def test_builds_no_tableau(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Tableau was built")

        monkeypatch.setattr(Tableau, "from_mask", refuse)
        monkeypatch.setattr(Tableau, "__post_init__", refuse)
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "--format", fmt, "reach", "3", "3")
            assert (code, err) == (0, "") and out


class TestGradedWriter:
    """The CLI writes the graded listing from rank tuples through one text
    table per position; the reference writes each `SetVector` of
    `generate_graded`, as `str` and through `json.dumps` of `to_lists()`."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(4)])
    def test_matches_reference(self, capsys, n, k):
        vectors = generate_graded(n, k)
        assert run_cli(capsys, "graded", str(n), str(k)) == (
            0, "\n".join(map(str, vectors)) + "\n", ""
        )
        payload = {"count": len(vectors), "k": k, "n": n,
                   "vectors": [v.to_lists() for v in vectors]}
        assert run_cli(capsys, "--format", "json", "graded", str(n), str(k)) == (
            0, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", ""
        )


class TestSeriesWriter:
    """The CLI compares the two routes' integer rows and writes each entry
    as reduced text; the reference writes `str` of the `Fraction`s of
    `series_direct`."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_reference(self, capsys, d):
        blocks = [list(map(str, block)) for block in series_direct(d)]
        text = ["constructions agree: True"]
        text += [f"y^{i}: " + ",".join(b) for i, b in enumerate(blocks)]
        assert run_cli(capsys, "series", str(d)) == (0, "\n".join(text) + "\n", "")
        payload = {"d": d, "constructions_agree": True, "y_blocks": blocks}
        assert run_cli(capsys, "--format", "json", "series", str(d)) == (
            0, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", ""
        )

    @pytest.mark.parametrize("route", ["series_direct_rows", "series_closed_rows"])
    def test_one_changed_entry_fails_the_check(self, capsys, monkeypatch, route):
        real = getattr(cli, route)

        def changed(*args, **kwargs):
            rows = real(*args, **kwargs)
            rows[2][3] += 1
            return rows

        monkeypatch.setattr(cli, route, changed)
        code, out, err = run_cli(capsys, "series", "4")
        assert (code, err) == (EXIT_CHECK_FAILED, "") and code == 3
        assert out.startswith("constructions agree: False\n")
        code, out, _ = run_cli(capsys, "--format", "json", "series", "4")
        assert code == 3 and json.loads(out)["constructions_agree"] is False


class TestScCommand:
    def test_2x2(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "sc", "2", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["state_complexity"] == 10 == payload["f_bound"]
        assert payload["maximizers"]


class TestWitnessCommand:
    def test_perm(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "perm", "5", "2,0,1,4,3")
        assert code == 0
        assert "grade 3" in out
        assert out.count("×") == 5

    def test_perm_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "witness", "perm", "4", "1,0")
        assert code == 1
        assert "error" in err

    def test_full_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "witness", "full", "2", "2")
        payload = json.loads(out)
        assert payload["k"] == 2
        assert len(payload["tableau"]["cells"]) == 4


class TestExitCodes:
    def test_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "bound", "0", "2")
        assert code == 1 and err

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "two", "2")
        assert code == 1 and err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_negative_kmax(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "2", "-1")
        assert code == 1 and out == "" and err.startswith("error:")

    def test_negative_depth_limit(self, capsys):
        code, out, err = run_cli(capsys, "reach", "2", "2", "--depth-limit", "-1")
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["bound", "0", "2"], "m"),
            (["reach", "0", "3"], "m"),
            (["sc", "2", "0"], "n"),
            (["conjecture", "-1", "2"], "m"),
            (["lower-bound", "2", "0"], "n"),
            (["witness", "full", "0", "2"], "m"),
        ],
    )
    def test_grid_size_checked_by_parser(self, capsys, argv, bad):
        value = argv[-2] if bad == "m" else argv[-1]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: argument {bad}: expected a grid size of at least 1, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["graded", "0", "1"],
            ["graded", "2", "-1"],
            ["matrix", "0"],
            ["matrix", "2", "--power", "-1"],
            ["sequence", "0", "3"],
            ["coeffs", "0"],
            ["series", "0"],
            ["succ", "0", "1", "1"],
            ["succ", "3", "1", "-1"],
            ["succ", "3", "0", "1"],
            ["succ", "3", "4", "0"],
            ["witness", "perm", "0", ""],
            ["witness", "perm", "3", "0,0,1"],
            ["witness", "perm", "3", "a,b,c"],
            ["witness", "perm", "3", "5,0,1"],
            ["witness", "perm", "3", "1,0,"],
        ],
    )
    def test_argument_checked(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_internal_value_error_is_not_bad_input(self, monkeypatch):
        def broken(m, n):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "f_bound", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["bound", "2", "2"])

    def test_guard_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "sc", "4", "4")
        assert code == 2 and "guard" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "2", "2"],
            ["sc", "2", "2"],
            ["graded", "2", "2"],
            ["coeffs", "2"],
            ["series", "2"],
            ["succ", "5", "3", "1"],
            ["conjecture", "2", "2"],
            ["witness", "full", "2", "2"],
            ["lower-bound", "2", "2"],
        ],
    )
    def test_csv_refused_without_a_csv_rendering(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "csv", *argv)
        assert code == 1 and out == ""
        assert err == f"error: --format csv is not supported by {argv[0]}\n"


def _outcome(capsys, argv):
    """stdout, stderr and exit code of `main(argv)`, or its SystemExit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return out.out, out.err, code


# sha256 of repr(_outcome(...)) with COLUMNS=80 for help texts and usage
# errors, recorded (CPython 3.11) when argparse read every command line and
# built a subcommand's parser only when it dispatched to it
PARSER_PINS = {
    (): "899fe352e0dbe1134a380f3b187889f656bdc8d76c6007d64b1e0634640388b3",
    ("--help",): "fd981018a6f47255e1653424f259dee28df07449af82920fe3ae6cca6221109e",
    ("bound", "-h"): "89c5b58706084fbac1a2548244b1b7bc55c491688eaddb8c1058262c9678500b",
    ("reach", "-h"): "5db35f5203ff20144a88f02fdfd43713faa26f6da8f97c454aaa643f994e6e18",
    ("sc", "-h"): "ce67614332ce242f299638fdb3568dc2a36f365d9c5c067ee4328d00af91f11d",
    ("graded", "-h"): "da5d8c9457bdb08625993f9da7f5dc7d77fa2bade7af8b7e61bdcc0bad4499f7",
    ("matrix", "-h"): "aa156504d9bfc30511588476c6b5e8cdf9e27f45d2c1611c0c5acb834eb1d657",
    ("sequence", "-h"): "357e7328580077c69090f06d4484afb814df7cee08ee1b186737c6d5b8b85819",
    ("coeffs", "-h"): "4694cce066e6391fe7f6faccdc4b7fbab9ca417b430e934a88a5bcf186a7b21a",
    ("series", "-h"): "5819ac82a44df054d444c1623dc3de554c61ca4bbbf986633ab72f02df0d2d62",
    ("succ", "-h"): "7c9fbc448296744126437dc652cabcfce9efcc7453e5f4897e7496491a04d8bb",
    ("conjecture", "-h"): "404e1c2e09f0e7e2de5658968c7e985c97dfa5352fecc38dbbfb19e652f725e8",
    ("witness", "-h"): "9d70d4c29c70c308786f642fc5bef260e7ff292ca28b6d6375c7082359f4059d",
    ("lower-bound", "-h"): "fb34d7af848d070e67980efbf9ec10aac1a92836cbc7ba98f4c0c71826cfb002",
    ("witness", "perm", "-h"): "637bfb3daca82696b82b479fb82a9437a9c898f011c8605f6b5311d2c42079ec",
    ("witness", "full", "-h"): "4fc3a005a47104a9541d095aa9e72b6c736ed0f77f8e3ab1064c1390605f15aa",
    ("nope",): "93ccccd0adab604cca8ef99a83d1a2dd938dd8a0d2a6e5a93143f746767c5c12",
    ("witness", "bogus"): "f34b11f3e95751a40bf428c167c898bf86f5b9ae60642849065b0eab7e1473f5",
    ("sc",): "c7aaf91cf8a732720b945a66c317f478eb3a323b5b07d91d74c49e962f663bc0",
    ("sc", "2"): "09befbd3ec80d7b47b2ff819161ff8080f57711c5e19019a54dbd5966dec96a6",
    ("sc", "0", "2"): "a48d9d3304d612dd9248fb6150a714cd722b9686bcf3415481ece8e98115cba4",
    ("sc", "2", "2", "extra"): "bdaa69be3d615dde8bb007a02a931ae2b0ec07d073205fef2427e2ecc27a0f0f",
    ("sc", "2", "2", "--format", "json"):
        "8bf212bec44081700e6a02ed83ba81780c70d9320a956ee0300e24d87cb6f959",
    ("--form", "json", "sc", "2", "2"):
        "b23ddbe0bc75f59de67d1d8532ecc9555345a6a531525c5ca06a1acc27bd3844",
    ("--fo", "sc", "2", "2"): "a4e58a400e8c3829b5b7a6a898a8a90679980b8b0e98df737ec7f98f3cbebd93",
    ("--output",): "12fa016d846661568ec531a17855c9f9b65b2c8fdb7c299ad6b45aeefb8e0db8",
    ("--format", "xml", "sc", "2", "2"):
        "c0b8d7ebafb386eac4c0c76d31f22249e9f65e06b809e10baae02c98369f2bce",
}

# the child of test_argparse_only_for_what_the_reader_leaves: it runs the
# CLI, then writes on stderr which of the modules argparse brings in the
# import of the CLI and the run added
ARGPARSE_CHILD = """
import sys
before = set(sys.modules)
from shufflesc.cli import main
try:
    code = main(sys.argv[1:])
finally:
    added = set(sys.modules) - before
    print(*sorted({"argparse", "gettext", "locale"} & added), file=sys.stderr)
sys.exit(code)
"""


class TestParser:
    """Help and usage errors come from the argparse parser alone, with the
    text and exit codes of the parser that built every subcommand's parser
    (pinned); the plain command lines that argparse would accept are read
    without it."""

    @pytest.mark.parametrize("argv", [list(argv) for argv in PARSER_PINS])
    def test_same_text_as_an_eager_build(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        outcome = _outcome(capsys, argv)
        assert hashlib.sha256(repr(outcome).encode()).hexdigest() == PARSER_PINS[tuple(argv)]

    @pytest.mark.parametrize(
        "argv, code, fallback",
        [
            (["--format", "json", "sc", "3", "3"], 0, False),
            (["witness", "full", "2", "3"], 0, False),
            (["--help"], 0, True),
            (["nope"], 1, True),
        ],
    )
    def test_argparse_only_for_what_the_reader_leaves(self, argv, code, fallback):
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
        proc = subprocess.run(
            [sys.executable, "-c", ARGPARSE_CHILD, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        imported = proc.stderr.splitlines()[-1]
        assert imported == ("argparse gettext locale" if fallback else "")
        if argv == ["--help"]:
            # the help text of the parent, which exits through SystemExit(0)
            outcome = (proc.stdout, "", ("SystemExit", 0))
            assert hashlib.sha256(repr(outcome).encode()).hexdigest() == PARSER_PINS[("--help",)]


class TestGuards:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reach", "4", "5"], "4x5 grid exceeds the 16-cell guard"),
            (["sc", "4", "4"], "exceeds the 12-cell guard"),
            (["conjecture", "4", "4"], "4x4 grid exceeds the 12-cell guard"),
            (["series", "65"], "d = 65 exceeds the guard of 64"),
            (["succ", "8", "7", "1", "--oracle"], "8^7 maps exceed the guard of 2000000"),
            (["graded", "6", "4", "--count"], "grade 4 of length-6 vectors tries 1309084746 maps"),
            (["graded", "1", "22", "--count"],
             "a graded vector of length 1 has grade 22, so 2^22 elements"),
            (["witness", "full", "2", "22"],
             "the full 2x22 witness has grade 22, so 2^22 elements"),
        ],
    )
    def test_library_default_applies(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("size guard: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [["reach", "4", "5"], ["sc", "4", "4"], ["conjecture", "4", "4"],
         ["succ", "8", "7", "1", "--oracle"], ["graded", "6", "4", "--count"],
         ["graded", "1", "22", "--count"], ["witness", "full", "2", "22"], ["series", "65"]],
    )
    def test_hint_names_force(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith("; pass --force to override\n") and "raise max_" not in err

    @pytest.mark.parametrize(
        "argv, keyword",
        [(["reach", "9", "9"], "max_cells"), (["graded", "6", "4", "--count"], "max_count"),
         (["series", "1000000001"], "max_blocks_guard"),
         (["witness", "full", "2", "28"], "max_count")],
    )
    def test_hint_kept_under_force(self, capsys, argv, keyword):
        # --force was given and the widened guard still holds: the library's
        # message is printed as it is
        code, out, err = run_cli(capsys, "--force", *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"; raise {keyword} to override\n") and "--force" not in err

    @pytest.mark.parametrize(
        "argv",
        [["reach", "6", "6"], ["sc", "6", "6"], ["conjecture", "6", "6"], ["reach", "5", "6"]],
        ids="-".join,
    )
    def test_forced_grid_bounds_the_depth_table(self, capsys, monkeypatch, argv):
        # the search keeps one byte per mask, 64 GiB at 6x6: the forced guard
        # refuses the grid before any table is allocated
        monkeypatch.setattr(monster, "bytearray", lambda *a: pytest.fail("allocated"), raising=False)
        code, out, err = run_cli(capsys, "--force", *argv)
        assert code == 2 and out == ""
        assert err.startswith("size guard: ") and f"the {FORCED_CELLS}-cell guard" in err
        assert FORCED_CELLS == 25  # a 32 MiB table at 5x5

    def test_force_widens_the_element_guard(self, capsys):
        # at n = 1 a grade tries one map, but its vector holds 2^22 elements
        assert run_cli(capsys, "graded", "1", "22", "--count")[:2] == (2, "")
        assert run_cli(capsys, "--force", "graded", "1", "22", "--count") == (0, "1\n", "")

    @pytest.mark.parametrize("k", ["24", "28"])
    def test_forced_listing_bounds_the_elements(self, capsys, monkeypatch, k):
        # a listing writes every element as text, so under --force it is
        # bounded as witness full is, before any vector is built; --count
        # writes one number and keeps the wider bound
        monkeypatch.setattr(cli, "graded_level", lambda *a, **kw: pytest.fail("built"))
        code, out, err = run_cli(capsys, "--force", "graded", "1", k)
        assert code == 2 and out == ""
        assert err == (
            f"size guard: a written graded vector of length 1 has grade {k}, so 2^{k} "
            f"elements, beyond the guard of {FORCED_WITNESS}; raise max_count to override\n"
        )

    # CLI name of each guarded call -> (a cheap command, its limit keyword, the --force value)
    GUARDED = {
        "reachable_tableaux": (["reach", "2", "2"], "max_cells", FORCED_CELLS),
        "state_complexity_shuffle": (["sc", "2", "2"], "max_cells", FORCED_CELLS),
        "check_conjecture1": (["conjecture", "2", "2"], "max_cells", FORCED_CELLS),
        "check_conjecture2": (["conjecture", "2", "2", "--dense"], "max_cells", FORCED_CELLS),
        "graded_level": (["graded", "2", "2"], "max_count", FORCED_COUNT),
        "witness_full": (["witness", "full", "2", "2"], "max_count", FORCED_WITNESS),
        "series_direct_rows": (["series", "2"], "max_blocks_guard", FORCED_COUNT),
        "series_closed_rows": (["series", "2"], "max_blocks_guard", FORCED_COUNT),
        "succ_count_oracle": (["succ", "4", "2", "1", "--oracle"], "max_maps", FORCED_COUNT),
    }

    def test_force_widens_each_guard(self, capsys, monkeypatch):
        calls = {}
        for name in self.GUARDED:
            real = getattr(cli, name)

            def recorder(*args, _name=name, _real=real, **kwargs):
                calls[_name] = kwargs
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, recorder)
        for name, (argv, keyword, limit) in self.GUARDED.items():
            assert run_cli(capsys, "--force", *argv)[0] == 0
            assert calls.pop(name)[keyword] == limit
            assert run_cli(capsys, *argv)[0] == 0
            assert keyword not in calls.pop(name)

    # CLI name of each guarded call -> (its arguments in the cheap command, a limit just below)
    BELOW = {
        "reachable_tableaux": ((2, 2), 3),
        "state_complexity_shuffle": ((2, 2), 3),
        "check_conjecture1": ((2, 2), 3),
        "check_conjecture2": ((2, 2), 3),
        "graded_level": ((2, 2), 3),
        "witness_full": ((2, 2), 3),
        "series_direct_rows": ((2,), 1),
        "series_closed_rows": ((2,), 1),
        "succ_count_oracle": ((4, 2, 1), 15),
    }

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_refusal_names_the_keyword_force_widens(self, name):
        args, limit = self.BELOW[name]
        keyword = self.GUARDED[name][1]
        with pytest.raises(SizeGuardError) as info:
            getattr(cli, name)(*args, **{keyword: limit})
        exc = info.value
        assert exc.keyword == keyword
        assert str(exc) == f"{exc.refusal}; raise {exc.keyword} to override"


class TestLongValues:
    """Exact values beyond the interpreter's default int-to-str limit of 4300
    digits are written in full, and the limit is restored afterwards."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "json", "bound", "200", "200"],
            ["lower-bound", "200", "200"],
            ["--format", "json", "lower-bound", "200", "200"],
            ["matrix", "3", "--power", "20000"],
            ["--format", "json", "matrix", "3", "--power", "20000"],
        ],
    )
    def test_written_in_full(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert max(map(len, re.findall(r"\d+", out))) > 4300

    def test_limit_restored(self, capsys):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            pytest.skip("this interpreter has no int-to-str digit limit")
        before = get_limit()
        sys.set_int_max_str_digits(5000)
        try:
            assert run_cli(capsys, "bound", "200", "200")[0] == 0
            assert get_limit() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("command", ["bound", "lower-bound"])
    def test_huge_grid_refused_before_building(self, capsys, monkeypatch, command):
        def refuse(m, n):
            raise AssertionError("the value was built")

        monkeypatch.setattr(cli, "f_bound", refuse)
        monkeypatch.setattr(cli, "lower_bound_ie", refuse)
        code, out, err = run_cli(capsys, command, "99999", "99999")
        assert code == 2 and out == ""
        assert err == (
            "size guard: the exact value at 99999x99999 has about 9999800001 bits, "
            "beyond the guard of 262144 bits; pass --force to override\n"
        )
        code, out, err = run_cli(capsys, "--force", command, "99999", "99999")
        assert code == 2 and out == "" and err.endswith("beyond the guard of 1000000000 bits\n")

    def test_guard_edge(self, capsys):
        assert run_cli(capsys, "bound", "512", "512")[0] == 0
        assert run_cli(capsys, "bound", "513", "512")[:2] == (2, "")


class TestLargeCheapInputs:
    """Inputs large in n or in the value but cheap to answer: each ends with
    an exit code and no traceback."""

    CYCLE = ",".join(map(str, [*range(1, 200), 0]))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["bound", "512", "512"], None),
            (["reach", "2", "6"], None),
            (["sc", "1", "12"], None),
            (["sc", "4", "4"], None),  # refused by the guard
            (["graded", "600", "1", "--count"], "600"),
            (["graded", "300", "0", "--count"], "1"),
            (["graded", "2", "30", "--count"], None),  # refused by the guard
            (["matrix", "60"], None),
            (["sequence", "600", "1"], "1,600"),
            (["sequence", "300", "3"], None),
            (["coeffs", "40"], None),
            (["series", "64"], None),
            (["series", "65"], None),  # refused by the guard
            (["succ", "700", "520", "500"], None),  # d past the Stirling recurrence's depth
            (["succ", "700", "600", "500"], "0"),  # more slots than are empty
            (["conjecture", "2", "6"], None),
            (["witness", "perm", "200", CYCLE], None),
            (["witness", "full", "2", "12"], None),
            (["lower-bound", "200", "200"], None),
        ],
    )
    def test_no_traceback(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if expected is not None:
            assert (code, out, err) == (0, expected + "\n", "")


class TestOutputFile:
    def test_write_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--output", str(target), "bound", "3", "3"
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["f"] == 400

    def test_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, "--output", str(target), "bound", "2", "2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_reach_to_unwritable_path(self, capsys, tmp_path):
        # the reach listing is written in blocks through the same writer
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, "--output", str(target), "reach", "2", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err

    def test_threads_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "--threads", "4", "bound", "2", "2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestPinnedOutputs:
    """sha256 of whole CLI outputs, recorded before the refactors they guard:
    the reach, sc and conjecture outputs before the mask-line kernel, the
    graded, witness and succ outputs before set-vector parts became masks,
    `succ 7 5 2 --oracle`, sequence and coeffs before successors became
    mask tuples and the totals one walk along the first row, series
    before its closed route became integer block recurrences, the
    reach and depth-limited outputs before the search ran on orbits, and
    the benchmark's `graded` outputs before listings were written from
    tuples of part masks, and the reach listings and full witnesses
    before reach was written from masks and `bits` decoded byte by byte,
    and the sc outputs before sc stopped refining, and more graded and
    succ --oracle outputs before set vectors were packed into one int, and
    more series outputs before both routes returned bare y-blocks."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--format", "json", "reach", "3", "3"],
             "b965787df2c92e5c7ed39b57da3d2d1ebe82ce884356fba247de35e09e054eb6"),
            (["--format", "csv", "reach", "2", "4"],
             "fcd860fd6bfc7707f6cfcec6e993a78e40ef532a3f548cc7a7adf2ab284a1755"),
            (["--format", "json", "sc", "2", "3"],
             "8d7583df56e2403503cb18fa9f2dccc02f6f230e9bcab47babce3c7aaadcddb9"),
            (["sc", "3", "2"],
             "e2d948595728be852e7ca3c49ac8a8494b2b1800e8b2e6e38992305229cddfd4"),
            (["--format", "json", "conjecture", "3", "3"],
             "de1aa012ce4549d23b1c10cdfe55d26d06b6583b982aca433a4d62e00ada1338"),
            (["conjecture", "2", "4", "--dense"],
             "7294e9b9ee781de894701f6f0a5cbf228e6940ba6d4447bcc91568631846a273"),
            (["--format", "json", "graded", "4", "2"],
             "0a467bf38afb9fb0337b44fb9a6fa074e7bc54f986cf8c848bf7268dcb8388b3"),
            (["graded", "3", "3"],
             "443fce34beb5b46fdaf16d872738af2b38a253382dab981c520e755babae5dab"),
            (["--format", "json", "witness", "perm", "5", "2,0,1,4,3"],
             "368081c7acf56f51cfe59f0ea69fcd4584d571fbcc6c50960f85d0d49cb264cc"),
            (["witness", "full", "3", "5"],
             "b99e1de613c596b44f0222be75a8f43674a1bab5df91111d4cf550f840c171dd"),
            (["--format", "json", "succ", "5", "3", "1", "--oracle"],
             "f33e0012bfe0b0c73d9106c29e7dd510be8650d17e609cc447a26404b4bf7b6f"),
            (["succ", "7", "5", "2", "--oracle"],
             "c7abf0a1d79e621c0bee8014155c190b6cac40d8a0f8873460a4e5f6b89141d8"),
            (["sequence", "10", "200"],
             "5877cf158b2779615db80f16eb1199cd879d8aea8eaf8f04777687867e45155b"),
            (["--format", "json", "sequence", "12", "60"],
             "e3b17913f0fbe76bb26a9b1b2eea3d360a8e4551753e1c1db20267a62467eeef"),
            (["coeffs", "20"],
             "c4e4a868319f5470d1f500dcc2e771480163fc5c086a138089793a3bfdca4012"),
            (["--format", "json", "coeffs", "9"],
             "ba0e4160d37b0965163fe3311395bf1cad0ba5940add608780e56339616bfd28"),
            (["series", "40"],
             "1ca008f80c7b0e66bee6174e3c5ba0042feeaa90d3c019a606d5a91a25eedde1"),
            (["--format", "json", "series", "12"],
             "67812fb9c47e9336de2fc5b2d2d54a54ec7903a8f639402735ebe6f82ef2d60d"),
            (["--format", "json", "reach", "3", "4"],
             "d2eff5bc995e925f841d218e7ec6a9e93bcfdf21e015f2986b1a25263185d712"),
            (["--format", "csv", "reach", "2", "6"],
             "5382485cb6a329ef3f3ebfb245aff4b22d256922071c5ef4a854437f2c3e7efb"),
            (["reach", "3", "3", "--depth-limit", "2"],
             "e9f2e602740a848bf4f8a1b7df0f5864aa0661e758697d42997798b339cbfa9f"),
            (["--format", "json", "graded", "5", "3"],
             "0f2fa5c10f7d20460272b30935fdabe9234f629f9874c1904319f54e97b5ecc4"),
            (["graded", "4", "3"],
             "7516d2688dd0570375df48fdd8df56bdb27508381f4c87ab88b20b315ec071c9"),
            (["reach", "3", "4"],
             "e87c855aec53bf283c5db83dcee73bcc61cb55371b8953aef1c0af6995d22ddd"),
            # the benchmark's golden digest of this output
            (["--format", "json", "reach", "2", "6"],
             "787b4bb2744bf8bac909a5c58490afe265585909bb5e1cc69f788cff032c13a7"),
            (["--format", "csv", "reach", "3", "3", "--depth-limit", "1"],
             "794c6ca798850adbc5a3969634f4c1cb1d06e1363b0ed41c3a2463df90fe13a3"),
            (["reach", "1", "4"],
             "b3cfa4e85f74a2bc8d34b6a9f4846b184d3d0a5e3aff4bd92c19ebca6e96a351"),
            (["--format", "json", "reach", "4", "1"],
             "9fa720b4b3203b0b96efa15d74d64193db297e4fe1d274481dcc1b0407f014c2"),
            (["--format", "csv", "reach", "1", "5"],
             "c6ba533db57047a45441f1f8bcf8d4921eb000cf506d71efd1e07a28967795f0"),
            (["witness", "full", "2", "12"],
             "626ae713da25c260260f9a0a8350b77a2d9253c2fb0debf4a4c0be046de3fb85"),
            (["--format", "json", "witness", "full", "3", "8"],
             "1811c46031edf313f4ba07cba3b5c545aa3aa84881ed10c3420d6c4f78e142a6"),
            # the benchmark's golden digests of the first two
            (["--format", "json", "sc", "3", "3"],
             "b1a487049d88ae98505c7f3670251c762c335a040a9d3885f29adac910fd78f4"),
            (["--format", "json", "sc", "2", "4"],
             "ac58f412ea27a66b9b2380c3ddc734f7a6a5f766bf204d297eb7a742a5cec103"),
            (["--format", "json", "sc", "3", "4"],
             "9da4a92717a72b514b8a708224ee5f0c2077e24e872d6d3907af51a587bd6b40"),
            (["--force", "--format", "json", "sc", "4", "4"],
             "04ae0c9a187c3cbf4240a088c11384e12fa1773e0ab90b6939c1d7cd2ab0a339"),
            (["--format", "json", "graded", "6", "3"],
             "2f9b4d615161a16842bfa0a4d5e6bbd70428ee5b2ac6132aaf5bc1a278c0b2a8"),
            (["graded", "5", "3"],
             "2c007b50782b03164ba692f27f0c52303ccd98b3817d7bc51de1a27a8d7e0db0"),
            (["succ", "8", "6", "1", "--oracle"],
             "602b80a0802c0a5f0803e045a1f82977dd365ba84eccbe431106f1de832dc908"),
            (["--format", "json", "succ", "7", "4", "2", "--oracle"],
             "294cae36a6d1c6d602e4434c22b5fef8e071c4c5d957768656453c2537696a0f"),
            (["series", "64"],
             "643c657eec8cfca3dbece552f656857b25d5b58fd104787fac34d48ba1f04c94"),
            (["--format", "json", "series", "1"],
             "fdcd0300e7d93ba4b04aa447e3c1aaba080f7c8506e3861812b7343560026ca2"),
        ],
    )
    def test_output_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_graded_count(self, capsys):
        assert run_cli(capsys, "graded", "5", "3", "--count") == (0, "23005\n", "")
        assert run_cli(capsys, "graded", "6", "3", "--count") == (0, "100266\n", "")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["bound", "200", "200"],
             "418314a6d74afc3ffb250ee8ff9b6ac71498d4556c99412d55856a0949a29f6f"),
            (["sequence", "2", "20000"],
             "0734a7695168edabcd6e0649f8ea59fb914b580ea514ad03bb24ce88710d66d5"),
        ],
    )
    def test_long_value_digest(self, capsys, argv, digest):
        # values of 12043 digits and up, past the default int-to-str limit
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_incomplete_reach_digest(self, capsys):
        code, out, err = run_cli(
            capsys, "--format", "json", "reach", "2", "3", "--depth-limit", "1"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["complete"] is False
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "919d0da3b7d4131c091a2ed5c973dddeda5bedb0d180ca84ad6c95953b280d30"
        )

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "reach.txt"
        argv = ["reach", "2", "4"]
        assert run_cli(capsys, "--output", str(target), *argv)[:2] == (0, "")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and target.read_bytes() == out.encode("utf-8")

    def test_incomplete_conjecture_digest(self, capsys):
        # the depth-limited search: status incomplete, exit 3, with the
        # missing and dense_unreached lists written out
        code, out, err = run_cli(
            capsys, "--format", "json", "conjecture", "3", "3", "--depth-limit", "2"
        )
        assert code == 3 and err == ""
        payload = json.loads(out)
        assert payload["status"] == "incomplete"
        assert payload["missing"] and payload["dense_unreached"]
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "be4e6762d46464141b88b14ad1b47f92f959198044a9ae9d50d83c4615d241b8"
        )

    def test_incomplete_conjecture_3x4_digest(self, capsys):
        # 2982 missing tableaux, each built by Tableau.from_mask and written
        # through the report's JSON, recorded before that JSON had one writer
        code, out, err = run_cli(
            capsys, "--format", "json", "conjecture", "3", "4", "--depth-limit", "2"
        )
        assert code == 3 and err == ""
        assert len(json.loads(out)["missing"]) == 2982
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "d32454cdac60a19b283ae4dc7623af539e67482235996cdb4eeb228c0cca58ba"
        )


REPO = Path(__file__).resolve().parent.parent


# the command lines of the README's `## CLI` block, less `shufflesc`
README_LINES = [
    line.split("#")[0].split()[1:]
    for line in re.search(
        r"^## CLI\n.*?^```\n(.*?)^```$", (REPO / "README.md").read_text(), re.S | re.M
    ).group(1).splitlines()
]
PERFBENCH_LINES = [
    job["spec"]["argv"]
    for jobs in runpy.run_path(str(REPO / "perfbench" / "run.py"))["WORKLOADS"].values()
    for job in jobs
    if job["spec"]["kind"] == "cli"
]
BENCH_SIZES_LINES = runpy.run_path(str(REPO / "scripts" / "bench_sizes.py"))["COMMANDS"]

# lines that argparse accepts and the plain reader reads as it would
PLAIN_VARIANTS = [
    ["reach", "--depth-limit", "1", "3", "4"],
    ["reach", "3", "--depth-limit", "1", "4"],
    ["reach", "3", "4", "--depth-limit", "1"],
    ["reach", "3", "4", "--depth-limit", "1", "--depth-limit", "2"],
    ["graded", "--count", "6", "3"],
    ["graded", "6", "--count", "3"],
    ["graded", "6", "3", "--count", "--count"],
    ["succ", "7", "--oracle", "5", "2"],
    ["conjecture", "--dense", "3", "4", "--depth-limit", "0"],
    ["matrix", "--power", "2", "3"],
    ["--format", "json", "--format", "text", "sc", "3", "3"],
    ["--force", "--force", "sc", "3", "3"],
    ["--output", "", "sc", "3", "3"],
    ["--output", "sc", "--format", "csv", "reach", "2", "2"],
    ["succ", "4", " -1", "1"],
    ["sc", " 3", "3"],
    ["witness", "perm", "3", ""],
]

# lines left to argparse, which accepts some and refuses the others
REFUSED_VARIANTS = [
    ["reach", "3", "4", "--depth", "1"],
    ["--format=json", "sc", "3", "3"],
    ["--form", "json", "sc", "3", "3"],
    ["-h"],
    ["sc", "-h"],
    ["sc", "3", "3", "-h"],
    ["witness", "perm", "-h"],
    ["--output", "-", "sc", "3", "3"],
    ["--output", "--force", "sc", "3", "3"],
    ["succ", "4", "-1", "1"],
    ["sequence", "2", "-1"],
    ["sc", "-3", "3"],
    ["reach", "3", "4", "--depth-limit", "-1"],
    ["witness", "perm", "3", "-1,0,2"],
    ["sc", "3", "3", "--format", "json"],
    ["sc", "3", "3", "--force"],
    ["--count", "graded", "6", "3"],
    ["sc", "--", "3", "3"],
    ["sc", "3", "3", "--"],
    ["sc", "3", "3", ""],
    ["sc", "3", "x"],
    ["sc", "0", "3"],
    ["SC", "3", "3"],
    ["witness"],
    ["witness", "full", "2"],
    ["--format"],
    ["--format", "xml", "sc", "3", "3"],
    ["--format", "json"],
]


def _marked_argvs(*classes):
    """The command lines of the parametrize marks of these test classes,
    and each under --force."""
    for cls in classes:
        for name in dir(cls):
            for mark in getattr(getattr(cls, name), "pytestmark", []):
                for value in mark.args[1]:
                    argv = value[0] if isinstance(value, tuple) else value
                    if isinstance(argv, list):
                        yield argv
                        yield ["--force", *argv]


CORPUS = (
    PERFBENCH_LINES + BENCH_SIZES_LINES + README_LINES + PLAIN_VARIANTS + REFUSED_VARIANTS
    + [list(argv) for argv in PARSER_PINS]
    + list(_marked_argvs(TestExitCodes, TestGuards))
    + [argv for argv, *_ in TestGuards.GUARDED.values()]
    + [["bound", "two", "2"], ["frobnicate"], ["--threads", "4", "bound", "2", "2"]]
)


def _row_lines(level, options, line=()):
    """Per row of the CLI table under `level` (each command, and each kind
    of a command with kinds), the command line that gives every positional
    of the levels it walks a value and, with `options`, sets every option
    once."""
    line = list(line)
    for count, item in enumerate(level, 1):
        if isinstance(item, dict):
            ((_, table),) = item.items()
            for name, (_, arguments, *_) in table.items():
                yield from _row_lines(arguments, options, [*line, name])
            return
        name, keywords = item
        # the last choice, or a count distinct within the level, which every
        # type of the table accepts
        value = keywords["choices"][-1] if "choices" in keywords else str(count)
        if not name.startswith("-"):
            line.append(value)
        elif options and "action" in keywords:
            line.append(name)
        elif options:
            line += [name, value]
    yield line


TABLE_LINES = [*_row_lines(cli._TOP, True), *_row_lines(cli._TOP, False)]


class TestFastRead:
    """`cli._fast_read` gives the namespace the argparse parser gives, or
    None and leaves the line to the parser."""

    @pytest.mark.parametrize("argv", CORPUS)
    def test_as_argparse_reads(self, argv):
        read = cli._fast_read(argv)
        if read is not None:
            assert vars(read) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", PERFBENCH_LINES + README_LINES + PLAIN_VARIANTS)
    def test_reads_the_plain_lines(self, argv):
        assert cli._fast_read(argv) is not None

    @pytest.mark.parametrize("argv", REFUSED_VARIANTS)
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._fast_read(argv) is None

    @pytest.mark.parametrize("argv", TABLE_LINES, ids=" ".join)
    def test_reads_each_row(self, argv):
        read = cli._fast_read(argv)
        assert read is not None
        assert vars(read) == vars(cli._build_parser().parse_args(argv))

    def test_corpus_has_the_benchmark_lines(self):
        assert ["--format", "json", "sc", "3", "3"] in PERFBENCH_LINES
        assert ["witness", "perm", "5", "2,0,1,4,3"] in README_LINES
        assert ["--force", "sc", "2", "8"] in BENCH_SIZES_LINES
