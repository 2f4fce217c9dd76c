import hashlib
import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import shufflesc
from shufflesc import conjecture, monster

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )


def test_perfbench_traced_functions_resolve():
    """Every (module, function) that `perfbench/worker.py` wraps in a timing
    span is a callable of the package: a function renamed or deleted fails
    here, and not only in a traced benchmark run."""
    layers = runpy.run_path(str(SCRIPTS.parent / "perfbench" / "worker.py"))["LAYERS"]
    assert layers
    for module, function, *_ in layers:
        value = getattr(importlib.import_module("shufflesc." + module), function, None)
        assert callable(value), f"shufflesc.{module}.{function}"


def test_conjecture_sweep_smoke():
    proc = run_script("conjecture_sweep.py", "--max-cells", "6", "--sc-cells", "4")
    assert proc.returncode == 0, proc.stderr
    assert "holds" in proc.stdout
    assert " 2  2 " in proc.stdout


# the rows of `conjecture_sweep.py --max-cells 8 --sc-cells 8` without their
# timing column, recorded when the sweep searched twice per size
SWEEP_ROWS = """\
 m  n  reachable     f(m,n)   status  depth         sc  finals
--------------------------------------------------------------
 1  1          1          1    holds      0          1  F1=[0] F2=[0]
 1  2          2          2    holds      1          2  F1=[0] F2=[1]
 1  3          4          4    holds      2          3  F1=[0] F2=[1]
 1  4          8          8    holds      2          5  F1=[0] F2=[1]
 1  5         16         16    holds      3          9  F1=[0] F2=[1]
 1  6         32         32    holds      3         17  F1=[0] F2=[1]
 1  7         64         64    holds      3         33  F1=[0] F2=[1]
 1  8        128        128    holds      3         65  F1=[0] F2=[1]
 2  2         10         10    holds      2         10  F1=[0] F2=[0]
 2  3         44         44    holds      3         44  F1=[0] F2=[0]
 2  4        184        184    holds      3        184  F1=[0] F2=[0]
""".splitlines()


def test_conjecture_sweep_searches_once_per_size(monkeypatch, capsys):
    calls = []
    search = monster.reachable_tableaux

    def spy(m, n, *args, **kwargs):
        calls.append((m, n))
        return search(m, n, *args, **kwargs)

    for module in (shufflesc, monster, conjecture):
        monkeypatch.setattr(module, "reachable_tableaux", spy)
    sweep = runpy.run_path(str(SCRIPTS / "conjecture_sweep.py"))
    monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", "--max-cells", "8", "--sc-cells", "8"])
    assert sweep["main"]() == 0
    rows = [line.rsplit("   (", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == SWEEP_ROWS
    assert calls == [(1, n) for n in range(1, 9)] + [(2, 2), (2, 3), (2, 4)]


def test_conjecture_sweep_to_16_cells():
    # every grid up to 16 cells with m <= n, 4x4 among them, in seconds
    proc = run_script("conjecture_sweep.py", "--max-cells", "16", "--sc-cells", "9")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    sizes = [(int(row[0]), int(row[1])) for row in rows]
    assert sizes == [(m, n) for m in range(1, 5) for n in range(m, 17) if m * n <= 16]
    for (m, n), row in zip(sizes, rows):
        assert row[2] == row[3] == str(monster.f_bound(m, n)) and row[4] == "holds"
        assert (row[6] != "-") == (m * n <= 9)
    assert rows[-1][:4] == ["4", "4", "57856", "57856"]


def test_enumeration_tables_smoke():
    proc = run_script("enumeration_tables.py", "--max-n", "3", "--kmax", "4")
    assert proc.returncode == 0, proc.stderr
    assert "closed form: (2/3)*1^k + (1/3)*4^k" in proc.stdout
    assert "1, 2, 6, 22, 86" in proc.stdout


def test_enumeration_tables_pinned():
    # recorded when the totals were one matrix power per k
    proc = run_script("enumeration_tables.py", "--max-n", "5", "--kmax", "12")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digest == "d1f8ae99c9c86b3d8c67c09d3882de773a03237eccc351adce2aecfc49863527"


def test_enumeration_tables_checks_under_O():
    proc = run_script("enumeration_tables.py", "--max-n", "3", "--kmax", "4", flags=["-O"])
    assert proc.returncode == 0, proc.stderr
    assert "1, 2, 6, 22, 86" in proc.stdout
    # a wrong factor must still be caught when asserts are stripped
    broken = (
        "import runpy, shufflesc\n"
        "shufflesc.matrix_B = lambda n: shufflesc.matrix_A(n)\n"
        f"runpy.run_path({str(SCRIPTS / 'enumeration_tables.py')!r}, run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", broken, "--max-n", "3"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "factorization check failed: S_2 != B (x) A_2 entrywise" in proc.stderr


def test_witness_gallery_smoke():
    proc = run_script("witness_gallery.py", "--n", "3", "--full", "2", "2")
    assert proc.returncode == 0, proc.stderr
    assert "grade" in proc.stdout
    assert "erase-cell chain" in proc.stdout


def test_bench_sizes_measures_one_command():
    bench = runpy.run_path(str(SCRIPTS / "bench_sizes.py"))
    src = Path(shufflesc.__file__).resolve().parent.parent
    rec = bench["measure"](["bound", "2", "2"], src)
    assert rec["exit"] == 0 and rec["wall_s"] > 0 and 0 < rec["peak_rss_mib"] < 1024
    # the import and the main call are timed apart inside the whole process
    assert 0 < rec["main_s"] <= rec["wall_s"]
    assert 0 < rec["import_s"] and rec["import_s"] + rec["main_s"] <= rec["wall_s"]
    assert rec["stdout_sha256"] == hashlib.sha256(b"10\n").hexdigest()
    # the size guard's refusal keeps its exit code
    assert bench["measure"](["sc", "5", "5"], src)["exit"] == 2
