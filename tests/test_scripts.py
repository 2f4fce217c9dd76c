import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )


def test_conjecture_sweep_smoke():
    proc = run_script("conjecture_sweep.py", "--max-cells", "6", "--sc-cells", "4")
    assert proc.returncode == 0, proc.stderr
    assert "holds" in proc.stdout
    assert " 2  2 " in proc.stdout


def test_enumeration_tables_smoke():
    proc = run_script("enumeration_tables.py", "--max-n", "3", "--kmax", "4")
    assert proc.returncode == 0, proc.stderr
    assert "closed form: (2/3)*1^k + (1/3)*4^k" in proc.stdout
    assert "1, 2, 6, 22, 86" in proc.stdout


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
