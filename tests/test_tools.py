import shutil
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_SAME_ITERATES = _REPO / "tools" / "same_iterates.py"


def _same_iterates(other, *args):
    return subprocess.run([sys.executable, str(_SAME_ITERATES), str(other), *args],
                          capture_output=True, text=True, timeout=300)


def test_same_iterates_passes_its_own_tree():
    cells = ["dense-n10/rcd:1", "dense-n10/rcdvs:3"]
    done = _same_iterates(_REPO, "--cells", *cells)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.startswith("dense-n10/")]
    # each cell's sampled runs, then their forced replays
    assert [row[0] for row in rows] == [name for cell in cells for name in (cell, cell + "/forced")]
    assert all(row[1:] == ["24", "equal", "equal", "equal", "equal", "-"] for row in rows)
    assert done.stdout.rstrip().endswith("0 undeclared difference(s)")


def test_same_iterates_fails_on_a_difference_unless_declared(tmp_path):
    # half-length windows solve the same steps in other systems: the same
    # subsets and iteration counts, iterates apart in their last bits
    shutil.copytree(_REPO / "src" / "volcd", tmp_path / "src" / "volcd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    objectives = tmp_path / "src" / "volcd" / "objectives.py"
    text = objectives.read_text(encoding="utf-8")
    assert "\n_WINDOW = 48\n" in text
    objectives.write_text(text.replace("\n_WINDOW = 48\n", "\n_WINDOW = 24\n"), encoding="utf-8")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1")
    assert done.returncode == 1, done.stdout + done.stderr
    row, replay = (line for line in done.stdout.splitlines() if line.startswith("dense-n10/"))
    assert row.split()[1:6] == ["24", "equal", "equal", "DIFFER", "DIFFER"]
    assert row.endswith("UNDECLARED") and 0 < float(row.split()[6]) < 1e-10
    # forced replays take no window, so they stay bitwise
    assert replay.split() == ["dense-n10/rcd:1/forced", "24", "equal", "equal", "equal", "equal",
                              "-"]
    assert done.stdout.rstrip().endswith("1 undeclared difference(s)")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/rcd:1")
    assert done.returncode == 0, done.stdout + done.stderr


def test_same_iterates_reports_a_failing_tree_as_error_rows(tmp_path):
    # a tree whose run raises prints both rows of the cell as ERROR, with
    # the child's last stderr line, and they count as differences
    shutil.copytree(_REPO / "src" / "volcd", tmp_path / "src" / "volcd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solvers = tmp_path / "src" / "volcd" / "solvers.py"
    solvers.write_text(solvers.read_text(encoding="utf-8")
                       + "\n\ndef run(*args, **kwargs):\n    raise RuntimeError('no run here')\n",
                       encoding="utf-8")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1")
    assert done.returncode == 1, done.stdout + done.stderr
    rows = [line.split(None, 3) for line in done.stdout.splitlines()
            if line.startswith("dense-n10/")]
    assert [row[:3] for row in rows] == [["dense-n10/rcd:1", "24", "ERROR"],
                                         ["dense-n10/rcd:1/forced", "24", "ERROR"]]
    assert all(row[3] == "other tree: RuntimeError: no run here  UNDECLARED" for row in rows)
    assert done.stdout.rstrip().endswith("2 undeclared difference(s)")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*")
    assert done.returncode == 0, done.stdout + done.stderr


def _copy_with(tmp_path, module, old, new):
    """A copy of this tree's src/volcd with ``old`` replaced by ``new`` in
    ``module``."""
    shutil.copytree(_REPO / "src" / "volcd", tmp_path / "src" / "volcd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "volcd" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_same_iterates_declares_a_values_only_difference_by_field(tmp_path):
    # final values one ulp up: the subsets, iteration counts and iterates
    # stay, and only the traces, which hold the final value, differ
    tree = _copy_with(tmp_path, "solvers.py", "final_value=float(value),",
                      "final_value=float(value) * (1 + 2**-52),")
    cell = ["--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*"]
    done = _same_iterates(tree, *cell, "--fields", "trace")
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.startswith("dense-n10/")]
    assert [row[1:6] for row in rows] == [["24", "equal", "equal", "DIFFER", "equal"]] * 2
    assert all(0 < float(row[6]) < 1e-15 and len(row) == 7 for row in rows)
    assert done.stdout.rstrip().endswith("0 undeclared difference(s)")
    # declared in another field only, the same difference fails
    done = _same_iterates(tree, *cell, "--fields", "x_final")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("2 undeclared difference(s)")


def test_same_iterates_fails_on_an_iterate_difference_declared_for_values_only(tmp_path):
    # half-length windows move the iterates in their last bits: a cell
    # declared for its traces alone still fails on them
    tree = _copy_with(tmp_path, "objectives.py", "\n_WINDOW = 48\n", "\n_WINDOW = 24\n")
    done = _same_iterates(tree, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*",
                          "--fields", "trace")
    assert done.returncode == 1, done.stdout + done.stderr
    row = next(line for line in done.stdout.splitlines() if line.startswith("dense-n10/rcd:1 "))
    assert row.split()[1:6] == ["24", "equal", "equal", "DIFFER", "DIFFER"]
    assert row.endswith("UNDECLARED")
    assert done.stdout.rstrip().endswith("1 undeclared difference(s)")
    done = _same_iterates(tree, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*",
                          "--fields", "trace", "x_final")
    assert done.returncode == 0, done.stdout + done.stderr
