import numpy as np
import pytest

from volcd.cli import main
from volcd.linalg import load_csr_triples, save_triples


def test_gen_writes_loadable_matrix(tmp_path, capsys):
    out = tmp_path / "b.txt"
    rc = main(
        [
            "gen", "--kind", "quadratic", "--n", "6", "--lam1", "160",
            "--reflections", "2", "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    b = load_csr_triples(out)
    lam = np.sort(np.linalg.eigvalsh(b.to_dense()))[::-1]
    assert np.allclose(lam, [160.0, 100.0, 1, 1, 1, 1], atol=1e-6)


def test_gen_stdout_matches_out_file(tmp_path, capsys):
    # empty trailing rows: only the `n n 0` pin keeps the dimension at 40
    args = [
        "gen", "--kind", "huber", "--n", "40", "--m", "6", "--sparsity", "2",
        "--reflections", "2", "--seed", "0",
    ]
    assert main(args) == 0
    printed = tmp_path / "stdout.txt"
    printed.write_text(capsys.readouterr().out)
    out = tmp_path / "b.txt"
    assert main(args + ["--out", str(out)]) == 0
    assert printed.read_text() == out.read_text()
    assert load_csr_triples(printed).n == 40


def test_theory_verb_prints_ratios(tmp_path, capsys):
    out = tmp_path / "b.txt"
    save_triples(np.diag([4.0, 2.0, 1.0, 1.0]), out)
    rc = main(["theory", "--matrix", str(out), "--taus", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "eigenvalues" in text
    assert "2" in text  # R(1, 2) = 8 / 4


def test_sample_test_verb_small_tv(tmp_path, capsys):
    out = tmp_path / "b.txt"
    save_triples(np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]), out)
    for extra in ([], ["--sparse"]):
        rc = main(
            ["sample-test", "--matrix", str(out), "--tau", "2",
             "--draws", "20000", "--seed", "3"] + extra
        )
        assert rc == 0
        text = capsys.readouterr().out
        tv = float(text.split("total variation distance:")[1].split()[0])
        assert tv <= 0.03


def test_run_verb_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[problem]\n"
        "kind = quadratic\n"
        "n = 25\n"
        "lam1 = 400\n"
        "lam2 = 100\n"
        "[experiment]\n"
        "methods = rcdvs:2\n"
        "repetitions = 4\n"
        "seed = 5\n"
        "output = csv\n"
    )
    rc = main(["run", "--config", str(cfg), "--repetitions", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 3  # header + rcd + rcdvs


def test_config_error_exit_code(capsys):
    rc = main(["run", "--kind", "quadratic", "--n", "10", "--lam1", "4"])
    assert rc == 2  # lam1 below the default lam2


def test_numeric_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "rank1.txt"
    save_triples(np.outer([1.0, 2.0], [1.0, 2.0]), out)
    rc = main(["sample-test", "--matrix", str(out), "--tau", "2", "--draws", "10"])
    assert rc == 3  # every pair minor is zero: empty support


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nbogus = 1\n")
    rc = main(["run", "--config", str(cfg), "--kind", "quadratic", "--n", "10"])
    assert rc == 2


def test_run_verb_dataset_path(tmp_path, capsys):
    data = tmp_path / "toy.svm"
    rng = np.random.default_rng(1)
    lines = []
    for _ in range(30):
        label = "+1" if rng.random() < 0.5 else "-1"
        feats = " ".join(f"{j + 1}:{rng.standard_normal():.3f}" for j in range(3))
        lines.append(f"{label} {feats}")
    data.write_text("\n".join(lines) + "\n")
    args = [
        "run", "--dataset", str(data), "--gamma", "0.5",
        "--methods", "rcdvs:2", "--repetitions", "2", "--seed", "3",
        "--output", "csv",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def no_time(text):
        return [
            [c for i, c in enumerate(line.split(",")) if i != 3]
            for line in text.strip().splitlines()
        ]

    assert no_time(first) == no_time(second)
    assert len(no_time(first)) == 3
