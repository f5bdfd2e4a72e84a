import importlib.util
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import volcd
from volcd import benchmark, cli
from volcd.benchmark import ExperimentConfig
from volcd.cli import (
    _SECTIONS,
    _build_parser,
    _load_matrix,
    _problem,
    _run_config,
    _settings,
    main,
)
from volcd.linalg import CsrSymmetricUpper, load_csr_triples, save_triples
from volcd.problems import ProblemSpec, banded_psd
from volcd.sampling import exact_probabilities

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--reflections", "-3"]])
def test_gen_refuses_a_negative_seed_or_reflection_count(tmp_path, capsys, flag):
    # a negative seed ended in numpy's traceback, and a negative reflection
    # count wrote the unreflected diagonal
    out = tmp_path / "b.txt"
    assert main(["gen", "--kind", "quadratic", "--n", "6", *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[0][2:]} must be nonnegative")
    assert not out.exists()


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


def test_theory_loads_an_indefinite_file_densely(tmp_path, capsys):
    # column 2 holds 0.5 above an absent diagonal: the sparse layout refuses
    # the file, and the spectrum of [[1, 0.5], [0.5, 0]] prints all the same
    out = tmp_path / "b.txt"
    out.write_text("1 1 1.0\n1 2 0.5\n")
    assert main(["theory", "--matrix", str(out), "--taus", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["n = 2", "eigenvalues (descending):", "  1.20711 -0.207107"]


def test_theory_skips_a_tau_above_n_and_calls_one_above_the_rank_undefined(tmp_path, capsys):
    out = tmp_path / "b.txt"
    save_triples(np.diag([1.0, 1.0, 0.0]), out)
    assert main(["theory", "--matrix", str(out), "--taus", "1,3,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("tau")] == [
        "tau = 1", "tau = 3"]
    assert lines[-1].startswith("tau = 3: undefined (")


def test_theory_refuses_a_subset_size_that_does_not_parse(tmp_path, capsys, monkeypatch):
    out = tmp_path / "b.txt"
    save_triples(np.diag([4.0, 2.0, 1.0, 1.0]), out)
    monkeypatch.setattr(cli, "eigendecompose", _refuse)
    assert main(["theory", "--matrix", str(out), "--taus", "2,x"]) == 2
    assert capsys.readouterr().err.startswith("error: --taus '2,x'")


def test_sample_test_verb_small_tv(tmp_path, capsys):
    # sample-test draws from make_sampler's choice: the sparse pair sampler
    # for a CSR file at tau = 2, enumeration for a file that loads dense
    # (row 1 stores no diagonal beside its off-diagonal entry), and spectral
    # draws handed over to the table at n = 21, tau = 3
    save_triples(np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]), tmp_path / "csr.txt")
    (tmp_path / "dense.txt").write_text("1 2 0.1\n2 2 1\n3 3 1\n")
    padded = np.zeros((21, 21))
    padded[:6, :6] = 2 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
    save_triples(padded, tmp_path / "spectral.txt")
    draws = 20000
    for name, tau in (("csr.txt", 2), ("dense.txt", 2), ("spectral.txt", 3)):
        path = tmp_path / name
        args = ["sample-test", "--matrix", str(path), "--tau", str(tau),
                "--draws", str(draws), "--seed", "3"]
        assert main(args) == 0
        text = capsys.readouterr().out
        tv = float(text.split("total variation distance:")[1].split()[0])
        # E[TV] <= sqrt(K / N) / 2 over the K outcomes of positive mass, and
        # a draw moves TV by at most 1 / N, so TV exceeds its mean by
        # 1.5 sqrt(K / N) with odds below exp(-4.5 K)
        exact = exact_probabilities(_load_matrix(path), tau)
        support = sum(p > 0 for p in exact.values())
        assert tv <= 2.0 * np.sqrt(support / draws)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--sparse"])
        assert exc.value.code == 2


def test_sample_test_names_its_sampler(tmp_path, capsys):
    # the pair sampler with its acceptance rate, and the table it falls
    # back on for a CSR B whose pair proposals are mostly refused:
    # acceptance 1 - 0.995^2 = 0.009975 is below 1/64
    save_triples(np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]), tmp_path / "csr.txt")
    save_triples(np.array([[1.0, 0.995], [0.995, 1.0]]), tmp_path / "spiked.txt")
    for name, tau, line in (("csr.txt", 2, "sampler: SparseTwoSampler, acceptance 0.833333"),
                            ("csr.txt", 3, "sampler: VolumeSampler"),
                            ("spiked.txt", 2, "sampler: VolumeSampler")):
        assert main(["sample-test", "--matrix", str(tmp_path / name), "--tau", str(tau),
                     "--draws", "100"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == line


@pytest.mark.parametrize("tau", [2, 3])
def test_sample_test_prints_the_same_bytes_at_any_scale_of_b(tmp_path, capsys, tau):
    # the pair sampler (tau = 2 on a CSR file) and the table (tau = 3) draw
    # from B 4^-j, so B times 2^600 or 2^-600 prints B's report byte for byte
    b = banded_psd(8, 3, seed=4)
    outputs = []
    for k in (0, 600, -600):
        path = tmp_path / f"b{k}.txt"
        save_triples(CsrSymmetricUpper(b.n, b.indptr, b.indices, np.ldexp(b.values, k)), path)
        assert isinstance(_load_matrix(path), CsrSymmetricUpper)
        assert main(["sample-test", "--matrix", str(path), "--tau", str(tau),
                     "--draws", "5000", "--seed", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("flags", [["--tau", "0"], ["--tau", "4"], ["--draws", "0"]])
def test_sample_test_rejects_a_bad_tau_or_draw_count(tmp_path, capsys, flags):
    out = tmp_path / "b.txt"
    save_triples(np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]), out)
    assert main(["sample-test", "--matrix", str(out)] + flags) == 2
    assert "tau" in capsys.readouterr().err


def test_sample_test_rejects_a_negative_seed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "b.txt"
    save_triples(np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]]), out)
    monkeypatch.setattr(cli, "make_sampler", _refuse)
    assert main(["sample-test", "--matrix", str(out), "--seed", "-1"]) == 2
    assert "seed >= 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("diverged", [(), (1,), (0, 2)], ids=["none", "one", "two"])
def test_run_exits_3_after_its_table_when_a_repetition_diverged(monkeypatch, capsys, diverged):
    # the table is written whatever the statuses; a diverged repetition of
    # any cell then exits 3 with one line naming the cells
    from dataclasses import replace

    solver_run, calls = benchmark.run, []

    def run_diverging_sdna(obj, b, cfg):
        report = solver_run(obj, b, cfg)
        if cfg.method == "sdna":
            calls.append(cfg.seed)
            if len(calls) - 1 in diverged:
                return replace(report, status="diverged", capped=True)
        return report

    monkeypatch.setattr(benchmark, "run", run_diverging_sdna)
    argv = ["run", "--kind", "quadratic", "--n", "20", "--methods", "rcdvs:2,sdna:2",
            "--repetitions", "3", "--output", "csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == 4  # header + rcd + rcdvs + sdna
    if diverged:
        assert rc == 3 and err == "numeric failure: runs diverged in sdna:2\n"
    else:
        assert rc == 0 and err == ""


def test_config_error_exit_code(capsys):
    rc = main(["run", "--kind", "quadratic", "--n", "10", "--lam1", "4"])
    assert rc == 2  # lam1 below the default lam2


def test_numeric_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "rank1.txt"
    save_triples(np.outer([1.0, 2.0], [1.0, 2.0]), out)
    rc = main(["sample-test", "--matrix", str(out), "--tau", "2", "--draws", "10"])
    assert rc == 3  # every pair minor is zero: empty support


@pytest.mark.parametrize("flags", [
    # the samplers take their minors and diagonal products on B 4^-j, so rcdvs
    # runs at any scale of B: dense B, and CSR B through the pair sampler
    ["--kind", "quadratic", "--n", "5", "--lam1", "1e200", "--lam2", "1"],
    ["--kind", "huber", "--n", "5", "--m", "8", "--sparsity", "2", "--lam1", "1e300",
     "--lam2", "1e300"],
])
def test_run_at_a_huge_curvature_scale_prints_its_table(capsys, flags):
    argv = ["run", *flags, "--methods", "rcdvs:2", "--repetitions", "1", "--max-updates", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # capped cells
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[3].startswith("| rcdvs  | 2   |")


def test_run_on_a_numerically_rank_one_curvature_exits_3(capsys):
    # spectrum (1e300, 100, 1, 1, 1): every pair's second pivot is at most
    # 1e-14 times its diagonal entry, so the pivot rule leaves no pair
    argv = ["run", "--kind", "huber", "--n", "5", "--m", "8", "--lam1", "1e300", "--mu", "1e-300",
            "--methods", "rcdvs:2", "--repetitions", "1", "--max-updates", "100"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: all order-2 principal minors are zero")


def test_run_overflowing_dataset_gram_exits_3(tmp_path, capsys):
    data = tmp_path / "huge.svm"
    data.write_text("1 1:1e308 2:1e308\n-1 1:1e308 2:1\n")
    assert main(["run", "--dataset", str(data), "--methods", "rcdvs:2", "--repetitions", "1"]) == 3
    assert "numeric failure: Gram matrix overflows" in capsys.readouterr().err


def test_run_overflow_exit_prints_only_its_message(tmp_path):
    # in a fresh interpreter, where numpy's RuntimeWarnings would reach stderr
    (tmp_path / "huge.svm").write_text("1 1:1e308 2:1e308\n-1 1:1e308 2:1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "volcd.cli", "run", "--dataset", "huge.svm",
         "--gamma", "1", "--methods", "rcdvs:2", "--repetitions", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numeric failure: Gram matrix overflows")


def test_python_m_volcd_runs_the_cli_from_a_source_checkout(tmp_path):
    # the package's __main__ makes `python -m volcd` the `volcd` command
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    version = subprocess.run([sys.executable, "-m", "volcd", "--version"], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=60)
    assert version.returncode == 0 and version.stdout.strip() == volcd.__version__
    gen = subprocess.run(
        [sys.executable, "-m", "volcd", "gen", "--kind", "quadratic", "--n", "6",
         "--seed", "1", "--out", "b.txt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert gen.returncode == 0, gen.stderr
    assert load_csr_triples(tmp_path / "b.txt").shape == (6, 6)


def test_run_tau_four_past_the_enumeration_range(capsys):
    # C(60, 4) = 487635 > 4 * 60^2, so rcdvs:4 draws from the spectral sampler
    argv = ["run", "--kind", "quadratic", "--n", "60", "--methods", "rcdvs:4",
            "--repetitions", "1", "--output", "json"]
    assert main(argv) == 0
    assert '"rcdvs:4"' in capsys.readouterr().out


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert main(["run", "--config", str(missing), "--kind", "quadratic", "--n", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file")


@pytest.mark.parametrize("flags, message", [
    ([], "problem needs kind and n"),
    (["--kind", "quadratic"], "problem needs n"),
    (["--n", "4"], "problem needs kind"),
])
def test_gen_without_kind_or_n_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "b.txt"
    assert main(["gen", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the settings were checked")


@pytest.mark.parametrize(
    "ini, flags",
    [
        ("[problem]\nkind = quadratic\nn = 10\ngamma = 50\n", []),
        ("[problem]\nkind = quadratic\nn = 10\nseed = 9\n", []),
        ("[problem]\nkind = quadratic\nn = abc\n", []),
        ("[problem]\nkind = quadratic\n", ["--n", "abc"]),
        ("[problem\nkind = quadratic\n", []),
        ("", ["--kind", "quadratic", "--n", "10", "--methods", "rcdvs:x"]),
        ("", ["--kind", "quadratic", "--n", "10", "--methods", "rcdvs"]),
        ("", ["--kind", "quadratic", "--n", "10", "--methods", "rcdvs:11"]),
        ("", ["--kind", "quadratic", "--n", "10", "--output", "xml"]),
        ("", ["--kind", "logistic", "--n", "10"]),
        ("", ["--kind", "quadratic", "--n", "10", "--m", "5"]),
        ("", ["--kind", "quadratic", "--n", "10", "--sparsity", "3"]),
        ("", ["--kind", "quadratic", "--n", "10", "--gamma", "2"]),
        ("[experiment]\ngamma = 2\n", ["--kind", "quadratic", "--n", "10"]),
        ("", ["--kind", "quadratic", "--n", "10", "--epsilon", "nan"]),
        ("", ["--kind", "quadratic", "--n", "10", "--lam1", "inf"]),
        ("", ["--kind", "huber", "--n", "10", "--m", "5", "--mu", "nan"]),
        ("", ["--kind", "huber", "--n", "10", "--m", "5", "--mu", "inf"]),
        # a subnormal mu has an infinite reciprocal, the loss's smoothness
        ("", ["--kind", "huber", "--n", "10", "--m", "20", "--mu", "1e-320"]),
        ("", ["--kind", "quadratic", "--n", "10", "--seed", "-1"]),
        ("[experiment]\nseed = -1\n", ["--kind", "quadratic", "--n", "10"]),
        ("", ["--kind", "quadratic", "--n", "10", "--reflections", "-3"]),
        # a cell listed twice ran twice per repetition and printed two rows
        ("", ["--kind", "quadratic", "--n", "20", "--lam1", "100", "--lam2", "10",
              "--methods", "rcdvs:2,rcdvs:2", "--repetitions", "2", "--seed", "1"]),
        ("[experiment]\nmethods = sdna:2 rcdvs:3 sdna:2\n", ["--kind", "quadratic", "--n", "10"]),
    ],
)
def test_bad_run_settings_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, ini, flags
):
    for name in ("generate", "run"):
        monkeypatch.setattr(benchmark, name, _refuse)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    assert main(["run", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("gamma", ["inf", "nan", "-1"])
def test_run_refuses_a_bad_ridge_weight(tmp_path, capsys, monkeypatch, gamma):
    # gamma = 0 means no ridge; a negative or NaN weight used to run
    # unregularized, an infinite one ended in a traceback
    for name in ("load_libsvm", "run"):
        monkeypatch.setattr(benchmark, name, _refuse)
    data = tmp_path / "toy.svm"
    data.write_text("+1 1:1\n-1 1:-1\n")
    assert main(["run", "--dataset", str(data), "--gamma", gamma]) == 2
    assert "gamma must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--m", "5"], ["--sparsity", "3"]])
def test_gen_quadratic_rejects_huber_fields(capsys, flag):
    assert main(["gen", "--kind", "quadratic", "--n", "4", *flag]) == 2
    assert "no m or sparsity" in capsys.readouterr().err


def test_gen_has_no_gamma(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "quadratic", "--n", "4", "--gamma", "1"])
    assert exc.value.code == 2  # argparse usage error


def test_run_three_label_dataset_exits_2(tmp_path, capsys):
    data = tmp_path / "multi.svm"
    data.write_text("1 1:1\n2 1:0.5\n3 2:1\n")
    assert main(["run", "--dataset", str(data), "--repetitions", "1"]) == 2
    assert "binary labels" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("inf 1:1\n1 2:1\ninf 1:2\n1 2:3\n", "line 1: non-finite label 'inf'"),
    ("1 1:1\n-1 2:nan\n", "line 2: non-finite value 'nan'"),
])
def test_run_non_finite_dataset_exits_2(tmp_path, capsys, text, message):
    data = tmp_path / "bad.svm"
    data.write_text(text)
    assert main(["run", "--dataset", str(data), "--methods", "rcdvs:2", "--repetitions", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_dataset_without_feature_entries_exits_2(tmp_path, capsys):
    data = tmp_path / "labels.svm"
    data.write_text("1\n-1\n1\n")
    assert main(["run", "--dataset", str(data), "--methods", "rcdvs:2", "--repetitions", "1"]) == 2
    assert capsys.readouterr().err == "error: no feature entries found\n"


def test_run_missing_dataset_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.svm"
    assert main(["run", "--dataset", str(missing), "--repetitions", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_run_out_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "table.json"
    argv = ["run", "--kind", "quadratic", "--n", "4", "--methods", "rcdvs:2",
            "--repetitions", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


# One value per key, each different from the default and from _BASE.
_SAMPLE = {
    "kind": "huber", "n": "7", "m": "9", "lam1": "500", "lam2": "50",
    "mu": "0.5", "sparsity": "3", "seed": "4", "reflections": "2",
    "dataset": "data.svm", "gamma": "0.5", "methods": "rcdvs:3, sdna:2",
    "epsilon": "0.5", "repetitions": "3", "max_updates": "123", "output": "csv",
}
# run's base names a dataset, without which gamma is an error
_BASE = {
    "problem": {"kind": "quadratic", "n": "5"},
    "experiment": {"dataset": "base.svm"},
}


def _config(verb, argv):
    args = _build_parser().parse_args([verb, *argv])
    if verb == "run":
        return _run_config(args)
    return _problem(_settings(args)["problem"])


def _write_ini(path, sections) -> str:
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    return str(path)


@pytest.mark.parametrize(
    "verb, section, key",
    [
        (verb, section, key)
        for verb, sections in _SECTIONS.items()
        for section, table in sections.items()
        for key in table
    ],
)
def test_flag_and_ini_key_build_equal_configs(tmp_path, verb, section, key):
    base = {name: dict(_BASE[name]) for name in _SECTIONS[verb]}
    base_ini = _write_ini(tmp_path / "base.ini", base)
    flag = f"--{key.replace('_', '-')}"
    from_flag = _config(verb, ["--config", base_ini, flag, _SAMPLE[key]])
    base[section][key] = _SAMPLE[key]
    from_ini = _config(verb, ["--config", _write_ini(tmp_path / "key.ini", base)])
    assert from_flag == from_ini
    assert from_flag != _config(verb, ["--config", base_ini])  # the key took effect


def _benchmark_workloads() -> dict:
    """``perfbench/workloads.py``'s workloads, loaded without changing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


_WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_benchmark_command_lines_build_intended_configs(name):
    workload = _WORKLOADS[name]
    data = "data.svm" if workload.dataset else None
    argv = workload.cli_args(777, 2, data)
    expected = ExperimentConfig(
        problem=ProblemSpec(**workload.problem) if workload.problem else None,
        dataset=data,
        gamma=workload.dataset["gamma"] if workload.dataset else 1.0,
        methods=list(workload.methods),
        epsilon=workload.epsilon,
        repetitions=2,
        max_updates=workload.max_updates,
        seed=777,
        output="json",
    )
    assert _config("run", argv) == expected
