import json

import numpy as np
import pytest

from volcd import benchmark
from volcd.benchmark import ExperimentConfig, emit_table, run_experiment
from volcd.errors import ConfigError
from volcd.objectives import RegularizedObjective
from volcd.problems import ProblemSpec, load_libsvm, reference_min


def small_config(**overrides):
    base = dict(
        problem=ProblemSpec(kind="quadratic", n=30, lam1=400.0, lam2=100.0),
        methods=[("rcdvs", 2), ("sdna", 2)],
        epsilon=0.01,
        repetitions=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def table():
    return run_experiment(small_config())


def test_baseline_acceleration_is_one(table):
    rcd = next(r for r in table.rows if r.method == "rcd")
    assert rcd.acc == pytest.approx(1.0)
    assert rcd.pct == pytest.approx(100.0)


def test_acc_consistency_per_repetition(table):
    for rep in table.raw:
        it_rcd = rep["rcd:1"]["it"]
        for key, cell in rep.items():
            if key == "rep" or key == "rcd:1":
                continue
            assert cell["acc"] * cell["it"] == pytest.approx(it_rcd)


def test_each_cell_and_repetition_calls_the_module_run_once(monkeypatch):
    # perfbench's child times a reference kernel before every solver run by
    # patching volcd.benchmark.run, so the experiment loop must call that
    # module global, once per cell and repetition
    solver_run = benchmark.run
    calls = []

    def counted(obj, b, config):
        calls.append(f"{config.method}:{config.tau}")
        return solver_run(obj, b, config)

    monkeypatch.setattr(benchmark, "run", counted)
    table = run_experiment(small_config(repetitions=2))
    cells = [f"{row.method}:{row.tau}" for row in table.rows]
    assert calls == cells * 2
    assert sorted(cells) == ["rcd:1", "rcdvs:2", "sdna:2"]


def _strip_times(payload: dict) -> dict:
    payload["rows"] = [
        {k: v for k, v in r.items() if k != "median_time"} for r in payload["rows"]
    ]
    for rep in payload["raw"]:
        for cell in rep.values():
            if isinstance(cell, dict):
                cell.pop("time", None)
    return payload


def _csv_without_time_column(table):
    return [
        [c for i, c in enumerate(line.split(",")) if i != 3]
        for line in emit_table(table, "csv").splitlines()
    ]


def test_experiment_is_deterministic_byte_for_byte():
    # wall-clock columns are reported but carry no reproducibility contract;
    # everything else must match exactly
    t1 = run_experiment(small_config())
    t2 = run_experiment(small_config())
    assert _csv_without_time_column(t1) == _csv_without_time_column(t2)
    j1 = _strip_times(json.loads(emit_table(t1, "json")))
    j2 = _strip_times(json.loads(emit_table(t2, "json")))
    assert j1 == j2


def test_median_is_bitwise_np_median():
    # the table's medians skip np.median, which imports numpy.ma; acc is
    # NaN for a cell that took 0 iterations, and the median propagates it
    rng = np.random.default_rng(50)
    cases = [[3], [7, 2], [1e308, 1e308], [0.1, 0.2, 0.7, 0.3], [5, float("nan"), 1]]
    for size in range(1, 12):
        cases.append(rng.standard_normal(size).tolist())
        cases.append((rng.lognormal(size=size) / 3).tolist())
        cases.append(rng.integers(0, 10**6, size).tolist())
    for values in cases:
        got = np.float64(benchmark._median(values)).tobytes()
        with np.errstate(over="ignore"):  # the mean of 1e308 and 1e308
            expected = np.float64(np.median(values)).tobytes()
        assert got == expected, values


def test_capped_runs_flagged_and_excluded():
    cfg = small_config(max_updates=20)  # absurdly small iteration budget
    with pytest.warns(UserWarning, match="iteration cap"):
        t = run_experiment(cfg)
    rcd = next(r for r in t.rows if r.method == "rcd")
    assert rcd.capped == cfg.repetitions
    assert np.isnan(rcd.median_it)


def test_diverged_runs_are_not_blamed_on_the_iteration_cap(monkeypatch):
    # a run whose value turns non-finite stops early with status diverged,
    # and is capped; the warning names that cause apart from real cap hits
    from dataclasses import replace

    solver_run = benchmark.run
    calls = []

    def run_diverging_sdna(obj, b, cfg):
        report = solver_run(obj, b, cfg)
        if cfg.method == "sdna":
            calls.append(cfg.seed)
            if len(calls) % 3 != 1:  # two of three repetitions diverge
                return replace(report, status="diverged", capped=True)
        return report

    monkeypatch.setattr(benchmark, "run", run_diverging_sdna)
    with pytest.warns(UserWarning) as record:
        t = run_experiment(small_config())
    messages = [str(w.message) for w in record]
    assert messages == [
        "sdna:2: 2/3 repetitions diverged to a non-finite value "
        "and are excluded from the medians"
    ]
    sdna = next(r for r in t.rows if r.method == "sdna")
    assert sdna.capped == 2
    assert [rep["sdna:2"]["status"] for rep in t.raw] == ["converged", "diverged", "diverged"]

    monkeypatch.setattr(benchmark, "run", solver_run)
    with pytest.warns(UserWarning) as record:
        run_experiment(small_config(max_updates=20))
    assert all("iteration cap" in str(w.message) and "diverged" not in str(w.message)
               for w in record)


def test_acc_leaves_out_repetitions_whose_baseline_did_not_converge(monkeypatch):
    # acc divides by the baseline's iterations, which for a capped rcd:1 run
    # are the cap, not a time to epsilon
    from dataclasses import replace

    solver_run = benchmark.run
    calls = []

    def run_capping_rcd(obj, b, cfg):
        report = solver_run(obj, b, cfg)
        if cfg.method == "rcd":
            calls.append(cfg.seed)
            if len(calls) != 2:  # only the second repetition's baseline converges
                return replace(report, status="budget", capped=True)
        return report

    monkeypatch.setattr(benchmark, "run", run_capping_rcd)
    with pytest.warns(UserWarning) as record:
        t = run_experiment(small_config())
    assert [str(w.message) for w in record] == [
        "rcd:1: 2/3 repetitions hit the iteration cap and are excluded from the medians",
        *(f"{key}: 2/3 repetitions whose rcd:1 baseline did not converge are excluded "
          "from the acc and pct medians" for key in ("rcdvs:2", "sdna:2")),
    ]
    for row in t.rows[1:]:
        cells = [rep[f"{row.method}:{row.tau}"] for rep in t.raw]
        assert row.median_it == benchmark._median([c["it"] for c in cells])
        assert row.acc == cells[1]["acc"]
        assert row.pct == 100.0 * row.acc / t.meta["theory_ratios"][str(row.tau)]

    # dense-gap's shape with a budget that caps every baseline: no acc at all
    monkeypatch.setattr(benchmark, "run", solver_run)
    cfg = small_config(problem=ProblemSpec(kind="quadratic", n=100, lam1=6400.0, lam2=100.0),
                       methods=[("rcdvs", 2)], max_updates=6000, seed=1)
    with pytest.warns(UserWarning) as record:
        t = run_experiment(cfg)
    assert [str(w.message) for w in record] == [
        "rcd:1: 3/3 repetitions hit the iteration cap and are excluded from the medians",
        "rcdvs:2: 3/3 repetitions whose rcd:1 baseline did not converge are excluded "
        "from the acc and pct medians",
    ]
    rcd, rcdvs = t.rows
    assert rcd.capped == 3 and rcdvs.capped == 0
    assert np.isnan(rcdvs.acc) and np.isnan(rcdvs.pct) and rcdvs.median_it > 0


def test_emit_csv_shape(table):
    text = emit_table(table, "csv")
    lines = text.strip().splitlines()
    assert lines[0].startswith("method,tau,")
    assert len(lines) == 1 + len(table.rows)


def test_emit_json_roundtrip(table):
    back = json.loads(emit_table(table, "json"))
    assert back == {"meta": table.meta, "rows": [vars(r) for r in table.rows],
                    "raw": table.raw}


def test_emit_markdown_alignment(table):
    lines = emit_table(table, "markdown").strip().splitlines()
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # every row padded to the same width


def test_unknown_format_rejected(table):
    with pytest.raises(ConfigError):
        emit_table(table, "yaml")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=None, dataset=None).validate()
    with pytest.raises(ConfigError):
        small_config(epsilon=-1.0).validate()
    with pytest.raises(ConfigError):
        small_config(repetitions=0).validate()
    with pytest.raises(ConfigError):
        small_config(methods=[]).validate()
    with pytest.raises(ConfigError):
        small_config(max_updates=0).validate()
    with pytest.raises(ConfigError):
        small_config(output="xml").validate()
    with pytest.raises(ConfigError, match="seed"):
        small_config(seed=-1).validate()
    with pytest.raises(ConfigError, match="rcdvs:2 is listed twice"):
        small_config(methods=[("rcdvs", 2), ("rcdvs", 2)]).validate()
    # the rcd:1 baseline runs once whether or not it is listed
    small_config(methods=[("rcd", 1), ("rcdvs", 2)]).validate()


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the configuration was checked")


def test_cells_checked_before_any_work(tmp_path, monkeypatch):
    for name in ("generate", "reference_min", "run"):
        monkeypatch.setattr(benchmark, name, _refuse)
    for methods in ([("rcdvs", 31)], [("bogus", 2)], [("rcd", 2)],
                    [("rcdvs", 2), ("sdna", 2), ("rcdvs", 2)], [("rcd", 1), ("rcd", 1)]):
        with pytest.raises(ConfigError):
            run_experiment(small_config(methods=methods))
    path = tmp_path / "three.svm"  # three features
    path.write_text("+1 1:1 2:0.5\n-1 1:0.5 3:1\n")
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(dataset=str(path), methods=[("rcdvs", 4)]))


def test_dataset_curvature_matrix_built_once(tmp_path, monkeypatch):
    path = tmp_path / "toy.svm"
    path.write_text("+1 1:1 2:0.5\n-1 1:0.5 3:1\n+1 2:1 3:-0.5\n")
    cfg = ExperimentConfig(dataset=str(path), repetitions=3, epsilon=1e-3)
    calls = []
    build = RegularizedObjective.curvature_matrix

    def counted(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(RegularizedObjective, "curvature_matrix", counted)
    run_experiment(cfg)  # cold: solves for f* and writes the sidecar
    assert len(calls) == 1
    run_experiment(cfg)  # warm: reads f* from the sidecar
    assert len(calls) == 2
    sidecar = json.loads((tmp_path / "toy.svm.fstar.json").read_text())
    assert sidecar["f_star"] == reference_min(load_libsvm(str(path), gamma=cfg.gamma))


@pytest.mark.parametrize("payload", [
    [1, 2],
    "text",
    {"f_star": None},  # under the dataset's key
    {"f_star": float("nan")},
    {"f_star": True},
], ids=["list", "string", "null", "nan", "bool"])
def test_a_malformed_sidecar_is_solved_again_and_rewritten(tmp_path, payload):
    # a sidecar that is valid JSON but no object, or holds no finite f_star,
    # ended the run in an AttributeError or a TypeError
    path = tmp_path / "toy.svm"
    path.write_text("+1 1:1 2:0.5\n-1 1:0.5 3:1\n+1 2:1 3:-0.5\n")
    cfg = ExperimentConfig(dataset=str(path), repetitions=1, epsilon=1e-3)
    sidecar = tmp_path / "toy.svm.fstar.json"
    run_experiment(cfg)
    good = json.loads(sidecar.read_text())
    if isinstance(payload, dict):
        payload = {"key": good["key"], **payload}
    sidecar.write_text(json.dumps(payload))
    run_experiment(cfg)
    assert json.loads(sidecar.read_text()) == good


def test_huber_experiment_paths():
    # dense generator path
    dense_cfg = ExperimentConfig(
        problem=ProblemSpec(kind="huber", n=25, m=30, lam1=400.0, lam2=100.0),
        methods=[("rcdvs", 2)],
        epsilon=0.01,
        repetitions=2,
        seed=11,
    )
    t = run_experiment(dense_cfg)
    rcdvs = next(r for r in t.rows if r.method == "rcdvs")
    assert rcdvs.acc >= 1.0
    # sparse generator path with an underdetermined system
    sparse_cfg = ExperimentConfig(
        problem=ProblemSpec(
            kind="huber", n=60, m=40, lam1=400.0, lam2=100.0, sparsity=3
        ),
        methods=[("rcdvs", 2)],
        epsilon=0.01,
        repetitions=2,
        seed=12,
    )
    t2 = run_experiment(sparse_cfg)
    assert all(np.isfinite(r.median_it) for r in t2.rows)
    # constructed spectrum carries the trailing zeros of the rank-deficient case
    assert t2.meta["theory_ratios"]["2"] == pytest.approx(
        (400.0 + 100.0 + 38.0) / (100.0 + 38.0)
    )


def test_theory_ratio_in_meta(table):
    # constructed spectrum: (400, 100, 1, ..., 1) at n = 30
    lam_sum = 400.0 + 100.0 + 28.0
    expected = lam_sum / (100.0 + 28.0)
    assert table.meta["theory_ratios"]["2"] == pytest.approx(expected)


def test_dataset_experiment_with_fstar_cache(tmp_path):
    path = tmp_path / "toy.svm"
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(40):
        label = "+1" if rng.random() < 0.5 else "-1"
        feats = " ".join(
            f"{j + 1}:{rng.standard_normal():.4f}" for j in range(4)
        )
        lines.append(f"{label} {feats}")
    path.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig(
        dataset=str(path),
        gamma=1.0,
        methods=[("rcdvs", 2)],
        epsilon=0.01,
        repetitions=2,
        seed=3,
    )
    t = run_experiment(cfg)
    sidecar = tmp_path / "toy.svm.fstar.json"
    assert sidecar.exists()
    cached = json.loads(sidecar.read_text())
    assert "f_star" in cached
    # second run reuses the cache and reproduces the table
    t2 = run_experiment(cfg)
    assert _csv_without_time_column(t) == _csv_without_time_column(t2)
    rcdvs = next(r for r in t.rows if r.method == "rcdvs")
    assert rcdvs.median_it > 0
