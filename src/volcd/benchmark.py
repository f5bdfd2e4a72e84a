"""Experiment runner: repeated solver races with median aggregation.

The protocol mirrors the synthetic benchmarks this library exists to run:
generate a fresh problem instance per repetition, run the single-coordinate
baseline and every configured (method, tau) cell from the zero vector until
the objective gap drops below epsilon, then aggregate medians and compare the
measured acceleration against the spectral prediction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .linalg import CsrSymmetricUpper, as_dense, eigendecompose, minor_threshold
from .problems import ProblemSpec, generate, load_libsvm, reference_min
from .solvers import SolverConfig, run
from .spectral import acceleration_ratio

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "emit_table",
    "run_experiment",
]


@dataclass
class ExperimentConfig:
    """A full experiment: problem source, method grid, stopping, seeding.

    The problem is either generated from ``problem`` or read from the LIBSVM
    file ``dataset`` as ridge logistic regression with weight ``gamma``, a
    finite ``gamma >= 0`` where 0 means no ridge.
    ``problem.seed`` is replaced in every repetition by a seed derived from
    ``seed``, which also seeds every solver run.
    """

    problem: ProblemSpec | None = None
    dataset: str | None = None
    gamma: float = 1.0
    methods: list[tuple[str, int]] = field(default_factory=lambda: [("rcdvs", 2)])
    epsilon: float = 0.01
    repetitions: int = 10
    max_updates: int = 10**8  # single-coordinate-equivalent iteration cap
    seed: int = 0
    output: str = "markdown"

    def validate(self) -> None:
        if (self.problem is None) == (self.dataset is None):
            raise ConfigError("configure exactly one of problem or dataset")
        if self.problem is not None:
            self.problem.validate()
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be finite and positive")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("gamma must be finite and nonnegative")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.max_updates < 1:
            raise ConfigError("max_updates must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.methods:
            raise ConfigError("need at least one (method, tau) cell")
        # a repeated cell would run twice per repetition, and print twice
        seen = set()
        for method, tau in self.methods:
            if (method, tau) in seen:
                raise ConfigError(f"method cell {method}:{tau} is listed twice")
            seen.add((method, tau))
        if self.output not in _FORMATS:
            raise ConfigError(f"unknown output format {self.output!r}")


@dataclass
class ResultRow:
    """One aggregated table row.

    ``acc`` is the median over repetitions of It(baseline) / It(method);
    ``pct`` expresses it as a percentage of the spectral prediction for the
    same subset size.  Capped repetitions are excluded from the medians;
    ``acc`` and ``pct`` also leave out those whose rcd:1 baseline was capped.

    ``pct`` carries no information on a flat leading spectrum: there the
    prediction ``acceleration_ratio(1, tau)`` is about 1 while each
    iteration updates tau coordinates, so ``pct`` reads far above 100 and
    says nothing about the spectral-gap claim (197, 271 and 347 at tau = 2,
    3 and 4 for ridge logistic regression on a seeded 1000 x 40 LIBSVM
    file whose top eigenvalues are 90.8, 88.5, 85.9 and 85.2).
    """

    method: str
    tau: int
    median_it: float
    median_time: float
    acc: float
    pct: float
    capped: int = 0


@dataclass
class ResultTable:
    rows: list[ResultRow]
    meta: dict
    raw: list[dict]

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "rows": [vars(r) for r in self.rows],
            "raw": self.raw,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        payload = json.loads(text)
        rows = [ResultRow(**r) for r in payload["rows"]]
        return cls(rows=rows, meta=payload["meta"], raw=payload["raw"])


def _cached_reference_min(config: ExperimentConfig, obj, b) -> float:
    """Reference optimum for a dataset problem, cached next to the file.

    The sidecar is keyed by the dataset content hash and the ridge weight so
    repetitions (and repeat runs) share one reference solve.  Any other
    sidecar, or one without a finite ``f_star``, is solved again and
    rewritten; ``b`` is the objective's curvature matrix, which that solve
    reuses.
    """
    digest = hashlib.sha256()
    with open(config.dataset, "rb") as fh:
        digest.update(fh.read())
    key = f"{digest.hexdigest()}:{config.gamma!r}"
    sidecar = config.dataset + ".fstar.json"
    if os.path.exists(sidecar):
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if isinstance(payload, dict) and payload.get("key") == key:
                f_star = payload.get("f_star")
                # json's true and false load as bool, a subclass of int
                if type(f_star) in (int, float) and math.isfinite(f_star):
                    return float(f_star)
        except (ValueError, OverflowError):
            pass
    f_star = reference_min(obj, b=b)
    try:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({"key": key, "f_star": f_star}, fh)
    except OSError:
        pass  # read-only dataset directory; recompute next time
    return f_star


def _median(values) -> float:
    """``float(np.median(values))`` bitwise, NaN included, without the
    ``numpy.ma`` import that ``np.median`` costs a process: the middle value,
    or the mean of the two middle ones in float64."""
    xs = sorted(float(v) for v in values)
    if any(math.isnan(v) for v in xs):
        return math.nan
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Execute the full repetition protocol and aggregate medians."""
    config.validate()
    cells = [("rcd", 1)] + [
        (m, t) for (m, t) in config.methods if (m, t) != ("rcd", 1)
    ]
    if config.dataset is None:
        n = config.problem.n
    else:
        dataset = load_libsvm(config.dataset, gamma=config.gamma)
        n = dataset.n
    # every cell is checked before the reference solve and the first run
    for method, tau in cells:
        SolverConfig(method=method, tau=tau, max_iters=1).validate(n)

    # the theory columns use a generator problem's constructed spectrum; a
    # dataset's curvature matrix is small enough to eigendecompose densely
    if config.dataset is None:
        eigenvalues = np.sort(config.problem.eigenvalues())[::-1]
    else:
        dataset_b = dataset.curvature_matrix()
        # the reference solve and the eigendecomposition both read B densely
        dense_b = as_dense(dataset_b)
        dataset_fstar = _cached_reference_min(config, dataset, dense_b)
        eigenvalues = eigendecompose(dense_b).eigenvalues

    raw: list[dict] = []
    # capped repetitions whose value turned non-finite: they stopped early,
    # not at the iteration cap
    diverged = dict.fromkeys((f"{m}:{t}" for m, t in cells), 0)
    rep_seqs = np.random.SeedSequence(config.seed).spawn(config.repetitions)
    for rep, seq in enumerate(rep_seqs):
        prob_seq, solver_seq = seq.spawn(2)
        if config.dataset is None:
            spec = replace(config.problem, seed=int(prob_seq.generate_state(1)[0]))
            obj, _, f_star = generate(spec)
            b = obj.curvature_matrix()
        else:
            obj, b, f_star = dataset, dataset_b, dataset_fstar

        # an overflowing minor clamp fails now; sdna and CSR pairs take none
        diag_max = float(np.max(b.diagonal()))
        for method, tau in cells:
            if method != "sdna" and not (tau == 2 and isinstance(b, CsrSymmetricUpper)):
                minor_threshold(diag_max, tau)
        solver_seeds = solver_seq.spawn(len(cells))
        rep_out: dict = {"rep": rep}
        baseline_it = None
        for (method, tau), child in zip(cells, solver_seeds):
            cfg = SolverConfig(
                method=method,
                tau=tau,
                target_gap=config.epsilon,
                f_star=f_star,
                max_iters=max(1, config.max_updates // tau),
                seed=int(child.generate_state(1)[0]),
                trace_every=2**62,
            )
            report = run(obj, b, cfg)
            cell = {
                "method": method,
                "tau": tau,
                "it": report.iterations,
                "time": report.wall_time,
                "capped": report.capped,
            }
            if report.capped and not math.isfinite(report.final_value):
                diverged[f"{method}:{tau}"] += 1
            if method == "rcd":
                baseline_it = report.iterations
            cell["acc"] = (
                baseline_it / report.iterations
                if report.iterations
                else float("nan")
            )
            rep_out[f"{method}:{tau}"] = cell
        raw.append(rep_out)

    rows = []
    for method, tau in cells:
        key = f"{method}:{tau}"
        good = [r[key] for r in raw if not r[key]["capped"]]
        capped = sum(1 for r in raw if r[key]["capped"])
        for count, cause in ((capped - diverged[key], "hit the iteration cap"),
                             (diverged[key], "diverged to a non-finite value")):
            if count:
                warnings.warn(
                    f"{key}: {count}/{len(raw)} repetitions {cause} "
                    "and are excluded from the medians"
                )
        # acc divides by the baseline's count, which means nothing where the
        # baseline did not converge
        paired = [r[key] for r in raw if not (r[key]["capped"] or r["rcd:1"]["capped"])]
        if len(paired) < len(good):
            warnings.warn(
                f"{key}: {len(good) - len(paired)}/{len(raw)} repetitions whose rcd:1 "
                "baseline did not converge are excluded from the acc and pct medians"
            )
        ratio = acceleration_ratio(eigenvalues, 1, tau)
        med_it = _median([c["it"] for c in good]) if good else float("nan")
        med_t = _median([c["time"] for c in good]) if good else float("nan")
        acc = _median([c["acc"] for c in paired]) if paired else float("nan")
        pct = 100.0 * acc / ratio
        rows.append(
            ResultRow(
                method=method,
                tau=tau,
                median_it=med_it,
                median_time=med_t,
                acc=acc,
                pct=pct,
                capped=capped,
            )
        )

    meta = {
        "epsilon": config.epsilon,
        "repetitions": config.repetitions,
        "seed": config.seed,
        # without the generator seed, which every repetition replaces
        "source": config.dataset
        or {k: v for k, v in vars(config.problem).items() if k != "seed"},
        "top_eigenvalues": [float(v) for v in eigenvalues[:4]],
        "theory_ratios": {
            str(t): acceleration_ratio(eigenvalues, 1, t)
            for t in sorted({t for _, t in cells})
        },
    }
    return ResultTable(rows=rows, meta=meta, raw=raw)


# ---------------------------------------------------------------------------
# Table emission


_FORMATS = ("csv", "json", "markdown")
_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_table(table: ResultTable, fmt: str = "markdown") -> str:
    """Render a :class:`ResultTable` as csv, json, or aligned markdown."""
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    if fmt == "json":
        return table.to_json()
    header = list(_COLUMNS)
    body = [[_cell(getattr(row, c)) for c in header] for row in table.rows]
    if fmt == "csv":
        return "".join(",".join(cells) + "\n" for cells in [header, *body])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    def fmt_row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt_row(header)]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt_row(r) for r in body)
    return "\n".join(lines) + "\n"
