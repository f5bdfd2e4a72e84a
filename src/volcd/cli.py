"""Command-line interface.

Verbs:

* ``gen``          generate a synthetic problem and write its curvature
                   matrix in the triple text format
* ``run``          execute a full experiment and print the result table
* ``theory``       print the spectrum, surrogate spectra, and predicted
                   acceleration ratios for a matrix file
* ``sample-test``  compare empirical subset frequencies against the exact
                   determinantal distribution

Experiment settings may come from an INI config file (sections ``[problem]``
and ``[experiment]``); every field can be overridden by a same-named flag.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from . import __version__
from .benchmark import ExperimentConfig, emit_table, run_experiment
from .errors import ConfigError, DegenerateApprox, ParseError, VolcdError
from .linalg import (
    as_dense,
    eigendecompose,
    format_triples,
    load_csr_triples,
    load_dense_triples,
)
from .problems import ProblemSpec, generate
from .rng import RngStream
from .sampling import (
    SparseTwoSampler,
    VolumeSampler,
    exact_probabilities,
)
from .spectral import acceleration_ratio, b_tau

_PROBLEM_FIELDS = {
    "kind": str,
    "n": int,
    "m": int,
    "lam1": float,
    "lam2": float,
    "mu": float,
    "gamma": float,
    "sparsity": int,
    "seed": int,
    "reflections": int,
}
_EXPERIMENT_FIELDS = {
    "dataset": str,
    "gamma": float,
    "methods": str,
    "epsilon": float,
    "repetitions": int,
    "max_updates": int,
    "seed": int,
    "output": str,
}


def _parse_methods(text: str) -> list[tuple[str, int]]:
    cells = []
    for item in text.replace(",", " ").split():
        if ":" not in item:
            raise ConfigError(f"method cell {item!r} must look like rcdvs:2")
        name, tau = item.split(":", 1)
        cells.append((name.strip(), int(tau)))
    return cells


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volcd",
        description="coordinate descent with determinantal subset sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_problem_flags(p):
        p.add_argument("--config", help="INI config file")
        for name, typ in _PROBLEM_FIELDS.items():
            p.add_argument(f"--{name}", type=typ)

    g = sub.add_parser("gen", help="generate a problem, write its curvature matrix")
    add_problem_flags(g)
    g.add_argument("--out", help="output path (default stdout)")

    r = sub.add_parser("run", help="run an experiment and print the table")
    add_problem_flags(r)
    for name, typ in _EXPERIMENT_FIELDS.items():
        if name not in ("gamma", "seed"):  # shared with problem flags
            r.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ)
    r.add_argument("--out", help="output path (default stdout)")

    t = sub.add_parser("theory", help="spectral quantities of a matrix file")
    t.add_argument("--matrix", required=True, help="triple-format matrix file")
    t.add_argument("--taus", default="2,3,4", help="comma-separated subset sizes")
    t.add_argument("--out", help="output path (default stdout)")

    s = sub.add_parser("sample-test", help="empirical vs exact subset frequencies")
    s.add_argument("--matrix", required=True, help="triple-format matrix file")
    s.add_argument("--tau", type=int, default=2)
    s.add_argument("--draws", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sparse", action="store_true", help="use the sparse pair sampler")
    s.add_argument("--out", help="output path (default stdout)")
    return parser


def _load_config_file(path: str) -> tuple[dict, dict]:
    ini = configparser.ConfigParser()
    read = ini.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    problem = {}
    experiment = {}
    for key, raw in ini.items("problem") if ini.has_section("problem") else []:
        if key not in _PROBLEM_FIELDS:
            raise ConfigError(f"unknown [problem] field {key!r}")
        problem[key] = _PROBLEM_FIELDS[key](raw)
    for key, raw in ini.items("experiment") if ini.has_section("experiment") else []:
        if key not in _EXPERIMENT_FIELDS:
            raise ConfigError(f"unknown [experiment] field {key!r}")
        experiment[key] = _EXPERIMENT_FIELDS[key](raw)
    return problem, experiment


def _merge_problem(args) -> ProblemSpec | None:
    fields: dict = {}
    if getattr(args, "config", None):
        fields.update(_load_config_file(args.config)[0])
    for name in _PROBLEM_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            fields[name] = val
    # gamma and seed are shared with the experiment settings; on their own
    # they do not describe a generated problem (e.g. dataset runs)
    if not set(fields) - {"gamma", "seed"}:
        return None
    if "kind" not in fields:
        raise ConfigError("problem needs a kind (quadratic | huber | logistic)")
    if "n" not in fields:
        raise ConfigError("problem needs a dimension n")
    return ProblemSpec(**fields)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = _merge_problem(args)
    if spec is None:
        raise ConfigError("gen needs problem parameters")
    obj, _, f_star = generate(spec)
    b = obj.curvature_matrix()
    _write(format_triples(b), args.out)
    if args.out:
        n = b.shape[0]
        sys.stdout.write(f"wrote {n} x {n} curvature matrix to {args.out}"
                         f" (f_star = {f_star!r})\n")
    return 0


def _cmd_run(args) -> int:
    problem = _merge_problem(args)
    fields: dict = {}
    if getattr(args, "config", None):
        fields.update(_load_config_file(args.config)[1])
    for name in _EXPERIMENT_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            fields[name] = val
    # --seed and --gamma are declared with the problem flags but steer the
    # experiment as well (the per-repetition problem seeds derive from the
    # experiment seed; gamma matters for dataset problems)
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    if getattr(args, "gamma", None) is not None:
        fields["gamma"] = args.gamma
    methods = _parse_methods(fields.pop("methods", "rcdvs:2"))
    config = ExperimentConfig(problem=problem, methods=methods, **fields)
    table = run_experiment(config)
    _write(emit_table(table, config.output), args.out)
    return 0


def _load_matrix(path):
    """Load the sparse layout when the file fits it, dense otherwise.

    Indefinite matrices (zero diagonal beside off-diagonal entries, negative
    diagonal) fail the PSD sparse validation but are still fine for the
    spectral printout; parse errors propagate as configuration errors.
    """
    from .errors import ZeroDiagonalNonzeroRow

    try:
        return load_csr_triples(path)
    except (ZeroDiagonalNonzeroRow, ValueError):
        return load_dense_triples(path)


def _cmd_theory(args) -> int:
    b = _load_matrix(args.matrix)
    spectrum = eigendecompose(as_dense(b))
    lam = spectrum.eigenvalues
    lines = [f"n = {lam.size}", "eigenvalues (descending):"]
    lines.append("  " + " ".join(f"{v:.6g}" for v in lam))
    for tau in [int(t) for t in args.taus.split(",") if t.strip()]:
        if tau < 1 or tau > lam.size:
            continue
        try:
            approx = b_tau(spectrum, tau)
            ratio = acceleration_ratio(lam, 1, tau)
        except DegenerateApprox as exc:
            lines.append(f"tau = {tau}: undefined ({exc})")
            continue
        lines.append(f"tau = {tau}: predicted acceleration over tau=1: {ratio:.6g}")
        lines.append(
            "  surrogate spectrum: "
            + " ".join(f"{v:.6g}" for v in approx.eigenvalues)
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample_test(args) -> int:
    b = _load_matrix(args.matrix)
    exact = exact_probabilities(b, args.tau)
    rng = RngStream(args.seed)
    if args.sparse:
        if args.tau != 2:
            raise ConfigError("the sparse sampler draws pairs only (tau = 2)")
        sampler = SparseTwoSampler(b)
    else:
        sampler = VolumeSampler(b, args.tau)
    draws = sampler.sample_many(rng, args.draws)
    counts: dict[tuple[int, ...], int] = {}
    for row in draws:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(s, 0) / args.draws - p) for s, p in exact.items()
    )
    lines = [
        f"outcomes: {len(exact)}",
        f"draws: {args.draws}",
        f"total variation distance: {tv:.6f}",
    ]
    worst = sorted(
        exact, key=lambda s: abs(counts.get(s, 0) / args.draws - exact[s])
    )[-5:]
    for s in reversed(worst):
        emp = counts.get(s, 0) / args.draws
        one_based = tuple(i + 1 for i in s)
        lines.append(f"  {one_based}: empirical {emp:.5f} exact {exact[s]:.5f}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "theory": _cmd_theory,
        "sample-test": _cmd_sample_test,
    }
    try:
        return handlers[args.verb](args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolcdError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
