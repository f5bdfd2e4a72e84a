"""Command-line interface.

Verbs:

* ``gen``          generate a synthetic problem and write its curvature
                   matrix in the triple text format
* ``run``          execute a full experiment and print the result table
* ``theory``       print the spectrum, surrogate spectra, and predicted
                   acceleration ratios for a matrix file
* ``sample-test``  compare empirical subset frequencies against the exact
                   determinantal distribution, drawn from the sampler
                   ``make_sampler`` picks, the one ``run`` uses

``gen`` reads ``[problem]`` kind n m lam1 lam2 mu sparsity seed reflections.
``run`` reads ``[problem]`` without seed, since every repetition's problem seed
derives from the experiment seed, and ``[experiment]`` dataset gamma methods
epsilon repetitions max_updates seed output.  The keys come from the INI file
of ``--config``, overridden by same-named flags (``--max-updates``); sections a
verb does not read are ignored.  An unknown key, a value that does not parse,
or gamma without dataset is a configuration error.
Exit codes: 0 success, 2 configuration error (including a file that cannot
be read or written), 3 numeric failure.
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
from .sampling import exact_probabilities, make_sampler, subset_counts
from .spectral import acceleration_ratio, b_tau


def _parse_methods(text: str) -> list[tuple[str, int]]:
    """``rcdvs:2,sdna:2`` (commas or spaces) as (method, tau) cells."""
    cells = []
    for item in text.replace(",", " ").split():
        name, colon, tau = item.partition(":")
        if not colon:
            raise ValueError(f"method cell {item!r} must look like rcdvs:2")
        cells.append((name, int(tau)))
    return cells


# one table per INI section of every setting a verb reads, with the parser
# its value goes through whether it comes from the file or from a flag
_PROBLEM_FIELDS = {
    "kind": str,
    "n": int,
    "m": int,
    "lam1": float,
    "lam2": float,
    "mu": float,
    "sparsity": int,
    "seed": int,
    "reflections": int,
}
_EXPERIMENT_FIELDS = {
    "dataset": str,
    "gamma": float,
    "methods": _parse_methods,
    "epsilon": float,
    "repetitions": int,
    "max_updates": int,
    "seed": int,
    "output": str,
}
_SECTIONS = {
    "gen": {"problem": _PROBLEM_FIELDS},
    "run": {
        "problem": {k: v for k, v in _PROBLEM_FIELDS.items() if k != "seed"},
        "experiment": _EXPERIMENT_FIELDS,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volcd",
        description="coordinate descent with determinantal subset sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help_text in (
        ("gen", "generate a problem, write its curvature matrix"),
        ("run", "run an experiment and print the table"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", help="INI config file")
        # no type=: flags are parsed with the INI keys, by _settings
        for table in _SECTIONS[verb].values():
            for name in table:
                p.add_argument(f"--{name.replace('_', '-')}", dest=name)
        p.add_argument("--out", help="output path (default stdout)")

    t = sub.add_parser("theory", help="spectral quantities of a matrix file")
    t.add_argument("--matrix", required=True, help="triple-format matrix file")
    t.add_argument("--taus", default="2,3,4", help="comma-separated subset sizes")
    t.add_argument("--out", help="output path (default stdout)")

    s = sub.add_parser("sample-test", help="empirical vs exact subset frequencies")
    s.add_argument("--matrix", required=True, help="triple-format matrix file")
    s.add_argument("--tau", type=int, default=2)
    s.add_argument("--draws", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="output path (default stdout)")
    return parser


def _settings(args) -> dict[str, dict]:
    """The verb's settings by section: the INI file's keys with the flags
    laid over them, every value parsed by its section's table."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        if args.config and not ini.read(args.config):
            raise ConfigError(f"cannot read config file {args.config!r}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    settings = {}
    for section, table in _SECTIONS[args.verb].items():
        raw = dict(ini.items(section)) if ini.has_section(section) else {}
        unknown = sorted(raw.keys() - table.keys())
        if unknown:
            raise ConfigError(f"unknown [{section}] key(s): {', '.join(unknown)}")
        for key in table:
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        values = {}
        for key, text in raw.items():
            try:
                values[key] = table[key](text)
            except ValueError as exc:
                raise ConfigError(f"{key} = {text!r} does not parse: {exc}") from None
        settings[section] = values
    return settings


def _problem(fields: dict) -> ProblemSpec:
    missing = [k for k in ("kind", "n") if k not in fields]
    if missing:
        raise ConfigError(f"problem needs {' and '.join(missing)}")
    return ProblemSpec(**fields)


def _run_config(args) -> ExperimentConfig:
    settings = _settings(args)
    experiment = settings["experiment"]
    # judged from the keys given, since ExperimentConfig.gamma has a default
    if "gamma" in experiment and "dataset" not in experiment:
        raise ConfigError("gamma is the ridge weight of a dataset problem; "
                          "it needs dataset")
    problem = _problem(settings["problem"]) if settings["problem"] else None
    return ExperimentConfig(problem=problem, **experiment)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    obj, _, f_star = generate(_problem(_settings(args)["problem"]))
    b = obj.curvature_matrix()
    _write(format_triples(b), args.out)
    if args.out:
        n = b.shape[0]
        sys.stdout.write(f"wrote {n} x {n} curvature matrix to {args.out}"
                         f" (f_star = {f_star!r})\n")
    return 0


def _cmd_run(args) -> int:
    config = _run_config(args)
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
    try:
        taus = [int(t) for t in args.taus.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--taus {args.taus!r} must be comma-separated integers") from None
    b = _load_matrix(args.matrix)
    spectrum = eigendecompose(as_dense(b))
    lam = spectrum.eigenvalues
    lines = [f"n = {lam.size}", "eigenvalues (descending):"]
    lines.append("  " + " ".join(f"{v:.6g}" for v in lam))
    for tau in taus:
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
    if not 1 <= args.tau <= b.shape[0] or args.draws < 1 or args.seed < 0:
        raise ConfigError(f"need 1 <= tau <= {b.shape[0]}, draws >= 1 and seed >= 0")
    exact = exact_probabilities(b, args.tau)
    draws = make_sampler(b, args.tau).sample_many(RngStream(args.seed), args.draws)
    counts = subset_counts(draws, b.shape[0])
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
    except (ConfigError, ParseError, OSError) as exc:
        # OSError: a dataset or matrix file that cannot be read, or an
        # --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolcdError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
