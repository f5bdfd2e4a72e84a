"""Coordinate descent with determinantal (volume) subset sampling.

The package bundles the solver family (determinantal, diagonal, and uniform
subset selection), the subset samplers themselves (enumeration, a spectral
sampler for large C(n, tau), and a sparse O(nnz + n)-preprocessing pair
sampler, chosen by ``make_sampler``), the smooth objective zoo with
curvature matrices, spectral quantities that predict and bound convergence,
and a benchmark CLI that reproduces the synthetic and dataset experiments.
"""

__version__ = "0.1.0"

from .errors import (
    CombinatorialBlowup,
    ConfigError,
    DegenerateApprox,
    EmptySupport,
    NumericError,
    ParseError,
    SingularSubmatrix,
    UnboundedLevelSet,
    VolcdError,
    ZeroDiagonalNonzeroRow,
)
from .linalg import (
    CsrMatrix,
    CsrSymmetricUpper,
    Spectrum,
    eigendecompose,
    format_triples,
    load_csr_triples,
    load_dense_triples,
    pseudo_solve,
    save_triples,
)
from .objectives import (
    HuberLoss,
    LogSumExpLoss,
    LogisticLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
    SqrtNormLoss,
    SquareLoss,
)
from .benchmark import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_table,
    run_experiment,
)
from .problems import (
    ProblemSpec,
    banded_psd,
    gen_huber,
    gen_quadratic,
    load_libsvm,
    read_libsvm,
    reference_min,
)
from .rng import RngStream
from .sampling import (
    SparseTwoSampler,
    SpectralVolumeSampler,
    UniformSampler,
    VolumeSampler,
    build_cumulative,
    exact_probabilities,
    make_sampler,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    run,
)
from .spectral import (
    TauApprox,
    acceleration_ratio,
    b_tau,
    d_tau_quadratic,
    elementary_symmetric,
    modulus_quadratic,
    sum_adjugates,
)

__all__ = [
    "CombinatorialBlowup",
    "ConfigError",
    "CsrMatrix",
    "CsrSymmetricUpper",
    "DegenerateApprox",
    "EmptySupport",
    "ExperimentConfig",
    "HuberLoss",
    "LogSumExpLoss",
    "LogisticLoss",
    "NumericError",
    "ParseError",
    "ProblemSpec",
    "QuadraticObjective",
    "RegularizedObjective",
    "ResultRow",
    "ResultTable",
    "RngStream",
    "SeparableObjective",
    "SingularSubmatrix",
    "SolverConfig",
    "SolverReport",
    "SparseTwoSampler",
    "SpectralVolumeSampler",
    "Spectrum",
    "SqrtNormLoss",
    "SquareLoss",
    "TauApprox",
    "UnboundedLevelSet",
    "UniformSampler",
    "VolcdError",
    "VolumeSampler",
    "ZeroDiagonalNonzeroRow",
    "acceleration_ratio",
    "b_tau",
    "banded_psd",
    "build_cumulative",
    "d_tau_quadratic",
    "eigendecompose",
    "elementary_symmetric",
    "emit_table",
    "exact_probabilities",
    "format_triples",
    "gen_huber",
    "gen_quadratic",
    "load_csr_triples",
    "load_dense_triples",
    "load_libsvm",
    "make_sampler",
    "modulus_quadratic",
    "pseudo_solve",
    "read_libsvm",
    "reference_min",
    "run",
    "run_experiment",
    "save_triples",
    "sum_adjugates",
]
