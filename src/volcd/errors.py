"""Exception types shared across the package."""


class VolcdError(Exception):
    """Base class for all library-specific errors."""


class SingularSubmatrix(VolcdError):
    """A Cholesky solve hit a non-positive pivot (degenerate submatrix)."""


class EmptySupport(VolcdError):
    """A discrete distribution has zero total mass."""


class CombinatorialBlowup(VolcdError):
    """A sampler was refused: too many subsets to enumerate, or too large a
    matrix to eigendecompose."""


class ZeroDiagonalNonzeroRow(VolcdError):
    """A sparse symmetric matrix stores an entry beside a zero diagonal:
    another entry in its row, or a nonzero one in its column."""


class DegenerateApprox(VolcdError):
    """A spectral surrogate is singular (subset size exceeds the matrix rank)."""


class UnboundedLevelSet(VolcdError):
    """A sublevel-set radius is infinite in a direction the surrogate norm weights."""


class NumericError(VolcdError):
    """A numerical routine failed to converge or returned non-finite values."""


class ConfigError(VolcdError):
    """Invalid solver or experiment configuration."""


class ParseError(VolcdError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
