"""Toolkit for studying and mitigating the Runge phenomenon in polynomial
interpolation: node families, interpolation and regularization methods, error
metrics, and a benchmark CLI."""

from .core import (
    Approximant,
    Barycentric,
    Basis,
    BasisPoly,
    Interval,
    NodeFamily,
    NodeSet,
    NumericError,
    Piecewise,
    RUNGE,
    SampleSet,
    TargetFunction,
    polynomial_target,
    runge,
)
from .interpolants import (
    BandStrategy,
    EfciConfig,
    PenaltyKind,
    TikhonovOperator,
    TisiConfig,
    constrained_mock_chebyshev_lstsq,
    cubic_spline,
    efci_fit,
    fit_regularized,
    lagrange_interpolate,
    mock_chebyshev_interpolate,
    svd_truncated_fit,
    tikhonov_fit,
    tisi_fit,
)
from .metrics import ErrorReport, chebyshev_bound, error_report
from .nodes import (
    chebyshev_lobatto,
    chebyshev_roots,
    equispaced,
    mock_chebyshev_subset,
)

__version__ = "0.1.0"
