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
    Piecewise,
    RUNGE,
    SampleSet,
    TargetFunction,
    evaluate,
    polynomial_target,
    runge,
)
from .interpolants import (
    BandStrategy,
    EfciConfig,
    PenaltyKind,
    TikhonovOperator,
    TisiConfig,
    chebyshev_interpolate,
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
from .linalg import NumericError
from .metrics import ErrorReport, chebyshev_bound, convergence_study, error_report
from .nodes import (
    SubsetSelection,
    chebyshev_lobatto,
    chebyshev_roots,
    equispaced,
    every_other_subset,
    mock_chebyshev_subset,
)

__version__ = "0.1.0"
