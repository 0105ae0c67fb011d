#!/usr/bin/env python3
"""Compare every mitigation method head-to-head on the Runge function at a
common budget of 11 samples, printing a ranked error table.

Each row is one labelled fit of the method registry, run through
``bench.run_experiment`` on 11 equispaced samples at degree 10 unless its
``FitSpec`` says otherwise."""

import sys

from runge_lab.bench import FitSpec, run_experiment

FITS = (
    FitSpec("equispaced lagrange", "lagrange"),
    FitSpec("chebyshev", "chebyshev"),
    FitSpec("natural spline", "spline"),
    FitSpec("ridge a=0.01", "ridge", {"alpha": 0.01}),
    FitSpec("lasso a=0.01", "lasso", {"alpha": 0.01}),
    FitSpec("elastic net a=0.01", "elastic_net", {"alpha": 0.01}),
    FitSpec("tikhonov l=0.01 deg12", "tikhonov", {"lam": 0.01}, degree=12),
    FitSpec("efci (m-sweep)", "efci", {"search": True}),
    FitSpec("mock-chebyshev (21 grid)", "mock_chebyshev", n_samples=21),
    FitSpec("constrained mock-cheb LS", "constrained_mock_chebyshev", n_samples=21),
    FitSpec("tisi improved", "tisi", {"center": "lagrange_cheb"}),
    FitSpec("svd trunc 1e-2", "svd", {"threshold": 1e-2}),
)


def main() -> int:
    reports = [run_experiment(fit).reports[0] for fit in FITS]
    reports.sort(key=lambda r: r.max_abs)
    print(f"{'method':<26} {'max_abs':>12} {'rms':>12} {'argmax_x':>10}")
    for r in reports:
        print(f"{r.method:<26} {r.max_abs:>12.5g} {r.rms:>12.5g} {r.argmax_x:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
