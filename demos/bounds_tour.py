#!/usr/bin/env python3
"""Two-sided bound verification at desk scale.

The reflected subordinate kernel is compared against the free-kernel
surrogate (window walk) and against the closed-form regime shapes; each
claim reports the min/max ratio.  Small depths keep this demo under a
minute; the acceptance suite runs the full-size version.
"""

from fractalheat import KernelCache, bounds, sierpinski_gasket
from fractalheat.bounds import (
    ReflectionStudy,
    relativistic_comparison_reports,
    sandwich_check_f,
    stable_comparison_reports,
)

gasket = sierpinski_gasket()
cache = KernelCache()
study = ReflectionStudy.build(gasket, M=1, depth=3, window=2, cache=cache)
# the grids and seed of configs/default-run.ini, on 8 times; the first time
# and the pass thresholds are constants of fractalheat.bounds
settings = dict(n_times=8, flat_span=10.0, seed=20240801)
print(
    f"grids from t = {bounds.T_MIN}; a claim passes with spread <= "
    f"{bounds.SPREAD_THRESHOLD:g} and stability <= {bounds.STABILITY_THRESHOLD:g}\n"
)

print("== stable subordination: reflected vs free ==")
stable = stable_comparison_reports(study, alpha=0.5, bracket_tol=0.8, **settings)
for name, rep in stable.items():
    print(
        f"  {name:6s}: ratio in [{rep.min_ratio:.4f}, {rep.max_ratio:.4f}] "
        f"spread {rep.spread:.2f} -> {'pass' if rep.passed else 'FAIL'}"
    )

print("\n== relativistic subordination ==")
reports = relativistic_comparison_reports(study, alpha=0.5, m=1.0, **settings)
for name, rep in reports.items():
    extra = f" (fitted c = {rep.fitted_c:.3f})" if rep.fitted_c else ""
    print(
        f"  {name:10s}: spread {rep.spread:8.3f} -> "
        f"{'pass' if rep.passed else 'FAIL'}{extra}"
    )
print(
    f"  pointwise domination violation: {reports['domination'].extras['max_violation']:.2e}"
    f" (tolerance {bounds.DOMINATION_TOL:g})"
)

print("\n== analytic sandwich for the sub-Gaussian shape ==")
report = sandwich_check_f(gasket, 0.5, 2.0, 1.0, M=1)
print(f"  window values in [{report.min_seen:.4f}, {report.max_seen:.4f}]")
print(f"  claimed bounds   [{report.lower_bound:.4f}, {report.upper_bound:.4f}]")
print(f"  corner equalities within {max(report.upper_equality_error, report.prefactor_equality_error, report.exponential_equality_error):.1e}")
print(f"  -> {'pass' if report.passed else 'FAIL'}")
