import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fractalheat.subordinators import (
    _SERIES_EPS_SWITCH,
    SubordinatorError,
    SubordinatorSpec,
    _kanter_density,
    fit_tail_constants,
    laplace_exponent,
    laplace_transform_numeric,
    relativistic_density,
    stable_density,
    stable_density_unit,
    stable_tail_constant,
    stable_tail_series,
    verify_density,
)

ETA_HALF_1_1 = 1.0 / (2.0 * math.sqrt(math.pi)) * math.exp(-0.25)  # 0.2196956...


def _reference_unit_density(alpha: float, x: float) -> float:
    """eta_1(x) one point at a time: adaptive ``quad`` over Kanter's integral,
    with the layer located by ``brentq``, and the large-argument series past
    the switch; the scalar route the array evaluator replaced."""
    one = 1.0 - alpha
    ratio = alpha / one
    log_eps = -ratio * math.log(x)
    if math.exp(log_eps) < _SERIES_EPS_SWITCH:
        total = 0.0
        for k in range(1, 220):
            log_mag = (
                math.lgamma(alpha * k + 1.0)
                - math.lgamma(k + 1.0)
                - (alpha * k + 1.0) * math.log(x)
            )
            if log_mag < -745.0:
                break
            bound = math.exp(log_mag)
            if k > 4 and bound < 1e-18 * max(abs(total), 1e-300):
                break
            total += (-1.0) ** (k + 1) * math.sin(math.pi * k * alpha) * bound
        return total / math.pi
    a0 = one * alpha**ratio
    if math.log(a0) + log_eps > math.log(745.0):
        return 0.0

    def log_a(theta):
        return (
            math.log(math.sin(one * theta))
            + ratio * math.log(math.sin(alpha * theta))
            - math.log(math.sin(theta)) / one
        )

    def integrand(theta):
        if theta <= 0.0 or theta >= math.pi:
            return 0.0
        la = log_a(theta)
        if la + log_eps > math.log(745.0):
            return 0.0
        out = la - math.exp(la + log_eps)
        return 0.0 if out < -745.0 else math.exp(out)

    points = None
    target = -log_eps
    lo, hi = 1e-12, math.pi - 1e-12
    if target > math.log(a0) and log_a(lo) < target < log_a(hi):
        theta_star = brentq(lambda th: log_a(th) - target, lo, hi, xtol=1e-14)
        points = [theta_star]
        if log_a(hi) - target >= 34.0:
            points.append(
                brentq(lambda th: log_a(th) - target - 34.0, theta_star, hi, xtol=1e-14)
            )
    integral, _ = quad(
        integrand, 0.0, math.pi, points=points, epsabs=1e-300, epsrel=1e-9, limit=200
    )
    return ratio / math.pi * x ** (-1.0 / one) * integral


class TestLaplaceExponent:
    def test_stable_example(self):
        assert laplace_exponent(SubordinatorSpec("stable", 0.5), 4.0) == pytest.approx(2.0)

    def test_relativistic_example(self):
        spec = SubordinatorSpec("relativistic", 0.5, 1.0)
        assert laplace_exponent(spec, 3.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "spec",
        [SubordinatorSpec("stable", 0.3), SubordinatorSpec("relativistic", 0.7, 2.0)],
    )
    def test_zero_at_origin(self, spec):
        assert laplace_exponent(spec, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(SubordinatorError):
            laplace_exponent(SubordinatorSpec("stable", 0.5), -1.0)

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.01, 50.0),
        st.floats(0.01, 50.0),
    )
    @settings(max_examples=60)
    # adjacent floats whose alpha-th powers round to one float64
    @example(alpha=0.25, a=0.05, b=0.05000000000000001)
    def test_increasing_and_concave(self, alpha, a, b):
        lam1, lam2 = sorted((a, b))
        if lam1 == lam2:
            return
        spec = SubordinatorSpec("stable", alpha)
        f = lambda x: laplace_exponent(spec, x)
        # x**alpha is monotone in floating point, but strictly so only where
        # the arguments are farther apart than its rounding
        assert f(lam2) >= f(lam1)
        if lam2 > lam1 * (1 + 1e-12):
            assert f(lam2) > f(lam1)
        mid = (lam1 + lam2) / 2
        assert f(mid) >= (f(lam1) + f(lam2)) / 2 - 1e-12

    def test_spec_validation(self):
        with pytest.raises(SubordinatorError):
            SubordinatorSpec("stable", 1.5)
        with pytest.raises(SubordinatorError):
            SubordinatorSpec("relativistic", 0.5)
        with pytest.raises(SubordinatorError):
            SubordinatorSpec("stable", 0.5, 1.0)
        with pytest.raises(SubordinatorError):
            SubordinatorSpec("gamma", 0.5)


class TestStableDensity:
    def test_half_closed_form_value(self):
        assert stable_density(0.5, 1.0, 1.0) == pytest.approx(ETA_HALF_1_1, rel=1e-12)

    def test_integral_route_matches_closed_form(self):
        x = np.logspace(-2, 3, 60)
        closed = stable_density(0.5, 1.0, x)
        assert stable_density_unit(0.5, x) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_matches_scalar_quadrature_route(self, alpha):
        x = np.logspace(-2, 6, 200)
        ref = np.array([_reference_unit_density(alpha, float(v)) for v in x])
        live = ref > 1e-200
        assert live.sum() > 150
        assert stable_density_unit(alpha, x[live]) == pytest.approx(ref[live], rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_array_values_match_scalar_calls_bitwise(self, alpha):
        s = np.logspace(-2, 4, 97)
        vals = stable_density(alpha, 1.5, s)
        singles = [stable_density(alpha, 1.5, float(v)) for v in s]
        assert all(v == single for v, single in zip(vals, singles))

    def test_scaling_identity_through_transform(self):
        # stable_density builds eta_t from eta_1 by the self-similarity
        # eta_t(s) = t^(-1/alpha) eta_1(s t^(-1/alpha)); when that holds, the
        # transform at lambda = 1 is exp(-t * 1^alpha) at every t
        spec = SubordinatorSpec("stable", 0.7)
        for t in (0.5, 2.0):
            transform = laplace_transform_numeric(spec, t, 1.0)
            assert abs(transform - math.exp(-t)) <= 1e-10

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(SubordinatorError):
            stable_density(0.5, 1.0, -1.0)
        with pytest.raises(SubordinatorError):
            stable_density(0.5, 0.0, 1.0)
        with pytest.raises(SubordinatorError):
            stable_density(1.2, 1.0, 1.0)

    def test_normalization(self):
        for alpha in (0.3, 0.5, 0.7):
            spec = SubordinatorSpec("stable", alpha)
            assert laplace_transform_numeric(spec, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        s = np.array([0.5, 1.0, 2.0])
        vals = stable_density(0.5, 1.0, s)
        assert vals.shape == (3,)
        assert np.all(vals > 0)

    def test_deep_left_tail_underflows_to_zero(self):
        assert stable_density(0.7, 1.0, 1e-12) == 0.0


class TestRelativisticDensity:
    def test_tilt_cancels_at_unit_point(self):
        assert relativistic_density(0.5, 1.0, 1.0, 1.0) == pytest.approx(
            ETA_HALF_1_1, rel=1e-12
        )

    def test_small_mass_limit_is_stable(self):
        for s in (0.3, 1.0, 4.0):
            tilted = relativistic_density(0.5, 1e-10, 1.0, s)
            plain = stable_density(0.5, 1.0, s)
            assert tilted == pytest.approx(plain, rel=1e-8)

    def test_normalization(self):
        for alpha, m in [(0.5, 1.0), (0.7, 0.5)]:
            spec = SubordinatorSpec("relativistic", alpha, m)
            assert laplace_transform_numeric(spec, 1.0, 0.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_mass_must_be_positive(self):
        with pytest.raises(SubordinatorError):
            relativistic_density(0.5, -1.0, 1.0, 1.0)


class TestTransformIdentity:
    def test_half_alpha_tight(self):
        report = verify_density(
            SubordinatorSpec("stable", 0.5), t_values=(0.5, 1.0, 2.0),
            lam_grid=np.logspace(-3, 3, 7),
        )
        assert report.max_rel_transform_error <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_general_alpha(self, alpha):
        report = verify_density(
            SubordinatorSpec("stable", alpha), t_values=(1.0,),
            lam_grid=np.logspace(-3, 3, 5),
        )
        assert report.max_rel_transform_error <= 1e-12


class TestTails:
    def test_half_alpha_constant(self):
        fit = fit_tail_constants(SubordinatorSpec("stable", 0.5), 1.0)
        expected = 1.0 / (2.0 * math.sqrt(math.pi))
        assert fit.limit == pytest.approx(expected, rel=1e-12)
        assert fit.finite
        assert fit.c_upper <= 2 * expected
        assert fit.c_lower >= expected / 2

    def test_upper_constant_stable_across_t(self):
        fits = [
            fit_tail_constants(SubordinatorSpec("stable", 0.5), t) for t in (0.5, 1, 2)
        ]
        uppers = [f.c_upper for f in fits]
        assert max(uppers) / min(uppers) <= 1.1

    def test_series_matches_integral_far_tail(self):
        # the unit density changes route where eps = u^(-alpha/(1-alpha))
        # crosses the switch; the Kanter panels and the 40-term series agree
        # on both sides of it, so the density does not jump there
        eps = np.array([0.05, 0.1, 0.18, _SERIES_EPS_SWITCH, 0.3, 0.5])
        for alpha in (0.3, 0.7):
            u = eps ** (-(1.0 - alpha) / alpha)
            series = stable_tail_series(alpha, u, terms=40)
            assert _kanter_density(alpha, u) == pytest.approx(series, rel=1e-12)
            assert stable_density_unit(alpha, u) == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, decades", [(0.3, 5.0), (0.7, 5.0), (0.5, 1.0), (0.3, -0.3)]
    )
    def test_threshold_matches_first_index_loop(self, alpha, decades):
        # the threshold is the first grid index from which every later ratio
        # is within a factor two of the limit: the per-index search as reference
        spec = SubordinatorSpec("stable", alpha)
        t = 1.5
        scale = t ** (1.0 / alpha)
        us = scale * np.logspace(-0.5, decades, 40)
        ratio = stable_density(alpha, t, us) * us ** (1.0 + alpha) / t
        limit = stable_tail_constant(alpha)
        within = (ratio >= limit / 2.0) & (ratio <= limit * 2.0)
        idx = next((k for k in range(len(us)) if within[k:].all()), None)
        fit = fit_tail_constants(spec, t, decades=decades)
        if idx is None:
            assert math.isnan(fit.c_lower) and not fit.finite
        else:
            assert fit.u0 == us[idx] / scale
            assert fit.c_lower == ratio[idx:].min()
            assert fit.c_upper == ratio[idx:].max()

    def test_tail_constant_formula(self):
        assert stable_tail_constant(0.5) == pytest.approx(1 / (2 * math.sqrt(math.pi)))

