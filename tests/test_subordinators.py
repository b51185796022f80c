import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalheat.subordinators import (
    _SERIES_EPS_SWITCH,
    SubordinatorError,
    SubordinatorSpec,
    fit_tail_constants,
    laplace_exponent,
    laplace_transform_numeric,
    relativistic_density,
    stable_density,
    stable_density_unit,
    stable_quantile,
    stable_tail_constant,
    stable_tail_series,
    verify_density,
)

ETA_HALF_1_1 = 1.0 / (2.0 * math.sqrt(math.pi)) * math.exp(-0.25)  # 0.2196956...


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
    def test_increasing_and_concave(self, alpha, a, b):
        lam1, lam2 = sorted((a, b))
        if lam1 == lam2:
            return
        spec = SubordinatorSpec("stable", alpha)
        f = lambda x: laplace_exponent(spec, x)
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
        for x in (0.2, 0.5, 1.0, 3.0, 10.0):
            closed = stable_density(0.5, 1.0, x)
            integral = stable_density_unit(0.5, x)
            assert integral == pytest.approx(closed, rel=1e-9)

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
        for alpha in (0.5, 0.7):
            spec = SubordinatorSpec("stable", alpha)
            assert laplace_transform_numeric(spec, 1.0, 0.0) == pytest.approx(1.0, abs=1e-6)

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
                1.0, abs=1e-6
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
        assert report.max_rel_transform_error <= 1e-3


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
        # these arguments are past the series switch, so the unit density
        # returns the series: agreement checks the two series codes
        for alpha, u in [(0.3, 2e4), (0.7, 50.0), (0.7, 500.0)]:
            series = stable_tail_series(alpha, u)
            integral = stable_density_unit(alpha, u)
            assert integral == pytest.approx(series, rel=1e-9)
        # these are before the switch, so the Kanter integral runs; the
        # series converges there with enough terms
        for alpha, u in [(0.3, 10.0), (0.3, 20.0), (0.7, 1.5)]:
            assert u ** (-alpha / (1.0 - alpha)) >= _SERIES_EPS_SWITCH
            series = stable_tail_series(alpha, u, terms=40)
            integral = stable_density_unit(alpha, u)
            assert integral == pytest.approx(series, rel=1e-12)

    def test_tail_constant_formula(self):
        assert stable_tail_constant(0.5) == pytest.approx(1 / (2 * math.sqrt(math.pi)))


def test_quantile_inverts_cdf():
    from scipy.integrate import quad

    q = stable_quantile(0.5, 1.0, 0.9)
    mass, _ = quad(lambda s: stable_density(0.5, 1.0, s), 0, q, points=[1.0])
    assert mass == pytest.approx(0.9, abs=1e-9)
