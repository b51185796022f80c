import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fractalheat.subordinators import (
    _EXP_UNDERFLOW,
    _GL_NODES,
    _GL_WEIGHTS,
    _KANTER_CHUNK,
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
        # Kanter's panels at alpha = 1/2 over their whole range, from the
        # underflow edge a(0) eps = 745 (x = 1/2980, where the panels are
        # narrowest) to the series switch (x = 5), wherever the closed form
        # is a normal float
        x = np.logspace(math.log10(0.25 / _EXP_UNDERFLOW), math.log10(5.0), 400)
        closed = stable_density(0.5, 1.0, x)
        normal = closed >= np.finfo(float).tiny
        assert normal.sum() >= 398
        assert stable_density_unit(0.5, x[normal]) == pytest.approx(closed[normal], rel=1e-12)

    @pytest.mark.parametrize("alpha, x", [(0.05, 6.4e-57), (0.1, 6.6e-28)])
    def test_underflow_edge_keeps_its_digits(self, alpha, x):
        # the densities are normal floats (1.0e-263 and 6.7e-290), but the
        # integral without the factor x^(-1/(1-alpha)) is subnormal; the
        # reference takes the factor into the exponent of the integrand,
        # and agrees with a 40-digit quadrature to 5e-13
        one = 1.0 - alpha
        ratio = alpha / one
        log_eps, log_scale = -ratio * math.log(x), -math.log(x) / one

        def integrand(theta):
            la = (
                math.log(math.sin(one * theta))
                + ratio * math.log(math.sin(alpha * theta))
                - math.log(math.sin(theta)) / one
            )
            y = la + log_eps
            return 0.0 if y > 700.0 else math.exp(la - math.exp(y) + log_scale)

        integral, _ = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        ref = ratio / math.pi * integral
        assert abs(stable_density_unit(alpha, x) - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
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
        # more than three chunks of Kanter points, the last one partial,
        # shuffled among series and underflow points: every chunk gets the
        # values its points have alone, whatever the chunk before it held
        one = 1.0 - alpha
        ratio = alpha / one
        edge = (_EXP_UNDERFLOW / (one * alpha**ratio)) ** (-1.0 / ratio)
        switch = _SERIES_EPS_SWITCH ** (-1.0 / ratio)
        n_kanter = 3 * _KANTER_CHUNK + 77
        x = np.concatenate([
            np.geomspace(edge * 1.001, switch * 0.999, n_kanter),
            np.geomspace(switch * 1.001, switch * 1e4, 100),
            np.geomspace(edge * 1e-3, edge * 0.999, 100),
        ])
        x = np.random.default_rng(7).permutation(x)
        vals = stable_density_unit(alpha, x)
        singles = [stable_density_unit(alpha, float(v)) for v in x]
        assert np.count_nonzero(vals) > 3 * _KANTER_CHUNK + 100
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

    @pytest.mark.parametrize(
        "alpha, m", [(0.8, 2.0), (0.3, 1.7), (0.5, math.sqrt(5.0)), (0.7, 3.0)]
    )
    def test_mass_scaling(self, alpha, m):
        # eta^m_t(s) = m^(1/alpha) eta^1_(m t)(m^(1/alpha) s), exactly: the
        # two sides reach Kanter's panels (the closed form at alpha = 1/2) at
        # arguments that differ only by rounding; measured at most 8.6e-13
        t = 0.7
        s = np.logspace(-3, 2, 201)
        scale = m ** (1.0 / alpha)
        lhs = relativistic_density(alpha, m, t, s)
        rhs = scale * relativistic_density(alpha, 1.0, m * t, scale * s)
        live = lhs > 0
        assert live.sum() >= 120
        assert np.array_equal(live, rhs > 0)
        assert lhs[live] == pytest.approx(rhs[live], rel=5e-12)


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


    def test_empty_grids_rejected(self):
        # a check over no points would report a residual of 0, a pass with
        # nothing checked
        spec = SubordinatorSpec("stable", 0.7)
        with pytest.raises(SubordinatorError, match="at least one"):
            verify_density(spec, lam_grid=())
        with pytest.raises(SubordinatorError, match="at least one"):
            verify_density(spec, t_values=())

    @pytest.mark.parametrize(
        "alpha, t, lam", [(0.7, 10.0, 1e3), (0.9, 2.0, 1e3), (0.95, 1.031, 1e3)]
    )
    def test_underflowed_exact_transform_rejected(self, alpha, t, lam, monkeypatch):
        # exp(-t phi) is 0 at the first two and subnormal at the third
        # (t phi = 730), where the quadrature reads 5e-7 off; each is named
        # before any quadrature runs
        calls = []
        monkeypatch.setattr(
            SubordinatorSpec, "density", lambda spec, t, s: calls.append(t)
        )
        t_phi = t * lam**alpha
        with pytest.raises(SubordinatorError, match="underflows") as err:
            verify_density(SubordinatorSpec("stable", alpha), t_values=(0.5, t),
                           lam_grid=(1.0, lam))
        assert f"t = {t:g}, lambda = {lam:g}" in str(err.value)
        assert f"{t_phi:.6g}" in str(err.value)
        assert calls == []

    @pytest.mark.parametrize("n_lam", [1, 5, 13])
    def test_one_density_call_per_time(self, n_lam, monkeypatch):
        calls = []
        density = SubordinatorSpec.density

        def counted(spec, t, s):
            calls.append(t)
            return density(spec, t, s)

        monkeypatch.setattr(SubordinatorSpec, "density", counted)
        t_values = (0.5, 1.0, 2.0)
        verify_density(SubordinatorSpec("stable", 0.7), t_values=t_values,
                       lam_grid=np.logspace(-3, 3, 13)[:n_lam])
        assert calls == list(t_values)


def _reference_transform_panels(spec, t, lam):
    """One lambda's panels, written out as the per-lambda rule that the
    shared panel set generalises: break at multiples of the scale, of the
    saddle and at 1/lambda, no panel wider than a decade."""
    alpha = spec.alpha
    ratio = alpha / (1.0 - alpha)
    scale = t ** (1.0 / alpha)
    shift = spec.m ** (1.0 / alpha) if spec.kind == "relativistic" else 0.0
    lo = scale * (_EXP_UNDERFLOW / ((1.0 - alpha) * alpha**ratio)) ** (-1.0 / ratio)
    if lam + shift > 0:
        hi = _EXP_UNDERFLOW / (lam + shift)
    else:
        hi = scale * (stable_tail_constant(alpha) / (alpha * 1e-16)) ** (1.0 / alpha)
    if hi <= lo:
        return np.empty((0, _GL_NODES.size)), np.empty((0, _GL_NODES.size))
    breaks = {scale * q for q in (0.01, 0.1, 1.0, 10.0)}
    if lam > 0:
        saddle = t * alpha * (lam + shift) ** (alpha - 1.0)
        breaks.update({saddle * q for q in (0.1, 1.0, 10.0)})
        breaks.add(1.0 / lam)
    cuts = np.log([lo] + sorted(b for b in breaks if lo < b < hi) + [hi])
    edges = [cuts[:1]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges.append(np.linspace(a, b, math.ceil((b - a) / math.log(10.0)) + 1)[1:])
    edges = np.concatenate(edges)
    lo_edge, hi_edge = edges[:-1, None], edges[1:, None]
    u = lo_edge + (hi_edge - lo_edge) * _GL_NODES
    return np.exp(u), (hi_edge - lo_edge) * _GL_WEIGHTS


def _reference_transform(spec, t, lam):
    s, w = _reference_transform_panels(spec, t, lam)
    return float(np.sum(w * s * np.exp(-lam * s) * spec.density(t, s)))


TRANSFORM_SPECS = [SubordinatorSpec("stable", a) for a in (0.3, 0.5, 0.7, 0.95)] + [
    SubordinatorSpec("relativistic", 0.5, 1.0),
    SubordinatorSpec("relativistic", 0.7, 1.0),
]
TRANSFORM_LAMBDAS = (0.0, 1e-3, 0.7, 1.0, 50.0)


class TestSharedTransformPanels:
    @pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=lambda s: s.label())
    def test_scalar_transform_matches_per_lambda_rule_bitwise(self, spec):
        for t in (0.1, 1.0, 3.0):
            for lam in TRANSFORM_LAMBDAS:
                ref = _reference_transform(spec, t, lam)
                assert laplace_transform_numeric(spec, t, lam) == ref
                one = laplace_transform_numeric(spec, t, np.array([lam]))
                assert one.shape == (1,) and one[0] == ref

    @pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=lambda s: s.label())
    def test_array_transform_matches_per_lambda_rule(self, spec):
        # the shared panels refine every lambda's own, so each value agrees
        # with its own-panel transform to rounding
        for t in (0.1, 1.0, 3.0):
            got = laplace_transform_numeric(spec, t, np.array(TRANSFORM_LAMBDAS))
            assert got.shape == (len(TRANSFORM_LAMBDAS),)
            ref = [_reference_transform(spec, t, lam) for lam in TRANSFORM_LAMBDAS]
            assert got == pytest.approx(ref, rel=2e-13, abs=0.0)

    def test_bad_lambda_or_time_rejected(self):
        # a NaN among good values must not vanish into the shared panels
        spec = SubordinatorSpec("stable", 0.7)
        for bad in (-1.0, math.nan):
            with pytest.raises(SubordinatorError, match="lambda >= 0"):
                laplace_transform_numeric(spec, 1.0, np.array([1.0, bad]))
            with pytest.raises(SubordinatorError, match="positive"):
                verify_density(spec, t_values=(1.0,), lam_grid=(bad, 1.0))
        for bad in (0.0, math.nan):
            with pytest.raises(SubordinatorError, match="times must be positive"):
                verify_density(spec, t_values=(1.0, bad), lam_grid=(1.0,))
        with pytest.raises(SubordinatorError, match="1-D"):
            laplace_transform_numeric(spec, 1.0, np.ones((2, 2)))


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

    @pytest.mark.parametrize(
        "alpha, eps_far", [(0.1, 0.1), (0.3, 0.05), (0.7, 0.05), (0.9, 0.05)]
    )
    def test_series_matches_integral_far_tail(self, alpha, eps_far):
        # the unit density changes route where eps = u^(-alpha/(1-alpha))
        # crosses the switch; the Kanter panels and the 80-term series agree
        # on both sides of it, so the density does not jump there.  40 terms
        # fall 1e-8 short near u = 1 at alpha = 0.9; at alpha = 0.1 the
        # panels are 1.6e-10 off at eps = 0.05, where the series serves
        eps = np.array([eps_far, 0.1, 0.18, _SERIES_EPS_SWITCH, 0.3, 0.5])
        u = eps ** (-(1.0 - alpha) / alpha)
        series = stable_tail_series(alpha, u, terms=80)
        assert _kanter_density(alpha, u) == pytest.approx(series, rel=1e-12)
        assert stable_density_unit(alpha, u) == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_series_does_not_depend_on_its_block(self, block, monkeypatch):
        # the series sums its terms in order and stops each point on its own,
        # so the number of terms per numpy pass changes no bit
        def sums():
            out = []
            for alpha in (0.1, 0.5, 0.9):
                x = _SERIES_EPS_SWITCH ** (-(1.0 - alpha) / alpha) * np.logspace(0, 30, 200)
                out += [stable_tail_series(alpha, x), stable_tail_series(alpha, x, terms=40)]
            return np.concatenate(out)

        ref = sums()
        monkeypatch.setattr("fractalheat.subordinators._SERIES_BLOCK", block)
        assert sums().tobytes() == ref.tobytes()

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

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_gamma_values_match_scipy_special(self, alpha):
        # the series and the tail constant take Gamma from ``math``; scipy's
        # special functions, summed term by term here, are the reference
        from scipy.special import gamma, gammaln

        def series(x, terms):
            total = 0.0
            for k in range(1, terms + 1):
                log_mag = gammaln(alpha * k + 1.0) - gammaln(k + 1.0)
                log_mag -= (alpha * k + 1.0) * math.log(x)
                total += (-1) ** (k + 1) * math.sin(math.pi * alpha * k) * math.exp(log_mag)
            return total / math.pi

        u = np.geomspace(1e-3, _SERIES_EPS_SWITCH, 12) ** (-(1.0 - alpha) / alpha)
        for terms in (40, None):
            got = stable_tail_series(alpha, u, terms=terms)
            expected = [series(x, terms or 219) for x in u]
            assert got == pytest.approx(expected, rel=2e-15, abs=0.0)
        assert stable_tail_constant(alpha) == pytest.approx(
            alpha / gamma(1.0 - alpha), rel=2e-15, abs=0.0
        )
