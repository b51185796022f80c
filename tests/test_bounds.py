import math

import numpy as np
import pytest

from fractalheat import bounds
from fractalheat.bounds import (
    CLAMP,
    SUB_UNIT_END,
    BoundError,
    EmptyRegimeError,
    EnvelopeForm,
    ReflectionStudy,
    classify_regime,
    fit_envelope_constants,
    form_for,
    log_time_grid,
    refinement_stability,
    relativistic_comparison_reports,
    sandwich_check_f,
    stable_comparison_reports,
)
from fractalheat.kernels import KernelError, SpectralKernel
from fractalheat.subordinators import SubordinatorSpec


@pytest.fixture(scope="module")
def study(gasket, cache):
    return ReflectionStudy.build(gasket, M=1, depth=3, window=2, cache=cache)


class TestForms:
    def test_f_env_at_zero_distance(self, gasket):
        form = form_for(gasket, "f_env")
        t = 0.7
        assert form.evaluate(t, 0.0) == pytest.approx(
            t ** (-gasket.hausdorff_dim / gasket.walk_dim)
        )

    def test_stable_form_inner_branch(self, gasket):
        form = form_for(gasket, "stable_form", alpha=0.5)
        t = 2.0
        adw = 0.5 * gasket.walk_dim
        r = 0.5 * t ** (1.0 / adw)  # inside the near branch
        assert form.evaluate(t, r) == pytest.approx(t ** (-gasket.hausdorff_dim / adw))

    def test_h_env_flat_branch_exact(self, gasket):
        # from the crossover on, both max(., 1) branches collapse, so the
        # shape is exactly L^(-dM) * e^(-c) independently of t
        form = form_for(gasket, "h_env", M=1, c=0.8)
        lmdw = 5.0
        val = form.evaluate(2.0 * lmdw, 0.0)
        assert val == pytest.approx(
            2.0 ** (-gasket.hausdorff_dim) * math.exp(-0.8), rel=1e-14
        )
        assert form.evaluate(7.0 * lmdw, 0.0) == val
        # below the crossover the shape strictly exceeds its flat value
        assert form.evaluate(0.5 * lmdw, 0.0) != val

    def test_f_env_strictly_decreasing_in_r(self, gasket):
        form = form_for(gasket, "f_env", c=0.7)
        rs = np.linspace(0, 3, 40)
        vals = form.evaluate(1.3, rs)
        assert np.all(np.diff(vals) < 0)

    def test_invalid_combinations_rejected(self, gasket):
        with pytest.raises(BoundError):
            form_for(gasket, "stable_form")  # alpha missing
        with pytest.raises(BoundError):
            form_for(gasket, "flat")  # M missing
        with pytest.raises(BoundError):
            form_for(gasket, "no-such-form")
        with pytest.raises(BoundError):
            form_for(gasket, "f_env").evaluate(-1.0, 0.0)


class TestRegimeClassification:
    def test_stable_boundary_is_flat(self, gasket):
        crossover = 5.0**0.5  # alpha=1/2, M=1
        assert classify_regime(gasket, "stable", crossover, 0.3, 1, 0.5) == "flat"
        assert classify_regime(gasket, "stable", crossover * 0.999, 0.3, 1, 0.5) == "near"

    def test_relativistic_cases(self, gasket):
        assert classify_regime(gasket, "relativistic", 0.5, 2.0, 1, 0.5) == "regime2"
        assert classify_regime(gasket, "relativistic", 2.0, 1.5, 1, 0.5) == "regime1"
        assert classify_regime(gasket, "relativistic", 0.5, 0.5, 1, 0.5) == "regime3"
        assert classify_regime(gasket, "relativistic", 5.0, 0.5, 1, 0.5) == "flat"

    def test_unknown_process(self, gasket):
        with pytest.raises(BoundError):
            classify_regime(gasket, "cauchy", 1.0, 1.0, 0, 0.5)


class TestEnvelopeFitting:
    def test_identical_kernel_and_form_spread_one(self, gasket):
        rng = np.random.default_rng(0)
        form = form_for(gasket, "relativistic_regime_2", c=1.3)
        ts = rng.uniform(0.1, 0.9, 300)
        rs = rng.uniform(1.0, 2.0, 300)
        kern = form.evaluate(ts, rs)
        report = fit_envelope_constants(kern, ts, rs, form.with_constant(1.0))
        assert report.spread == pytest.approx(1.0, abs=1e-4)
        assert report.fitted_c == pytest.approx(1.3, abs=1e-3)
        assert report.extras["fit_slope_lsq"] == pytest.approx(1.3, abs=1e-6)
        assert report.fit_r2 == pytest.approx(1.0, abs=1e-9)

    def test_empty_grid_rejected(self, gasket):
        form = form_for(gasket, "f_env")
        with pytest.raises(EmptyRegimeError):
            fit_envelope_constants(np.array([]), np.array([]), np.array([]), form)

    def test_misaligned_grids_rejected(self, gasket):
        form = form_for(gasket, "f_env")
        with pytest.raises(BoundError):
            fit_envelope_constants(np.ones(3), np.ones(2), np.ones(3), form)

    def test_clamp_keeps_ratios_finite(self, gasket):
        form = form_for(gasket, "flat", M=0)
        kern = np.array([0.0, 1e-20, 1.0])
        report = fit_envelope_constants(
            kern, np.ones(3), np.zeros(3), form, threshold=1e20
        )
        assert math.isfinite(report.spread)
        assert report.min_ratio > 0


class TestComparisonReports:
    def test_stable_reports_pass(self, study):
        reports = stable_comparison_reports(study, alpha=0.5, n_times=8)
        assert reports["near"].passed
        assert reports["flat"].passed
        assert reports["near"].min_ratio >= 1.0 - 1e-9  # folding domination
        assert reports["near"].extras["truncation_bracket"] < 1.0

    def test_relativistic_reports_pass(self, study):
        reports = relativistic_comparison_reports(study, alpha=0.5, m=1.0, n_times=8)
        for name in ("flat", "domination", "regime1", "regime2", "regime3"):
            assert reports[name].passed, f"{name}: {reports[name].to_dict()}"
        assert reports["domination"].extras["max_violation"] <= 1e-8

    def test_refinement_stability(self, gasket, cache, study):
        fine = ReflectionStudy.build(gasket, M=1, depth=4, window=2, cache=cache)
        coarse_reports = stable_comparison_reports(study, alpha=0.5, n_times=6)
        fine_reports = stable_comparison_reports(fine, alpha=0.5, n_times=6)
        for name in ("near", "flat"):
            assert refinement_stability(coarse_reports[name], fine_reports[name]) <= 0.5

    def test_domination_matches_dense_blocks(self, gasket, study):
        spec = SubordinatorSpec("relativistic", 0.5, 1.0)
        reports = relativistic_comparison_reports(study, alpha=0.5, m=1.0, n_times=5)
        crossover = float(gasket.L) ** (study.M * gasket.walk_dim)
        expected = max(
            float((study.free_matrix(t, spec) - study.folded_matrix(t, spec)).max())
            for t in log_time_grid(0.1, 0.98 * crossover, 5)
        )
        assert reports["domination"].extras["max_violation"] == expected

    def test_bracket_gate_raises(self, study):
        with pytest.raises(KernelError, match="window"):
            stable_comparison_reports(study, alpha=0.5, n_times=4, bracket_tol=0.01)

    def test_bracket_matches_dense_blocks(self, study):
        # the same seeded pairs read out of full reflected and killed blocks
        spec = SubordinatorSpec("stable", 0.5)
        t = 0.8
        bracket = study.truncation_bracket(spec, [t], max_points=100, seed=5)
        i, j = np.random.default_rng(5).choice(
            np.flatnonzero(study.certifiable_mask()), size=(100, 2)
        ).T
        free = study.free_matrix(t, spec)[i, j]
        diri = study.dirichlet().matrix(t, exponent=spec.laplace_exponent)
        diri = diri[study.sub_indices[i], study.sub_indices[j]]
        width = (free - diri) / np.maximum(free, CLAMP)
        assert bracket == pytest.approx(max(0.0, float(width.max())), rel=1e-12)

    def test_bracket_rejects_a_killed_corner(self, study, monkeypatch):
        corners = study.window_kernel.graph.corner_indices()
        at_corner = np.isin(study.sub_indices, corners)
        assert at_corner.any()
        monkeypatch.setattr(study, "certifiable_mask", lambda: at_corner)
        with pytest.raises(BoundError, match="corner"):
            study.truncation_bracket(SubordinatorSpec("stable", 0.5), [1.0], max_points=5)

    def test_window_must_exceed_m(self, gasket, cache):
        with pytest.raises(BoundError):
            ReflectionStudy.build(gasket, M=1, depth=2, window=1, cache=cache)

    def test_metric_selection(self, study):
        geo = study.metric("geodesic")
        euc = study.metric("euclidean")
        ratio = geo[euc > 0] / euc[euc > 0]
        assert ratio.min() >= 1.0 - 1e-9
        assert ratio.max() <= 2.0 + 1e-9
        with pytest.raises(BoundError):
            study.metric("resistance")

    def test_euclidean_metric_inflates_regime3(self, study):
        geo = relativistic_comparison_reports(
            study, alpha=0.5, m=1.0, n_times=4, metric="geodesic"
        )["regime3"]
        euc = relativistic_comparison_reports(
            study, alpha=0.5, m=1.0, n_times=4, metric="euclidean"
        )["regime3"]
        assert euc.spread > geo.spread


def _two_pass_regimes(study, alpha, m, n_times, t_min, fit_sample, metric, seed):
    """Reference: each regime fits its constant on a seeded subsample in one
    pass over its times, then evaluates the form at every pair in a second."""
    spec = SubordinatorSpec("relativistic", alpha, m)
    system = study.system
    n = len(study.sub_indices)
    pairs = np.random.default_rng(seed).integers(0, n, size=(min(50, n), 2))
    pos = pairs[:, 0] * n + pairs[:, 1]
    dist = study.metric(metric)
    rng = np.random.default_rng(seed)
    out = {}

    def regime(name, times, mask, kind):
        form = fitted = form_for(system, kind, alpha=alpha, M=study.M)
        fit = None
        if kind != "relativistic_regime_3":
            ts, rs, ks = [], [], []
            for t in times:
                block = study.folded_matrix(t, spec)
                vals = block[mask] if mask is not None else block.ravel()
                r = dist[mask] if mask is not None else dist.ravel()
                take = min(len(vals), max(500, fit_sample // len(times)))
                sel = rng.choice(len(vals), size=take, replace=False)
                ts.append(np.full(take, t))
                rs.append(r[sel])
                ks.append(vals[sel])
            fit = fit_envelope_constants(
                np.concatenate(ks), np.concatenate(ts), np.concatenate(rs), form
            )
            if fit.fitted_c is not None and fit.fitted_c > 0:
                fitted = form.with_constant(fit.fitted_c)
        if mask is None:
            inside, where = pairs, pos
        else:
            flat = np.flatnonzero(mask)
            where = np.random.default_rng(seed).choice(
                len(flat), size=min(len(pairs), len(flat)), replace=False
            )
            inside = np.column_stack(np.divmod(flat[where], mask.shape[1]))
        gmin, gmax, samples = np.inf, -np.inf, []
        for t in times:
            block = study.folded_matrix(t, spec)
            vals = block[mask] if mask is not None else block.ravel()
            r = dist[mask] if mask is not None else dist.ravel()
            shape = fitted.evaluate(np.full_like(r, t), r)
            ratio = np.maximum(vals, CLAMP) / shape
            gmin = min(gmin, float(ratio.min()))
            gmax = max(gmax, float(ratio.max()))
            samples += [
                (float(t), int(i), int(j), float(vals[w]), float(shape[w]), float(ratio[w]))
                for (i, j), w in zip(inside, where)
            ]
        out[name] = (
            gmin,
            gmax,
            None if fitted is form else fitted.c,
            None if fit is None else fit.extras["fit_slope_lsq"],
            None if fit is None else fit.fit_r2,
            samples,
        )

    crossover = float(system.L) ** (study.M * system.walk_dim)
    if crossover > 1.0:
        regime("regime1", log_time_grid(1.0, crossover * 0.98, n_times), None,
               "relativistic_regime_1")
    sub_times = log_time_grid(t_min, SUB_UNIT_END, n_times)
    if (dist >= 1.0).any():
        regime("regime2", sub_times, dist >= 1.0, "relativistic_regime_2")
    regime("regime3", sub_times, dist < 1.0, "relativistic_regime_3")
    return out


class TestRegimeReports:
    @pytest.mark.parametrize(
        "M,metric,alpha,m,fit_sample",
        [
            (0, "geodesic", 0.5, 1.0, 60000),
            (0, "euclidean", 0.5, 1.0, 2000),
            (1, "geodesic", 0.5, 1.0, 2000),
            (1, "euclidean", 0.5, 1.0, 60000),
            (1, "geodesic", 0.7, 0.5, 60000),
        ],
    )
    def test_match_two_pass_reference_exactly(
        self, gasket, cache, M, metric, alpha, m, fit_sample
    ):
        study = ReflectionStudy.build(gasket, M=M, depth=3, window=M + 1, cache=cache)
        reports = relativistic_comparison_reports(
            study, alpha, m, n_times=4, t_min=0.1, fit_sample=fit_sample,
            metric=metric, seed=3,
        )
        expected = _two_pass_regimes(study, alpha, m, 4, 0.1, fit_sample, metric, 3)
        names = [k for k in ("regime1", "regime2", "regime3") if k in reports]
        assert names == list(expected)
        assert ("regime1" in names) == (M > 0)
        for name in names:
            rep = reports[name]
            got = (
                rep.min_ratio,
                rep.max_ratio,
                rep.fitted_c,
                rep.extras.get("fit_slope_lsq"),
                rep.extras.get("fit_r2"),
                rep.samples,
            )
            assert got == expected[name], name

    def test_one_folded_block_per_time(self, study, monkeypatch):
        # flat k, domination 2k (folded and free), regime 1 k, sub-unit k
        calls = []
        matrix = SpectralKernel.matrix

        def counted(self, t, *args, **kwargs):
            calls.append(t)
            return matrix(self, t, *args, **kwargs)

        monkeypatch.setattr(SpectralKernel, "matrix", counted)
        k = 3
        reports = relativistic_comparison_reports(study, alpha=0.5, m=1.0, n_times=k)
        assert {"regime1", "regime2", "regime3"} <= set(reports)
        assert len(calls) == 5 * k


class TestSandwich:
    def test_bounds_and_corner_equalities(self, gasket):
        report = sandwich_check_f(gasket, 0.5, 2.0, 1.0, M=1)
        assert report.passed
        assert report.upper_equality_error <= 1e-12
        assert report.prefactor_equality_error <= 1e-12
        assert report.exponential_equality_error <= 1e-12
        assert report.lower_bound <= report.min_seen
        assert report.max_seen <= report.upper_bound + 1e-12

    def test_degenerate_point_ratio_one(self, gasket):
        report = sandwich_check_f(gasket, 1.0, 1.0, 1.0, M=0)
        assert report.max_seen == pytest.approx(1.0, abs=1e-12)
        assert report.upper_bound == pytest.approx(1.0, abs=1e-12)

    def test_interval_order_enforced(self, gasket):
        with pytest.raises(BoundError):
            sandwich_check_f(gasket, 2.0, 1.0, 1.0, M=0)
        with pytest.raises(BoundError):
            sandwich_check_f(gasket, 0.5, 1.0, -1.0, M=0)

    @pytest.mark.parametrize("c1,c2,c3,M", [(0.3, 1.7, 0.8, 0), (2.0, 3.0, 1.0, 1), (0.9, 1.1, 2.5, 2)])
    def test_various_parameters(self, gasket, c1, c2, c3, M):
        report = sandwich_check_f(gasket, c1, c2, c3, M=M)
        assert report.passed


def _decay_data(seed, c, n=400):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 5.0, n)
    return c * x + rng.normal(0.0, 0.3, n), x


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c", [-1.0, 0.0, 0.01, 1.7, 42.0, 99.99, 250.0])
def test_minimax_constant_matches_scipy_bounded_minimizer(seed, c):
    # the same bits as scipy's bounded Brent minimizer on the same width
    from scipy.optimize import minimize_scalar

    y, x = _decay_data(seed, c)

    def width(k):
        resid = y - k * x
        return float(resid.max() - resid.min())

    ref = minimize_scalar(width, bounds=(0.0, 100.0), method="bounded",
                          options={"xatol": 1e-6})
    got = bounds._minimax_decay_constant(y, x)
    assert type(got) is float and got == float(ref.x)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda k: (k - 3.7) ** 2, 0.0, 10.0),
    (lambda k: abs(k - 0.25), -1.0, 1.0),
    (lambda k: math.cos(k), 0.0, 20.0),
    (lambda k: -k, 0.0, 1.0),
    (lambda k: 1.0, 2.0, 3.0),
])
@pytest.mark.parametrize("xatol", [1e-6, 1e-3])
def test_bounded_minimum_matches_scipy(f, lo, hi, xatol):
    from scipy.optimize import minimize_scalar

    ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert bounds._bounded_minimum(f, lo, hi, xatol) == float(ref.x)
    capped = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                             options={"xatol": xatol, "maxiter": 5})
    assert bounds._bounded_minimum(f, lo, hi, xatol, maxfun=5) == float(capped.x)


@pytest.mark.parametrize("M", [0, 1])
def test_plot_samples_lie_in_their_report_regime(gasket, cache, M):
    # the report passes split time and distance on their own grids;
    # classify_regime is the one written definition of the regimes.  Regime
    # 1 needs a crossover above t = 1, so it appears from M = 1 on.
    study = ReflectionStudy.build(gasket, M=M, depth=3, window=M + 1, cache=cache)
    alpha = 0.5
    reports = {
        "stable": stable_comparison_reports(study, alpha=alpha, n_times=6),
        "relativistic": relativistic_comparison_reports(study, alpha=alpha, m=1.0, n_times=6),
    }
    dist = study.metric("geodesic")
    expected = {
        "stable": {"near", "flat"},
        "relativistic": {"flat", "regime2", "regime3"} | ({"regime1"} if M else set()),
    }
    for process, by_name in reports.items():
        names = {name for name in by_name if name != "domination"}
        assert names == expected[process]
        for name in names:
            rep = by_name[name]
            assert rep.regime == name and rep.samples
            for t, i, j, *_ in rep.samples:
                got = classify_regime(gasket, process, t, dist[i, j], M, alpha)
                assert got == name, (process, name, t, dist[i, j])
