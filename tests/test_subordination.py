import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from fractalheat import crosscheck_subordination, subordinate_quadrature
from fractalheat.kernels import KernelError, SpectralKernel
from fractalheat.subordinators import SubordinatorSpec

STABLE = SubordinatorSpec("stable", 0.5)
RELATIVISTIC = SubordinatorSpec("relativistic", 0.5, 1.0)
GENERAL = [
    SubordinatorSpec("stable", 0.3),
    SubordinatorSpec("stable", 0.7),
    SubordinatorSpec("relativistic", 0.7, 1.0),
]


class TestSpectralMapping:
    @pytest.mark.parametrize("spec", [STABLE, RELATIVISTIC], ids=lambda s: s.label())
    def test_conservative(self, gasket, cache, spec):
        kern = cache.kernel(gasket, 0, 4)
        for t in (0.2, 1.0, 30.0):
            assert kern.conservativeness_residual(t, exponent=spec.laplace_exponent) <= 1e-10

    def test_long_time_limit_uniform(self, gasket, cache):
        kern = cache.kernel(gasket, 1, 3)
        g = kern.matrix(400.0, exponent=STABLE.laplace_exponent)
        assert np.abs(g - 1.0 / 3.0).max() <= 1e-6

    def test_relativistic_small_mass_matches_stable(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        tiny = SubordinatorSpec("relativistic", 0.5, 1e-12)
        for t in (0.5, 2.0):
            a = kern.matrix(t, exponent=tiny.laplace_exponent)
            b = kern.matrix(t, exponent=STABLE.laplace_exponent)
            assert np.abs(a - b).max() <= 1e-8

    def test_symmetric_exactly(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        g = kern.matrix(0.7, exponent=STABLE.laplace_exponent)
        assert np.array_equal(g, g.T)

    def test_time_validation(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 2)
        with pytest.raises(KernelError):
            kern.value(-1.0, 0, 0, exponent=STABLE.laplace_exponent)


def _adaptive_quad_route(kernel, spec, t, i, j):
    """``int g(u,x,y) eta_t(du)`` by adaptive scalar ``quad`` at epsrel 1e-9,
    one kernel value and one density value per point, split where
    ``g - flat`` has decayed to 1e-15 of its amplitude; the route the panel
    quadrature replaced."""
    flat = kernel.flat_value
    lam1 = float(kernel.eigenvalues[1])
    amp = float(
        np.abs(kernel.psi[i, 1:] * kernel.psi[j, 1:]).sum()
        / (kernel.sqrt_mu[i] * kernel.sqrt_mu[j])
    )
    u_split = math.log(max(amp / (max(flat, amp) * 1e-15), 2.0)) / lam1

    def integrand(u):
        dens = spec.density(t, u)
        return 0.0 if dens == 0.0 else (kernel.value(u, i, j) - flat) * dens

    scale = t ** (1.0 / spec.alpha)
    breaks = sorted(
        {b for b in (scale * 0.01, scale * 0.1, scale, u_split / 10.0) if 0 < b < u_split}
    )
    total = 0.0
    for lo, hi in zip([0.0] + breaks, breaks + [u_split]):
        total += quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-9, limit=200)[0]
    return total + flat


class TestQuadratureEquivalence:
    @pytest.mark.parametrize("spec", [STABLE, RELATIVISTIC], ids=lambda s: s.label())
    def test_two_routes_agree(self, gasket, cache, spec):
        kern = cache.kernel(gasket, 0, 4)
        report = crosscheck_subordination(
            kern, spec, times=[0.3, 1.0, 3.0], n_samples=10, seed=5
        )
        assert report.max_rel_error <= 1e-12

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_crosscheck_needs_a_sample(self, gasket, cache, n_samples):
        kern = cache.kernel(gasket, 0, 2)
        with pytest.raises(KernelError, match="sample"):
            crosscheck_subordination(kern, STABLE, times=[1.0], n_samples=n_samples, seed=0)

    def test_constant_kernel_returns_constant(self):
        c = 0.37
        kern = SpectralKernel(
            graph=SimpleNamespace(measure=np.array([1.0 / c])),
            eigenvalues=np.array([0.0]),
            psi=np.array([[1.0]]),
        )
        res = subordinate_quadrature(kern, STABLE, 1.0, 0, 0)
        assert isinstance(res, float)
        assert res == c

    def test_single_value_matches_spectral(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        res = subordinate_quadrature(kern, STABLE, 1.0, 0, 5)
        direct = kern.value(1.0, 0, 5, exponent=STABLE.laplace_exponent)
        assert res == pytest.approx(direct, rel=1e-12)

    def test_killed_kernel_routes_agree(self, gasket, cache):
        # non-conservative kernels decay from their bottom eigenvalue; the
        # panels must reach where that mode has died out, long times included
        kern = cache.kernel(gasket, 1, 3, "dirichlet")
        for t in (1.0, 30.0):
            for i, j in [(0, 0), (1, 1), (3, 17)]:
                quadval = subordinate_quadrature(kern, STABLE, t, i, j)
                direct = kern.value(t, i, j, exponent=STABLE.laplace_exponent)
                assert quadval == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("spec", GENERAL, ids=lambda s: s.label())
    def test_general_alpha_matches_spectral(self, gasket, cache, spec):
        for kind in ("neumann", "dirichlet"):
            kern = cache.kernel(gasket, 1, 3, kind)
            for t in (0.3, 1.0, 3.0, 30.0):
                for i, j in [(0, 0), (1, 1), (3, 17), (40, 99)]:
                    quadval = subordinate_quadrature(kern, spec, t, i, j)
                    direct = kern.value(t, i, j, exponent=spec.laplace_exponent)
                    assert quadval == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("spec", GENERAL, ids=lambda s: s.label())
    def test_general_alpha_matches_adaptive_quad_route(self, gasket, cache, spec):
        kern = cache.kernel(gasket, 0, 3)
        for t, (i, j) in [(0.3, (0, 0)), (1.0, (3, 17)), (3.0, (10, 30))]:
            ref = _adaptive_quad_route(kern, spec, t, i, j)
            assert subordinate_quadrature(kern, spec, t, i, j) == pytest.approx(
                ref, rel=1e-8
            )


    def test_crosscheck_needs_a_time(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 2)
        with pytest.raises(KernelError, match="time"):
            crosscheck_subordination(kern, STABLE, times=(), n_samples=4, seed=0)

    @pytest.mark.parametrize("spec", [STABLE] + GENERAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_array_pairs_match_scalar_calls_bitwise(self, gasket, cache, spec, kind):
        kern = cache.kernel(gasket, 1, 3, kind)
        rng = np.random.default_rng(4)
        i = rng.integers(0, kern.n, size=(3, 4))
        j = rng.integers(0, kern.n, size=(3, 4))
        for t in (0.3, 30.0):
            got = subordinate_quadrature(kern, spec, t, i, j)
            assert got.shape == (3, 4)
            for a, b, value in zip(i.flat, j.flat, got.flat):
                assert value == subordinate_quadrature(kern, spec, t, int(a), int(b))
            # a scalar index broadcasts against an array, as in SpectralKernel.value
            a = int(i[0, 0])
            row = subordinate_quadrature(kern, spec, t, a, j[0])
            assert row.tolist() == [
                subordinate_quadrature(kern, spec, t, a, int(b)) for b in j[0]
            ]

    @pytest.mark.parametrize("spec", [STABLE, RELATIVISTIC] + GENERAL, ids=lambda s: s.label())
    def test_max_error_matches_per_sample_loop_bitwise(self, gasket, cache, spec):
        # the loop the per-time grouping replaced: one draw, one spectral
        # value and one scalar quadrature per sample
        kern = cache.kernel(gasket, 1, 3)
        times, n_samples, seed = (0.5, 1.0, 2.0, 1.0), 10, 7
        rng = np.random.default_rng(seed)
        worst = 0.0
        for k in range(n_samples):
            t = times[k % len(times)]
            i = int(rng.integers(0, kern.n))
            j = int(rng.integers(0, kern.n))
            direct = kern.value(t, i, j, exponent=spec.laplace_exponent)
            quadval = subordinate_quadrature(kern, spec, t, i, j)
            worst = max(worst, abs(direct - quadval) / max(abs(direct), 1e-300))
        report = crosscheck_subordination(kern, spec, times, n_samples=n_samples, seed=seed)
        assert report.max_rel_error == worst
        assert report.times == times

    def test_one_density_call_per_distinct_time(self, gasket, cache, monkeypatch):
        calls = []
        density = SubordinatorSpec.density

        def counted(spec, t, s):
            calls.append(t)
            return density(spec, t, s)

        monkeypatch.setattr(SubordinatorSpec, "density", counted)
        kern = cache.kernel(gasket, 1, 3)
        crosscheck_subordination(
            kern, GENERAL[1], times=(0.5, 1.0, 2.0), n_samples=8, seed=0
        )
        assert calls == [0.5, 1.0, 2.0]


class TestFlatApproach:
    def test_decay_rate_matches_gap_exponent(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 4)
        lam1 = kern.spectral_gap
        phi1 = float(STABLE.laplace_exponent(lam1))
        # pick the pair with the largest spectral-gap amplitude
        deg = np.isclose(kern.eigenvalues, lam1, rtol=1e-9)
        deg[0] = False
        amp = (kern.psi[:, deg] @ kern.psi[:, deg].T) / np.outer(
            kern.sqrt_mu, kern.sqrt_mu
        )
        i, j = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
        ts = np.linspace(3.0, 6.0, 8) / phi1
        vals = [
            kern.value(float(t), int(i), int(j), exponent=STABLE.laplace_exponent)
            - kern.flat_value
            for t in ts
        ]
        slope = np.polyfit(ts, np.log(np.abs(vals)), 1)[0]
        assert abs(slope + phi1) / phi1 <= 0.05
