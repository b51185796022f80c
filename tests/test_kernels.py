import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fractalheat import (
    KernelError,
    build_generator,
    build_good_labeling,
    build_vertex_graph,
    check_scaling_property,
    estimate_walk_dimension,
    folding_crosscheck,
    kernels,
    spectral_decompose,
)
from fractalheat.kernels import absorbing_exit_time
from fractalheat.subordinators import SubordinatorSpec

from conftest import exact_points


def absorbing_exit_time_embedded(graph, start: int, absorbing: list[int]) -> float:
    """Independent route: expected visits of the embedded jump chain, from
    the fundamental matrix, weighted by mean holding times; the chain is
    read off the edge list."""
    free = [v for v in range(graph.n_vertices) if v not in set(absorbing)]
    pos = {v: k for k, v in enumerate(free)}
    deg = np.zeros(graph.n_vertices)
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    m = len(free)
    p = np.zeros((m, m))
    for u, v in graph.edges:
        if u in pos and v in pos:
            p[pos[u], pos[v]] = 1.0 / deg[u]
            p[pos[v], pos[u]] = 1.0 / deg[v]
    hold = 1.0 / deg[free]
    visits = np.linalg.solve(np.eye(m) - p.T, np.eye(m)[pos[start]])
    return float(visits @ hold)


class TestGenerator:
    def test_rows_sum_to_zero_exactly(self, gasket, cache):
        gen = build_generator(cache.graph(gasket, 0, 3))
        assert np.all(gen.matrix.toarray().sum(axis=1) == 0.0)

    def test_detailed_balance_exact(self, gasket, cache):
        graph = cache.graph(gasket, 0, 3)
        gen = build_generator(graph)
        weighted = graph.measure[:, None] * gen.matrix.toarray()
        assert np.array_equal(weighted, weighted.T)

    def test_offdiagonal_nonnegative(self, gasket, cache):
        q = build_generator(cache.graph(gasket, 1, 2)).matrix.toarray()
        off = q - np.diag(np.diag(q))
        assert off.min() >= 0.0

    def test_disconnected_rejected(self, gasket, cache):
        graph = cache.graph(gasket, 0, 2)
        broken = dataclasses.replace(graph, edges=graph.edges[:2])
        with pytest.raises(KernelError):
            build_generator(broken)

    def test_rate_scale(self, gasket, cache):
        gen = build_generator(cache.graph(gasket, 0, 3))
        assert gen.rate_scale == pytest.approx(5.0**3, rel=1e-12)


class TestSpectralKernel:
    def test_zero_mode_and_constant_eigenvector(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        assert kern.eigenvalues[0] == 0.0
        assert kern.eigenvalues[1] > 1.0
        total = kern.mu.sum()
        expected = np.sqrt(kern.mu) / np.sqrt(total)
        assert np.allclose(kern.psi[:, 0], expected, atol=1e-12)

    def test_generator_reconstruction(self, gasket, cache):
        graph = cache.graph(gasket, 0, 3)
        q = build_generator(graph).matrix.toarray()
        kern = cache.kernel(gasket, 0, 3)
        s = np.sqrt(graph.measure)
        rebuilt = ((kern.psi * (-kern.eigenvalues)) @ kern.psi.T) / s[:, None] * s[None, :]
        assert np.abs(rebuilt - q).max() <= 1e-10 * np.abs(q).max()

    def test_semigroup(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        mu = kern.mu
        p_half = kern.matrix(0.5) * mu[None, :]
        p_one = kern.matrix(1.0) * mu[None, :]
        assert np.abs(p_half @ p_half - p_one).max() <= 1e-8

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 50.0])
    def test_conservative(self, gasket, cache, t):
        kern = cache.kernel(gasket, 0, 4)
        assert kern.conservativeness_residual(t) <= 1e-10

    def test_symmetry_exact(self, gasket, cache):
        g = cache.kernel(gasket, 1, 3).matrix(0.7)
        assert np.array_equal(g, g.T)

    def test_positive_after_burn_in(self, gasket, cache):
        # below t_min(M) = 0.01 * L^(M d_w), spectral truncation noise can
        # produce negatives of order -1e-13; from there on the kernel is
        # strictly positive
        for M, depth in [(0, 4), (0, 5), (1, 4)]:
            kern = cache.kernel(gasket, M, depth)
            t_min = 0.01 * 5.0**M
            assert kern.matrix(t_min).min() > 0.0

    def test_time_must_be_positive(self, gasket, cache):
        with pytest.raises(KernelError):
            cache.kernel(gasket, 0, 2).matrix(0.0)

    @pytest.mark.parametrize(
        "spec",
        [None, SubordinatorSpec("stable", 0.5), SubordinatorSpec("relativistic", 0.5, 1.0)],
        ids=lambda s: "heat" if s is None else s.label(),
    )
    def test_value_pairs_match_matrix(self, gasket, cache, spec):
        kern = cache.kernel(gasket, 0, 4)
        exponent = None if spec is None else spec.laplace_exponent
        i, j = np.random.default_rng(3).integers(0, kern.n, size=(2, 400))
        for t in (0.1, 1.0, 10.0):
            g = kern.matrix(t, exponent=exponent)
            vals = kern.value(t, i, j, exponent)
            assert vals.shape == (400,)
            np.testing.assert_allclose(vals, g[i, j], rtol=1e-12, atol=0)
            # index arrays broadcast: one row against every column
            row = kern.value(t, 5, np.arange(kern.n), exponent)
            np.testing.assert_allclose(row, g[5], rtol=1e-12, atol=0)

    def test_scalar_value_is_float(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        val = kern.value(1.0, 2, 7)
        assert type(val) is float
        assert val == pytest.approx(kern.matrix(1.0)[2, 7], rel=1e-12)

    def test_matrix_rows_is_a_block_of_the_full_matrix(self, gasket, cache):
        kern = cache.kernel(gasket, 1, 3)
        rows = np.array([0, 4, 9, 30])
        block = kern.matrix(0.7, rows=rows)
        assert np.array_equal(block, block.T)
        np.testing.assert_allclose(block, kern.matrix(0.7)[np.ix_(rows, rows)], rtol=1e-12)



def _triu_matrix(kern, t, rows=None, exponent=None):
    """The kernel block by the triangle formula: kept modes by mask, the
    upper triangle of ``z @ z.T`` mirrored, then the measure divided out.
    The oracle for :meth:`SpectralKernel.matrix`."""
    w = kern.weights(t, exponent)
    keep = w > 0
    psi, s = kern.psi, kern.sqrt_mu
    if rows is not None:
        psi, s = psi[rows], s[rows]
    z = psi[:, keep] * np.sqrt(w[keep])
    g = np.triu(z @ z.T)
    g = g + np.triu(g, 1).T
    return g / np.outer(s, s)


class TestMatrixOracle:
    M, WINDOW, DEPTH = 1, 2, 3

    def _blocks(self, gasket, cache):
        """(kernel, rows) for the folded kernel, the window kernel on the
        folded points and the killed window kernel."""
        folded = cache.kernel(gasket, self.M, self.DEPTH)
        window = cache.kernel(gasket, self.WINDOW, self.DEPTH)
        killed = cache.kernel(gasket, self.WINDOW, self.DEPTH, "dirichlet")
        index_of = {p: k for k, p in enumerate(exact_points(window.graph))}
        sub = np.array([index_of[p] for p in exact_points(folded.graph)])
        return {"folded": (folded, None), "window": (window, sub), "killed": (killed, sub)}

    @pytest.mark.parametrize("block", ["folded", "window", "killed"])
    @pytest.mark.parametrize(
        "spec",
        [None, SubordinatorSpec("stable", 0.5), SubordinatorSpec("relativistic", 0.5, 1.0)],
        ids=lambda s: "heat" if s is None else s.label(),
    )
    def test_matches_triangle_formula(self, gasket, cache, block, spec):
        kern, rows = self._blocks(gasket, cache)[block]
        exponent = None if spec is None else spec.laplace_exponent
        rates = kern.eigenvalues if exponent is None else exponent(kern.eigenvalues)
        # from t_min out past the time at which only the zero mode is kept
        # (no mode at all on the killed kernel)
        t_min = 0.01 * float(gasket.L) ** (self.M * gasket.walk_dim)
        t_end = 2.0 * kernels._TRUNCATION_EXPONENT / rates[rates > 0].min()
        times = np.geomspace(t_min, t_end, 9)
        kept = []
        for t in times:
            g = kern.matrix(t, rows=rows, exponent=exponent)
            assert np.array_equal(g, _triu_matrix(kern, t, rows, exponent))
            assert np.array_equal(g, g.T)
            kept.append(np.count_nonzero(kern.weights(t, exponent)))
        assert kept[0] > 1
        assert kept[-1] == (1 if kern.conservative else 0)

    def test_decreasing_exponent_rejected(self, gasket, cache):
        kern = cache.kernel(gasket, 0, 3)
        top = float(kern.eigenvalues[-1])
        t = 4.0 * kernels._TRUNCATION_EXPONENT / top  # keeps only the top modes
        with pytest.raises(KernelError, match="prefix"):
            kern.matrix(t, exponent=lambda lam: top - lam)

class TestReflectedKernel:
    def test_long_time_limit(self, gasket, cache):
        for M in (0, 1):
            kern = cache.kernel(gasket, M, 3)
            t = 10.0 * 5.0**M
            flat = 3.0 ** (-M)
            assert np.abs(kern.matrix(t) - flat).max() <= 1e-8

    def test_flat_regime_ratio_bounded(self, gasket, cache):
        # uniform comparability at and beyond the crossover time
        for M, depth in [(0, 4), (0, 5), (1, 4), (1, 5)]:
            kern = cache.kernel(gasket, M, depth)
            for scale in (1.0, 2.0, 5.0):
                g = kern.matrix(scale * 5.0**M)
                assert g.max() / g.min() <= 3.0


class TestTruncatedFreeKernel:
    def test_dirichlet_close_to_neumann_deep_inside(self, gasket, cache):
        neumann = cache.kernel(gasket, 2, 4)
        dirichlet = cache.kernel(gasket, 2, 4, "dirichlet")
        coords = neumann.graph.coords
        center = coords.mean(axis=0)
        ci = int(np.argmin(((coords - center) ** 2).sum(axis=1)))
        gn = neumann.value(0.1, ci, ci)
        gd = dirichlet.value(0.1, ci, ci)
        assert abs(gn - gd) / gn <= 1e-10

    def test_killed_kernel_vanishes_at_the_corners(self, gasket, cache):
        # indexed like every other kernel of its graph, with a zero
        # eigenvector row at each killed corner
        kern = cache.kernel(gasket, 1, 3, "dirichlet")
        n = kern.graph.n_vertices
        corners = kern.graph.corner_indices()
        assert kern.psi.shape == (n, n - 3)
        assert np.all(kern.psi[corners] == 0.0)
        inner = np.setdiff1d(np.arange(n), corners)
        assert np.all(np.abs(kern.psi[inner]).max(axis=1) > 0.0)
        for t in (0.1, 1.0):
            assert np.all(kern.value(t, corners, corners[::-1]) == 0.0)
            assert np.all(kern.value(t, corners, inner[:3]) == 0.0)
            assert kern.value(t, inner[0], inner[0]) > 0.0

    def test_on_diagonal_decay_exponent(self, gasket, cache):
        kern = cache.kernel(gasket, 2, 4)
        coords = kern.graph.coords
        center = coords.mean(axis=0)
        ci = int(np.argmin(((coords - center) ** 2).sum(axis=1)))
        ts = np.exp(np.linspace(np.log(0.005), np.log(0.05), 8))
        vals = [kern.value(t, ci, ci) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        ds2 = gasket.spectral_dim / 2.0
        assert abs(slope + ds2) <= 0.05 * ds2

    def test_neumann_window_conserves_mass(self, gasket, cache):
        window = cache.kernel(gasket, 2, 3)
        assert window.conservativeness_residual(0.02) <= 1e-10

    def test_killed_kernel_rejects_zero_rate(self, gasket, cache, monkeypatch):
        eigh = kernels._symmetric_eigh

        def zero_rate(*args, **kwargs):
            lam, psi = eigh(*args, **kwargs)
            lam[0] = 0.0
            return lam, psi

        monkeypatch.setattr(kernels, "_symmetric_eigh", zero_rate)
        with pytest.raises(KernelError, match="positive rates"):
            kernels._dirichlet_kernel(cache.graph(gasket, 1, 2))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_decomposition_peak_memory(gasket, cache, bc):
    # numpy reports its buffers to tracemalloc.  The eigenvectors take
    # 8 n^2 bytes and the blocks' vectors about a sixth of that; a reordered
    # copy of the eigenvectors, a dense generator or a dense copy of it would
    # each add another 8 n^2.
    graph = cache.graph(gasket, 2, 4)
    n = graph.n_vertices
    assert n == 1095
    tracemalloc.start()
    try:
        if bc == "neumann":
            spectral_decompose(build_generator(graph))
        else:
            kernels._dirichlet_kernel(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.9 * 8 * n * n


class TestFoldingCrosscheck:
    def _pairs(self, folded, rng, count=10):
        corners = set(folded.graph.corner_indices())
        pairs = []
        while len(pairs) < count:
            i, j = rng.integers(0, folded.graph.n_vertices, 2)
            if int(j) not in corners:
                pairs.append((int(i), int(j)))
        return pairs

    def test_preimage_sum_matches_folded(self, gasket, cache):
        lm = build_good_labeling(gasket, 0, 2)
        window = cache.kernel(gasket, 2, 4)
        folded = cache.kernel(gasket, 0, 4)
        pairs = self._pairs(folded, np.random.default_rng(1))
        err = folding_crosscheck(window, lm, folded, 1.0, pairs)
        assert err <= 0.05

    def test_long_time_both_sides_flat(self, gasket, cache):
        lm = build_good_labeling(gasket, 0, 2)
        window = cache.kernel(gasket, 2, 3)
        folded = cache.kernel(gasket, 0, 3)
        pairs = self._pairs(folded, np.random.default_rng(2), count=5)
        err = folding_crosscheck(window, lm, folded, 50.0, pairs)
        assert err <= 1e-8

    def test_short_time_identity_preimage_dominates(self, gasket, cache):
        lm = build_good_labeling(gasket, 0, 2)
        window = cache.kernel(gasket, 2, 4)
        folded = cache.kernel(gasket, 0, 4)
        x = exact_points(folded.graph)[10]
        x_window = exact_points(window.graph).index(x)
        t = 0.01
        direct = window.value(t, x_window, x_window)
        summed = folded.value(t, 10, 10)
        assert abs(summed - direct) / direct <= 1e-6

    def test_corner_target_rejected(self, gasket, cache):
        lm = build_good_labeling(gasket, 0, 2)
        window = cache.kernel(gasket, 2, 3)
        folded = cache.kernel(gasket, 0, 3)
        corner = folded.graph.corner_indices()[0]
        with pytest.raises(KernelError):
            folding_crosscheck(window, lm, folded, 1.0, [(1, corner)])

    @pytest.mark.parametrize(
        "x_in_window, match",
        [(False, "not a window-graph point"), (True, "does not fold onto every")],
    )
    def test_window_coarser_than_folded_raises(self, gasket, cache, x_in_window, match):
        # a depth-3 window kernel against a depth-4 folded one: the folded
        # graph has points the window lacks, and vertices nothing folds onto
        lm = build_good_labeling(gasket, 0, 2)
        window = cache.kernel(gasket, 2, 3)
        folded = cache.kernel(gasket, 0, 4)
        points = exact_points(folded.graph)
        coarse = {points.index(p) for p in exact_points(cache.graph(gasket, 0, 3))}
        corners = folded.graph.corner_indices()
        x = next(i for i in range(len(points)) if (i in coarse) == x_in_window)
        pairs = [(x, y) for y in range(len(points)) if y not in corners]
        with pytest.raises(KernelError, match=match):
            folding_crosscheck(window, lm, folded, 1.0, pairs)


class TestWalkDimension:
    def test_interval_closed_form(self, interval, cache):
        # exact solution of the unit-rate walk on a path with 2^n edges,
        # reflecting start and absorbing far end: T_n = (4^n + 2^n) / 2
        est = estimate_walk_dimension(interval, 5, cache=cache)
        for n, t in enumerate(est.exit_times):
            assert t == pytest.approx((4.0**n + 2.0**n) / 2.0, rel=1e-12)
        # ratios increase toward 4 with a 2^-n correction
        assert all(a < b for a, b in zip(est.ratios, est.ratios[1:]))
        assert est.ratios[-1] == pytest.approx((4**5 + 2**5) / (4**4 + 2**4), rel=1e-12)

    def test_gasket_ratios_converge_to_five(self, gasket, cache):
        est = estimate_walk_dimension(gasket, 6, cache=cache)
        assert abs(est.ratios[4] - 5.0) / 5.0 <= 0.01
        assert abs(est.estimate - math.log(5) / math.log(2)) <= 0.02

    def test_ratios_monotone_stabilizing(self, gasket, cache):
        est = estimate_walk_dimension(gasket, 6, cache=cache)
        diffs = [abs(a - b) for a, b in zip(est.ratios, est.ratios[1:])]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_two_solver_routes_agree(self, gasket, cache):
        graph = cache.graph(gasket, 0, 3)
        corners = graph.corner_indices()
        direct = absorbing_exit_time(graph, corners[0], corners[1:])
        embedded = absorbing_exit_time_embedded(graph, corners[0], corners[1:])
        assert direct == pytest.approx(embedded, rel=1e-10)

    def test_exit_time_scaling_factor(self, gasket, cache):
        est = estimate_walk_dimension(gasket, 5, cache=cache)
        assert est.exit_times[5] / est.exit_times[4] == pytest.approx(5.0, rel=0.02)


class TestScaling:
    def test_deviation_small_and_decreasing(self, gasket, cache):
        dev_a = check_scaling_property(gasket, 0, 2, times=[0.5, 1, 2, 5], cache=cache)
        dev_b = check_scaling_property(gasket, 0, 3, times=[0.5, 1, 2, 5], cache=cache)
        assert dev_b.max_rel_deviation <= 0.1
        assert dev_b.max_rel_deviation < dev_a.max_rel_deviation

    def test_flat_times_nearly_exact(self, gasket, cache):
        dev = check_scaling_property(gasket, 0, 3, times=[20.0], cache=cache)
        assert dev.max_rel_deviation <= 0.02

    def test_fine_graph_missing_scaled_points_raises(self, gasket, cache):
        # L x of a depth-3 point of K<<0>> is a depth-2 point of K<<1>>, so a
        # fine kernel three levels coarser than asked lacks some of them
        class CoarseFineCache:
            def kernel(self, system, M, depth):
                return cache.kernel(system, M, depth - 3 if M == 1 else depth)

        with pytest.raises(KernelError, match="not a fine-graph point"):
            check_scaling_property(gasket, 0, 3, times=[1.0], cache=CoarseFineCache())


def _subgaussian_fit(kern, times):
    """Least-squares fit of ``g ~ K3 t^(-ds/2) exp(-K4 (r^dw/t)^(1/(dJ-1)))``
    over seeded pairs with decay argument in [0.5, 12]; (K3, K4, r^2)."""
    graph = kern.graph
    system = graph.system
    ds2 = system.hausdorff_dim / system.walk_dim
    expo = 1.0 / (system.chemical_exp - 1.0)
    dist = graph.distance_matrix()
    rng = np.random.default_rng(0)
    xs, ys = [], []
    for t in times:
        g = kern.matrix(t)
        for i, j in rng.integers(0, graph.n_vertices, size=(400, 2)):
            arg = (dist[i, j] ** system.walk_dim / t) ** expo
            if g[i, j] > 1e-13 and 0.5 <= arg <= 12.0:
                xs.append(arg)
                ys.append(-np.log(g[i, j] * t**ds2))
    xs, ys = np.asarray(xs), np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    r2 = 1.0 - float((resid**2).sum()) / float(((ys - ys.mean()) ** 2).sum())
    return float(np.exp(-intercept)), float(slope), r2


def test_subgaussian_fit_sane(gasket, cache):
    kern = cache.kernel(gasket, 2, 3)
    k3, k4, r2 = _subgaussian_fit(kern, [0.02, 0.05, 0.1])
    assert k3 > 0 and k4 > 0
    assert r2 > 0.5


def test_subgaussian_fit_slope_stable_across_depths(gasket, cache):
    times = [0.02, 0.05, 0.1]
    k4 = {}
    for depth in (4, 5):
        kern = cache.kernel(gasket, 2, depth)
        _, k4[depth], _ = _subgaussian_fit(kern, times)
    assert k4[4] > 0 and k4[5] > 0
    assert abs(k4[5] - k4[4]) / k4[4] <= 0.2
