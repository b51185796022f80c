"""Two-sided bound verification: envelope shapes, fitted constants, reports.

The claims under test are sandwich estimates with existential constants, so
verification is empirical: evaluate the computed kernel against the claimed
closed-form shape over a regime grid, fit the shape's free constant where it
sits in an exponent, and report the min/max ratio.  A claim passes when the
ratio spread is finite, below a declared threshold, and stable under grid
refinement.

Two fitting conventions coexist: a least-squares decay slope (reported as
``fit_slope`` with its r^2) and a minimax constant that minimizes the ratio
spread, which is what a best two-sided sandwich constant means; the ratio
statistics use the latter.

Distances in the regime forms default to the intrinsic (shortest-path)
metric of the fractal, computed exactly on the graph.  On the gasket the
intrinsic and Euclidean metrics differ by a factor up to 2 across holes,
which alone inflates Euclidean-metric ratio spreads of jump-kernel shapes by
``2^(d + alpha d_w)``; the Euclidean variant remains available via
``metric='euclidean'``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import FractalSystem
from .kernels import KernelCache, KernelError, SpectralKernel, default_cache
from .subordinators import SubordinatorSpec

CLAMP = 1e-14  # ratio statistics only; raw kernel values are never clamped
PLOT_PAIRS = 50  # folded-graph pairs a report samples at each of its times
SUB_UNIT_END = 0.95  # last time of the sub-unit grid of relativistic regimes 2, 3


class BoundError(ValueError):
    pass


class EmptyRegimeError(BoundError):
    """No grid points fall inside the requested regime."""


FORM_KINDS = (
    "subgaussian",
    "f_env",
    "h_env",
    "stable_form",
    "relativistic_regime_1",
    "relativistic_regime_2",
    "relativistic_regime_3",
    "flat",
)


@dataclass(frozen=True)
class EnvelopeForm:
    """A named closed-form estimate shape with one free constant ``c``.

    Shapes are evaluated with ``c = 1`` unless a fitted constant is supplied;
    the comparison machinery fits ``c``, never assumes it.
    """

    kind: str
    d: float
    d_w: float
    d_J: float
    L: float
    alpha: float | None = None
    M: int | None = None
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise BoundError(f"unknown form kind {self.kind!r}")
        if self.kind in ("stable_form", "relativistic_regime_3") and self.alpha is None:
            raise BoundError(f"{self.kind} requires alpha")
        if self.kind in ("h_env", "flat") and self.M is None:
            raise BoundError(f"{self.kind} requires the complex level M")

    def with_constant(self, c: float) -> "EnvelopeForm":
        return EnvelopeForm(
            kind=self.kind, d=self.d, d_w=self.d_w, d_J=self.d_J, L=self.L,
            alpha=self.alpha, M=self.M, c=c,
        )

    # -- pieces shared with the constant fit --------------------------------

    def prefactor(self, t):
        """The shape with the exponential factor removed."""
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k in ("subgaussian", "f_env", "relativistic_regime_1"):
            return t ** (-self.d / self.d_w)
        if k == "relativistic_regime_2":
            return t
        if k in ("stable_form", "relativistic_regime_3"):
            raise BoundError(f"{k} has no exponential split")
        if k == "flat":
            return np.full_like(t, self.L ** (-self.d * self.M))
        if k == "h_env":
            z = np.maximum(self.L**self.M / t ** (1.0 / self.d_w), 1.0)
            return self.L ** (-self.d * self.M) * z ** (
                self.d - self.d_w / (self.d_J - 1.0)
            )
        raise BoundError(k)

    def decay_argument(self, t, r):
        """X such that form = prefactor * exp(-c X)."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        k = self.kind
        if k in ("subgaussian", "f_env"):
            return (r / t ** (1.0 / self.d_w)) ** (self.d_w / (self.d_J - 1.0))
        if k == "relativistic_regime_1":
            chem = np.where(r > 0, r, 0.0) ** (self.d_w / self.d_J)
            diff = (r / t ** (1.0 / self.d_w)) ** (self.d_w / (self.d_J - 1.0))
            return np.minimum(chem, diff)
        if k == "relativistic_regime_2":
            return r ** (self.d_w / self.d_J)
        if k == "h_env":
            z = np.maximum(self.L**self.M / t ** (1.0 / self.d_w), 1.0)
            return z ** (self.d_w / (self.d_J - 1.0))
        if k == "flat":
            return np.zeros(np.broadcast(t, r).shape)
        raise BoundError(f"{k} has no exponential split")

    def evaluate(self, t, r):
        t_arr = np.asarray(t, dtype=float)
        r_arr = np.asarray(r, dtype=float)
        if np.any(t_arr <= 0):
            raise BoundError("form evaluation requires t > 0")
        if np.any(r_arr < 0):
            raise BoundError("form evaluation requires r >= 0")
        k = self.kind
        if k in ("stable_form", "relativistic_regime_3"):
            adw = self.alpha * self.d_w
            power = self.d + adw
            with np.errstate(divide="ignore"):
                frac = np.where(
                    r_arr > 0, t_arr ** (1.0 / adw) / np.where(r_arr > 0, r_arr, 1.0), np.inf
                )
            out = t_arr ** (-self.d / adw) * np.minimum(frac**power, 1.0)
        else:
            out = self.prefactor(t_arr) * np.exp(-self.c * self.decay_argument(t_arr, r_arr))
        return out if (np.ndim(t) or np.ndim(r)) else float(out)


def form_for(system: FractalSystem, kind: str, alpha=None, M=None, c=1.0) -> EnvelopeForm:
    return EnvelopeForm(
        kind=kind,
        d=system.hausdorff_dim,
        d_w=system.walk_dim,
        d_J=system.chemical_exp,
        L=float(system.L),
        alpha=alpha,
        M=M,
        c=c,
    )


# ---------------------------------------------------------------------------
# Regimes


def classify_regime(
    system: FractalSystem, process: str, t: float, r: float, M: int, alpha: float
) -> str:
    """Deterministic regime label for a (t, r) sample and process kind.

    Stable: 'near' below the crossover ``L^(alpha M d_w)``, 'flat' at and
    above it.  Relativistic: 'flat' for ``t >= L^(M d_w)``; 'regime1' for
    ``1 <= t < L^(M d_w)``; below ``t = 1`` the spatial split at ``r = 1``
    separates 'regime2' (far) from 'regime3' (near).
    """
    lf = float(system.L)
    if process == "stable":
        return "flat" if t >= lf ** (alpha * M * system.walk_dim) else "near"
    if process == "relativistic":
        if t >= lf ** (M * system.walk_dim):
            return "flat"
        if t >= 1.0:
            return "regime1"
        return "regime2" if r >= 1.0 else "regime3"
    raise BoundError(f"unknown process kind {process!r}")


# ---------------------------------------------------------------------------
# Reports


@dataclass
class BoundReport:
    claim: str
    regime: str
    grid: str
    min_ratio: float
    max_ratio: float
    threshold: float
    fitted_c: float | None = None
    fit_r2: float | None = None
    extras: dict = field(default_factory=dict)
    # (t, i, j, kernel, form, ratio) at seeded folded-graph pairs (i, j); the
    # ratio is the clamped value the min/max above runs over
    samples: list[tuple] = field(default_factory=list)

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.min_ratio)
            and math.isfinite(self.max_ratio)
            and self.min_ratio > 0
            and self.spread <= self.threshold
        )

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "regime": self.regime,
            "grid": self.grid,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "spread": self.spread,
            "pass": self.passed,
        }
        if self.fitted_c is not None:
            out["sandwich_c"] = self.fitted_c
        if self.fit_r2 is not None:
            out["fit_r2"] = self.fit_r2
        extras = dict(self.extras)
        if "fit_slope_lsq" in extras:
            out["fit_slope"] = extras.pop("fit_slope_lsq")
        out.update(extras)
        return out


def _lsq_decay_fit(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x with intercept; returns (slope, r2)."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss if ss > 0 else 1.0
    return float(coef[0]), r2


def _minimax_decay_constant(y: np.ndarray, x: np.ndarray, c_max: float = 100.0) -> float:
    """Constant c >= 0 minimizing max(y - c x) - min(y - c x): the tightest
    single-constant sandwich of exp(-c x) against the data."""
    def width(c: float) -> float:
        resid = y - c * x
        return float(resid.max() - resid.min())

    return _bounded_minimum(width, 0.0, c_max, xatol=1e-6)


def _bounded_minimum(f, a: float, b: float, xatol: float, maxfun: int = 500) -> float:
    """Local minimizer of ``f`` on [a, b] by Brent's bounded method
    (golden-section steps and parabolic interpolation; Forsythe, Malcolm &
    Moler, *Computer Methods for Mathematical Computations*, 1977).  It makes
    the same floating-point steps, in the same order, as
    ``scipy.optimize.minimize_scalar(method="bounded")``, so it returns the
    same bits without importing ``scipy.optimize``, whose import costs more
    than a report's fits."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def fit_envelope_constants(
    kernel_values: np.ndarray,
    t_values: np.ndarray,
    r_values: np.ndarray,
    form: EnvelopeForm,
    claim: str = "",
    threshold: float = 10.0,
    clamp: float = CLAMP,
) -> BoundReport:
    """Ratio statistics of kernel against form on a shared grid.

    For shapes with an exponential factor the decay constant is fitted twice:
    a least-squares slope (reported, with fit quality) and a minimax constant
    giving the tightest sandwich; the ratio statistics use the minimax form.
    """
    kern = np.asarray(kernel_values, dtype=float).ravel()
    ts = np.asarray(t_values, dtype=float).ravel()
    rs = np.asarray(r_values, dtype=float).ravel()
    if kern.size == 0:
        raise EmptyRegimeError(f"empty grid for claim {claim!r}")
    if not (kern.size == ts.size == rs.size):
        raise BoundError("kernel, t, r grids must align")
    fitted_c = None
    slope = None
    r2 = None
    use_form = form
    if form.kind not in ("stable_form", "relativistic_regime_3", "flat"):
        x = form.decay_argument(ts, rs)
        y = -np.log(np.maximum(kern, clamp) / form.prefactor(ts))
        slope, r2 = _lsq_decay_fit(y, x)
        fitted_c = _minimax_decay_constant(y, x)
        if fitted_c > 0:
            use_form = form.with_constant(fitted_c)
    ratios = np.maximum(kern, clamp) / use_form.evaluate(ts, rs)
    extras = {} if slope is None else {"fit_slope_lsq": slope}
    return BoundReport(
        claim=claim,
        regime=form.kind,
        grid=f"{kern.size} samples",
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        threshold=threshold,
        fitted_c=fitted_c,
        fit_r2=r2,
        extras=extras,
    )


def refinement_stability(coarse: BoundReport, fine: BoundReport) -> float:
    """Relative change of the fitted spread under grid refinement."""
    return abs(fine.spread - coarse.spread) / coarse.spread


# ---------------------------------------------------------------------------
# Kernel assembly for the reflected-vs-free comparisons


@dataclass
class ReflectionStudy:
    """Folded kernel on ``K<<M>>`` plus the free-kernel window surrogate.

    The window walk reflected at level ``window`` plays the free kernel: by
    iterated folding it dominates the true free kernel from above, while the
    window walk killed at the outer corners dominates from below, so the pair
    brackets the truncation error.
    """

    system: FractalSystem
    M: int
    depth: int
    window: int
    folded: SpectralKernel
    window_kernel: SpectralKernel
    sub_indices: np.ndarray  # positions of folded-graph points in window graph
    _dirichlet: SpectralKernel | None = None
    _geodesic: np.ndarray | None = None
    _euclidean: np.ndarray | None = None
    cache: KernelCache | None = None

    @classmethod
    def build(
        cls,
        system: FractalSystem,
        M: int,
        depth: int,
        window: int | None = None,
        cache: KernelCache | None = None,
    ) -> "ReflectionStudy":
        cache = cache or default_cache()
        if window is None:
            window = M + 1
        if window <= M:
            raise BoundError("window level must exceed M")
        folded = cache.kernel(system, M, depth)
        window_kernel = cache.kernel(system, window, depth)
        sub = window_kernel.graph.positions(folded.graph.lattice, folded.graph.lattice_denom)
        if (sub < 0).any():
            raise BoundError("a folded-graph point is not a window-graph point")
        return cls(
            system=system,
            M=M,
            depth=depth,
            window=window,
            folded=folded,
            window_kernel=window_kernel,
            sub_indices=sub,
            cache=cache,
        )

    def dirichlet(self) -> SpectralKernel:
        if self._dirichlet is None:
            cache = self.cache or default_cache()
            self._dirichlet = cache.kernel(self.system, self.window, self.depth, "dirichlet")
        return self._dirichlet

    def geodesic_distances(self) -> np.ndarray:
        """Intrinsic shortest-path metric of the folded graph; every edge has
        Euclidean length ``L^-depth``, so hop counts scale exactly."""
        if self._geodesic is None:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            graph = self.folded.graph
            n = graph.n_vertices
            rows = [u for u, v in graph.edges] + [v for u, v in graph.edges]
            cols = [v for u, v in graph.edges] + [u for u, v in graph.edges]
            data = np.ones(len(rows))
            adj = csr_matrix((data, (rows, cols)), shape=(n, n))
            hops = shortest_path(adj, method="D", unweighted=True)
            self._geodesic = hops * float(self.system.L) ** (-self.depth)
        return self._geodesic

    def euclidean_distances(self) -> np.ndarray:
        """Euclidean pair distances on the folded graph."""
        if self._euclidean is None:
            self._euclidean = self.folded.graph.distance_matrix()
        return self._euclidean

    def metric(self, name: str) -> np.ndarray:
        if name == "geodesic":
            return self.geodesic_distances()
        if name == "euclidean":
            return self.euclidean_distances()
        raise BoundError(f"unknown metric {name!r}")

    def folded_matrix(self, t: float, spec: SubordinatorSpec | None = None):
        expo = spec.laplace_exponent if spec else None
        return self.folded.matrix(t, exponent=expo)

    def free_matrix(self, t: float, spec: SubordinatorSpec | None = None):
        """Free-kernel surrogate evaluated at the folded-graph points."""
        expo = spec.laplace_exponent if spec else None
        return self.window_kernel.matrix(t, rows=self.sub_indices, exponent=expo)

    def certifiable_mask(self, radius: float | None = None) -> np.ndarray:
        """Folded-graph points at distance >= radius from every killed window
        corner.  The reflected and killed window kernels genuinely differ at
        the corners themselves (the killed one vanishes there), so the
        truncation certificate is only meaningful away from them."""
        if radius is None:
            radius = float(self.system.L) ** self.M / 4.0
        wgraph = self.window_kernel.graph
        corners = wgraph.coords[wgraph.corner_indices()]
        pts = self.folded.graph.coords
        d = np.sqrt(((pts[:, None, :] - corners[None, :, :]) ** 2).sum(axis=2))
        return d.min(axis=1) >= radius

    def truncation_bracket(
        self, spec: SubordinatorSpec, times, max_points: int = 200, seed: int = 0
    ) -> float:
        """max (reflected - killed)/reflected over a seeded interior sample:
        brackets the free-kernel surrogate error from both sides."""
        rng = np.random.default_rng(seed)
        ok = np.flatnonzero(self.certifiable_mask())
        if ok.size == 0:
            raise BoundError("no certifiable interior points for the bracket")
        killed = self.dirichlet()
        corners = killed.graph.corner_indices()
        expo = spec.laplace_exponent
        worst = 0.0
        for t in times:
            pairs = self.sub_indices[rng.choice(ok, size=(max_points, 2))]
            if np.isin(pairs, corners).any():
                raise BoundError("a bracket point is a killed corner of the window")
            free = self.window_kernel.value(t, pairs[:, 0], pairs[:, 1], expo)
            diri = killed.value(t, pairs[:, 0], pairs[:, 1], expo)
            width = (free - diri) / np.maximum(free, CLAMP)
            worst = max(worst, float(width.max()))
        return worst


def log_time_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (0 < lo < hi):
        raise BoundError(f"bad time grid bounds ({lo}, {hi})")
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _plot_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (i, j) folded-graph pairs for a report's plot samples, drawn
    from a generator no statistic consumes, and their flat indices."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(min(PLOT_PAIRS, n), 2))
    return pairs, pairs[:, 0] * n + pairs[:, 1]


def _masked_plot_pairs(mask: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Up to ``count`` distinct seeded (i, j) pairs inside ``mask``, drawn
    from a generator no statistic consumes."""
    inside = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    where = rng.choice(len(inside), size=min(count, len(inside)), replace=False)
    return np.column_stack(np.divmod(inside[where], mask.shape[1]))


def _samples(t, pairs, kernel, form, ratio) -> list[tuple]:
    """(t, i, j, kernel, form, ratio) rows from the values at ``pairs``."""
    return [
        (float(t), int(i), int(j), float(k), float(f), float(q))
        for (i, j), k, f, q in zip(pairs, kernel, form, ratio)
    ]


def _ratio_stats_over_times(
    study: ReflectionStudy,
    spec: SubordinatorSpec | None,
    times,
    denominator: str,
    pairs: np.ndarray,
    pos: np.ndarray,
):
    """Global min/max of folded/denominator and the largest
    denominator - folded over (t, all folded pairs), streamed per t, with the
    plot samples at ``pairs``."""
    gmin, gmax, gap = np.inf, -np.inf, -np.inf
    samples: list[tuple] = []
    lmd = float(study.system.L) ** (study.M * study.system.hausdorff_dim)
    for t in times:
        num = study.folded_matrix(t, spec)
        if denominator == "free":
            den = study.free_matrix(t, spec)
            den_at = den.ravel()[pos]
        elif denominator == "flat":
            den = 1.0 / lmd
            den_at = np.full(len(pos), den)
        else:
            raise BoundError(denominator)
        gap = max(gap, float((den - num).max()))
        num_at = num.ravel()[pos]
        # clamp in place; the ratio overwrites the folded block
        ratio = np.maximum(num, CLAMP, out=num)
        if denominator == "free":
            ratio /= np.maximum(den, CLAMP, out=den)
        else:
            ratio /= max(den, CLAMP)
        gmin = min(gmin, float(ratio.min()))
        gmax = max(gmax, float(ratio.max()))
        samples += _samples(t, pairs, num_at, den_at, ratio.ravel()[pos])
        # free this time's blocks before the next time's are computed
        del num, den, ratio
    return gmin, gmax, gap, samples


def stable_comparison_reports(
    study: ReflectionStudy,
    alpha: float,
    n_times: int = 12,
    t_min: float = 0.1,
    flat_span: float = 20.0,
    spread_threshold: float = 10.0,
    bracket_tol: float | None = None,
    bracket_sample: int = 150,
    seed: int = 0,
) -> dict[str, BoundReport]:
    """Two-regime comparison for the stable-subordinate reflected kernel.

    'near' checks the folded/free ratio below the crossover time
    ``L^(alpha M d_w)``; 'flat' checks the folded kernel against the constant
    level ``L^(-M d)`` from the crossover onward.
    """
    spec = SubordinatorSpec("stable", alpha)
    system = study.system
    lf = float(system.L)
    crossover = lf ** (alpha * study.M * system.walk_dim)
    pairs, pos = _plot_pairs(len(study.sub_indices), seed)
    near_times = log_time_grid(t_min, crossover * 0.98, n_times)
    flat_times = log_time_grid(crossover, crossover * flat_span, n_times)

    bracket = study.truncation_bracket(
        spec, [near_times[-1]], max_points=bracket_sample, seed=seed
    )
    if bracket_tol is not None and bracket > bracket_tol:
        raise KernelError(
            f"free-kernel truncation bracket {bracket:.3f} exceeds {bracket_tol}; "
            f"increase the window level beyond {study.window}"
        )

    near_min, near_max, _, near_samples = _ratio_stats_over_times(
        study, spec, near_times, "free", pairs, pos
    )
    near = BoundReport(
        claim=f"stable-near[alpha={alpha:g},M={study.M},n={study.depth}]",
        regime="near",
        grid=f"{n_times} times x {len(study.sub_indices)}^2 pairs",
        min_ratio=near_min,
        max_ratio=near_max,
        threshold=spread_threshold,
        extras={"truncation_bracket": bracket, "crossover": crossover},
        samples=near_samples,
    )
    flat_min, flat_max, _, flat_samples = _ratio_stats_over_times(
        study, spec, flat_times, "flat", pairs, pos
    )
    flat = BoundReport(
        claim=f"stable-flat[alpha={alpha:g},M={study.M},n={study.depth}]",
        regime="flat",
        grid=f"{n_times} times x {len(study.sub_indices)}^2 pairs",
        min_ratio=flat_min,
        max_ratio=flat_max,
        threshold=spread_threshold,
        extras={"crossover": crossover},
        samples=flat_samples,
    )
    return {"near": near, "flat": flat}


def relativistic_comparison_reports(
    study: ReflectionStudy,
    alpha: float,
    m: float,
    n_times: int = 12,
    t_min: float = 0.1,
    flat_span: float = 10.0,
    spread_threshold: float = 10.0,
    domination_tol: float = 1e-8,
    fit_sample: int = 60000,
    metric: str = "geodesic",
    seed: int = 0,
) -> dict[str, BoundReport]:
    """Flat-regime spread, pointwise lower domination, and the three
    sub-crossover regime forms for the relativistic reflected kernel.

    Regime forms are evaluated in the intrinsic metric by default (see the
    module docstring).  Each regime time grid computes one folded block per
    time (regimes 2 and 3 share theirs) and keeps the kernel min and max at
    each pair distance, a seeded subsample on which the minimax sandwich
    constant is fitted, and the plot-pair values.  The reported spread is
    the full-grid spread at that constant, read off the per-distance extremes.
    """
    spec = SubordinatorSpec("relativistic", alpha, m)
    system = study.system
    lf = float(system.L)
    crossover = lf ** (study.M * system.walk_dim)
    n_pairs = len(study.sub_indices)
    grid_note = f"{n_times} times x {n_pairs}^2 pairs"
    pairs, pos = _plot_pairs(n_pairs, seed)

    flat_times = log_time_grid(crossover, crossover * flat_span, n_times)
    flat_min, flat_max, _, flat_samples = _ratio_stats_over_times(
        study, spec, flat_times, "flat", pairs, pos
    )
    reports = {
        "flat": BoundReport(
            claim=f"relativistic-flat[alpha={alpha:g},m={m:g},M={study.M},n={study.depth}]",
            regime="flat",
            grid=grid_note,
            min_ratio=flat_min,
            max_ratio=flat_max,
            threshold=spread_threshold,
            extras={"crossover": crossover},
            samples=flat_samples,
        )
    }

    # pointwise lower domination: free <= folded + tol below the crossover
    dom_times = log_time_grid(t_min, crossover * 0.98, n_times)
    _, _, worst_violation, dom_samples = _ratio_stats_over_times(
        study, spec, dom_times, "free", pairs, pos
    )
    reports["domination"] = BoundReport(
        claim=f"relativistic-domination[alpha={alpha:g},m={m:g},M={study.M},n={study.depth}]",
        regime="domination",
        grid=grid_note,
        min_ratio=1.0,
        max_ratio=1.0 if worst_violation <= domination_tol else np.inf,
        threshold=spread_threshold,
        extras={"max_violation": worst_violation, "tolerance": domination_tol},
        samples=dom_samples,
    )

    dist = study.metric(metric)
    # the pairs in order of distance, so each distance level is one run
    by_level = np.argsort(dist, axis=None)
    ordered = dist.ravel()[by_level]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    levels, counts = ordered[starts], np.diff(np.r_[starts, dist.size])
    del ordered
    rng = np.random.default_rng(seed)

    def add_regime_reports(times, regimes) -> None:
        """Reports of the ``(name, kind, keep)`` regimes, from one folded block
        per time; ``keep`` picks the distance levels of a regime (None: all).
        A form depends on a pair only through (t, r), and max(v, CLAMP) / shape
        grows with v, so the per-level kernel extremes give the ratio extremes."""
        lo = np.empty((len(times), len(levels)))
        hi = np.empty_like(lo)
        plot_pairs, plot_vals, fit_pool, fit_draws = {}, {}, {}, {}
        for name, kind, keep in regimes:
            if keep is None:
                plot_pairs[name], pool = pairs, np.arange(dist.size)
            else:
                in_regime = np.empty(dist.size, dtype=bool)
                in_regime[by_level] = np.repeat(keep, counts)
                plot_pairs[name] = _masked_plot_pairs(
                    in_regime.reshape(dist.shape), len(pairs), seed
                )
                pool = np.flatnonzero(in_regime)
            plot_vals[name] = []
            if kind != "relativistic_regime_3":  # the one form with no constant
                fit_pool[name], fit_draws[name] = pool, []
        for k, t in enumerate(times):
            block = study.folded_matrix(t, spec)
            flat = block.ravel()
            grouped = flat[by_level]
            np.minimum.reduceat(grouped, starts, out=lo[k])
            np.maximum.reduceat(grouped, starts, out=hi[k])
            for name, ij in plot_pairs.items():
                plot_vals[name].append(block[ij[:, 0], ij[:, 1]])
            for name, pool in fit_pool.items():
                take = min(len(pool), max(500, fit_sample // len(times)))
                sel = pool[rng.choice(len(pool), size=take, replace=False)]
                fit_draws[name].append((sel, flat[sel]))
            # free this time's block before the next time's is computed
            del block, flat, grouped
        for name, kind, keep in regimes:
            form = fitted_form = form_for(system, kind, alpha=alpha, M=study.M)
            extras: dict = {"metric": metric}
            if name in fit_draws:
                sel, vals = (np.concatenate(a) for a in zip(*fit_draws[name]))
                ts = np.repeat(times, len(sel) // len(times))
                fit = fit_envelope_constants(
                    vals, ts, dist.ravel()[sel], form, claim=f"{name}-fit",
                    threshold=spread_threshold,
                )
                if fit.fitted_c is not None and fit.fitted_c > 0:
                    fitted_form = form.with_constant(fit.fitted_c)
                extras["fit_slope_lsq"] = fit.extras.get("fit_slope_lsq")
                extras["fit_r2"] = fit.fit_r2
            cols = slice(None) if keep is None else keep
            r_levels = levels[cols]
            shape = fitted_form.evaluate(
                np.repeat(times, len(r_levels)), np.tile(r_levels, len(times))
            ).reshape(len(times), -1)
            i, j = plot_pairs[name].T
            samples: list[tuple] = []
            for t, vals in zip(times, plot_vals[name]):
                at_pairs = fitted_form.evaluate(np.full(len(i), t), dist[i, j])
                ratio = np.maximum(vals, CLAMP) / at_pairs
                samples += _samples(t, plot_pairs[name], vals, at_pairs, ratio)
            reports[name] = BoundReport(
                claim=f"relativistic-{name}[alpha={alpha:g},m={m:g},M={study.M},n={study.depth}]",
                regime=name,
                grid=grid_note,
                min_ratio=float((np.maximum(lo[:, cols], CLAMP) / shape).min()),
                max_ratio=float((np.maximum(hi[:, cols], CLAMP) / shape).max()),
                threshold=spread_threshold,
                fitted_c=None if fitted_form is form else fitted_form.c,
                extras=extras,
                samples=samples,
            )

    if crossover > 1.0:
        regime1_times = log_time_grid(1.0, crossover * 0.98, n_times)
        add_regime_reports(regime1_times, [("regime1", "relativistic_regime_1", None)])
    far = levels >= 1.0
    sub_regimes = [("regime2", "relativistic_regime_2", far)] if far.any() else []
    add_regime_reports(
        log_time_grid(t_min, SUB_UNIT_END, n_times),
        sub_regimes + [("regime3", "relativistic_regime_3", ~far)],
    )
    return reports


# ---------------------------------------------------------------------------
# Analytic sandwich check for the f-shape


@dataclass(frozen=True)
class SandwichReport:
    lower_bound: float
    upper_bound: float
    min_seen: float
    max_seen: float
    upper_equality_error: float
    prefactor_equality_error: float
    exponential_equality_error: float

    @property
    def passed(self) -> bool:
        return (
            self.lower_bound - 1e-12 <= self.min_seen
            and self.max_seen <= self.upper_bound + 1e-12
            and self.upper_equality_error <= 1e-12
            and self.prefactor_equality_error <= 1e-12
            and self.exponential_equality_error <= 1e-12
        )


def sandwich_check_f(
    system: FractalSystem,
    c1: float,
    c2: float,
    c3: float,
    M: int,
    n_s: int = 41,
    n_r: int = 41,
) -> SandwichReport:
    """Verify the time-window sandwich for the sub-Gaussian shape.

    Over ``s in [c1, c2] * L^(M d_w)`` and ``r in [0, L^M]`` the quantity
    ``f_c3(s, r) * L^(M d)`` lies between
    ``c2^(-d/d_w) * exp(-c3 * c1^(-1/(d_J - 1)))`` and ``c1^(-d/d_w)``:
    the prefactor and exponential factor are each minimized separately at
    grid corners, where equality of the factors is checked to 1e-12.
    """
    if not 0 < c1 <= c2:
        raise BoundError("need 0 < c1 <= c2")
    if c3 <= 0:
        raise BoundError("need c3 > 0")
    d, d_w, d_J = system.hausdorff_dim, system.walk_dim, system.chemical_exp
    lf = float(system.L)
    lmd = lf ** (M * d)
    lmdw = lf ** (M * d_w)
    form = form_for(system, "f_env", c=c3)
    upper = c1 ** (-d / d_w)
    exp_floor = math.exp(-c3 * c1 ** (-1.0 / (d_J - 1.0)))
    lower = c2 ** (-d / d_w) * exp_floor
    s_grid = np.linspace(c1 * lmdw, c2 * lmdw, n_s)
    r_grid = np.linspace(0.0, lf**M, n_r)
    ss, rr = np.meshgrid(s_grid, r_grid, indexing="ij")
    vals = form.evaluate(ss, rr) * lmd
    upper_eq = abs(form.evaluate(c1 * lmdw, 0.0) * lmd - upper)
    pref_eq = abs((c2 * lmdw) ** (-d / d_w) * lmd - c2 ** (-d / d_w))
    exp_arg = form.decay_argument(c1 * lmdw, lf**M)
    exp_eq = abs(math.exp(-c3 * float(exp_arg)) - exp_floor)
    return SandwichReport(
        lower_bound=lower,
        upper_bound=upper,
        min_seen=float(vals.min()),
        max_seen=float(vals.max()),
        upper_equality_error=float(upper_eq),
        prefactor_equality_error=float(pref_eq),
        exponential_equality_error=float(exp_eq),
    )
