"""Two-sided bound verification: envelope shapes, fitted constants, reports.

The claims under test are sandwich estimates with existential constants, so
verification is empirical: evaluate the computed kernel against the claimed
closed-form shape over a regime grid, fit the shape's free constant where it
sits in an exponent, and report the min/max ratio.  A claim passes when the
ratio spread is finite and at most ``SPREAD_THRESHOLD``, and its relative
change from depth n - 1 to n is at most ``STABILITY_THRESHOLD``
(``claim_entry``).  These and ``T_MIN`` and ``DOMINATION_TOL`` are constants
of this module, the one place that decides whether a claim passes; a run
hashes them into its manifest's ``config_hash``.

The report functions are the one definition of the regimes.  Stable:
'near' below the crossover ``L^(alpha M d_w)``, 'flat' (level ``N^-M``)
from it on.  Relativistic: 'flat' from ``L^(M d_w)`` on, 'regime1' on
``[1, L^(M d_w))``, and below ``t = 1`` 'regime2' where ``r >= 1`` and
'regime3' where ``r < 1``.  The reports take a run's settings as required
arguments; their defaults are those of ``RunConfig``.

Each regime constant is fitted once, on a seeded subsample: the reports
carry the minimax constant, which minimizes the ratio spread and so is what
a best two-sided sandwich constant means, and the least-squares decay slope
with its r^2 (``fit_slope``, ``fit_r2``).  The ratio statistics use the
minimax constant.

Distances in the regime forms are the intrinsic (shortest-path) metric of
the fractal, computed exactly on the graph.  On the gasket the Euclidean
metric is smaller by up to a factor 2 across holes, which would alone
inflate the ratio spreads of jump-kernel shapes by ``2^(d + alpha d_w)``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .geometry import FractalSystem, hop_distances
from .kernels import KernelCache, KernelError, SpectralKernel
from .subordinators import SubordinatorSpec

CLAMP = 1e-14  # ratio statistics only; raw kernel values are never clamped
PLOT_PAIRS = 50  # folded-graph pairs a report samples at each of its times
T_MIN = 0.1  # first time of every grid that starts below a crossover
SUB_UNIT_END = 0.95  # last time of the sub-unit grid of relativistic regimes 2, 3
SPREAD_THRESHOLD = 10.0  # largest passing max/min ratio of a claim, for every alpha
STABILITY_THRESHOLD = 0.5  # largest passing relative change of a spread, depth n-1 -> n
DOMINATION_TOL = 1e-8  # largest passing free - folded kernel difference
BRACKET_PAIRS = 150  # seeded interior pairs of the truncation bracket
FIT_PAIRS = 60000  # seeded fit draws of a regime report, over all its times
DECAY_CONSTANT_CAP = 100.0  # the minimax decay constant is sought on [0, cap]
SANDWICH_GRID = 41  # s and r values of the sandwich check's grid, each


class BoundError(ValueError):
    pass


FORM_KINDS = (
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
    N: int
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
        return dataclasses.replace(self, c=c)

    @property
    def flat_level(self) -> float:
        """``N^-M``, the long-time level of the reflected kernel on
        ``K<<M>>``, exactly: ``L**(-d M)`` is 0.11111111111111109 at M = 2
        on the gasket, where ``1 / N**M`` is 1/9."""
        return 1.0 / self.N**self.M

    # -- pieces shared with the constant fit --------------------------------

    def prefactor(self, t):
        """The shape with the exponential factor removed."""
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k in ("f_env", "relativistic_regime_1"):
            return t ** (-self.d / self.d_w)
        if k == "relativistic_regime_2":
            return t
        if k in ("stable_form", "relativistic_regime_3"):
            raise BoundError(f"{k} has no exponential split")
        if k == "flat":
            return np.full_like(t, self.flat_level)
        if k == "h_env":
            z = np.maximum(self.L**self.M / t ** (1.0 / self.d_w), 1.0)
            return self.flat_level * z ** (self.d - self.d_w / (self.d_J - 1.0))
        raise BoundError(k)

    def decay_argument(self, t, r):
        """X such that form = prefactor * exp(-c X)."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        k = self.kind
        if k == "f_env":
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
        N=system.n_maps,
        alpha=alpha,
        M=M,
        c=c,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class BoundReport:
    claim: str
    regime: str
    grid: str
    min_ratio: float
    max_ratio: float
    fitted_c: float | None = None
    extras: dict = field(default_factory=dict)
    # (t, i, j, kernel, form, ratio) at seeded folded-graph pairs (i, j); the
    # ratio is the clamped value the min/max above runs over
    samples: list[tuple] = field(default_factory=list)

    @classmethod
    def of(cls, study: ReflectionStudy, spec: SubordinatorSpec, regime: str, n_times: int,
           min_ratio: float, max_ratio: float, samples: list[tuple], extras: dict,
           fitted_c: float | None = None) -> BoundReport:
        """The ``regime`` report of ``spec`` on ``study``: its claim names
        the spec's parameters, the level M and the depth, and its grid note
        counts the times and the folded-graph pairs."""
        params = f"alpha={spec.alpha:g}" + (f",m={spec.m:g}" if spec.m is not None else "")
        claim = f"{spec.kind}-{regime}[{params},M={study.M},n={study.depth}]"
        grid = f"{n_times} times x {len(study.sub_indices)}^2 pairs"
        return cls(claim, regime, grid, min_ratio, max_ratio, fitted_c, extras, samples)

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.min_ratio)
            and math.isfinite(self.max_ratio)
            and self.min_ratio > 0
            and self.spread <= SPREAD_THRESHOLD
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
        out.update(self.extras)
        return out


def _decay_fit(
    kernel: np.ndarray, ts: np.ndarray, rs: np.ndarray, form: EnvelopeForm
) -> tuple[float, float, float]:
    """(minimax constant, least-squares slope, r^2) of the decay constant of
    ``form`` against the kernel values at (t, r): both fit
    y = -log(max(v, CLAMP) / prefactor) against the decay argument."""
    x = form.decay_argument(ts, rs)
    y = -np.log(np.maximum(kernel, CLAMP) / form.prefactor(ts))
    slope, r2 = _lsq_decay_fit(y, x)
    return _minimax_decay_constant(y, x), slope, r2


def _lsq_decay_fit(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x with intercept; returns (slope, r2)."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss if ss > 0 else 1.0
    return float(coef[0]), r2


def _minimax_decay_constant(y: np.ndarray, x: np.ndarray) -> float:
    """Constant c >= 0 minimizing max(y - c x) - min(y - c x): the tightest
    single-constant sandwich of exp(-c x) against the data."""
    def width(c: float) -> float:
        resid = y - c * x
        return float(resid.max() - resid.min())

    return _bounded_minimum(width, 0.0, DECAY_CONSTANT_CAP, xatol=1e-6)


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


def refinement_stability(coarse: BoundReport, fine: BoundReport) -> float:
    """Relative change of the fitted spread under grid refinement."""
    return abs(fine.spread - coarse.spread) / coarse.spread


def claim_entry(coarse: BoundReport, fine: BoundReport) -> dict:
    """The ``bounds.json`` entry of a claim: the fine report with its
    refinement stability from the coarse one.  The claim passes when the
    fine report passes and the stability is at most ``STABILITY_THRESHOLD``."""
    entry = fine.to_dict()
    entry["stability"] = refinement_stability(coarse, fine)
    entry["stability_pass"] = entry["stability"] <= STABILITY_THRESHOLD
    entry["pass"] = entry["pass"] and entry["stability_pass"]
    return entry


# ---------------------------------------------------------------------------
# Kernel assembly for the reflected-vs-free comparisons


@dataclass
class ReflectionStudy:
    """Folded kernel on ``K<<M>>`` plus the free-kernel window surrogate.

    The window walk reflected at level ``window`` plays the free kernel: by
    iterated folding it dominates the true free kernel from above, while the
    window walk killed at the outer corners dominates from below, so the pair
    brackets the truncation error.

    Report jobs on several threads may share a study: the distance matrix
    is built once, under the study's lock, and the killed kernel comes from
    the cache, whose lock builds it once.
    """

    system: FractalSystem
    M: int
    depth: int
    window: int
    folded: SpectralKernel
    window_kernel: SpectralKernel
    sub_indices: np.ndarray  # positions of folded-graph points in window graph
    cache: KernelCache
    _dirichlet: SpectralKernel | None = None
    _geodesic: np.ndarray | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @classmethod
    def build(
        cls, system: FractalSystem, M: int, depth: int, window: int, cache: KernelCache
    ) -> "ReflectionStudy":
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
            self._dirichlet = self.cache.kernel(self.system, self.window, self.depth, "dirichlet")
        return self._dirichlet

    def geodesic_distances(self) -> np.ndarray:
        """Intrinsic shortest-path metric of the folded graph; every edge has
        Euclidean length ``L^-depth``, so hop counts scale exactly."""
        with self._lock:
            if self._geodesic is None:
                hops = hop_distances(self.folded.graph.adjacency)
                self._geodesic = hops * float(self.system.L) ** (-self.depth)
            return self._geodesic

    def folded_matrix(self, t: float, spec: SubordinatorSpec):
        return self.folded.matrix(t, exponent=spec.laplace_exponent)

    def free_matrix(self, t: float, spec: SubordinatorSpec):
        """Free-kernel surrogate evaluated at the folded-graph points."""
        return self.window_kernel.matrix(
            t, rows=self.sub_indices, exponent=spec.laplace_exponent
        )

    def certifiable_mask(self) -> np.ndarray:
        """Folded-graph points at distance >= ``L^M / 4`` from every killed
        window corner.  The reflected and killed window kernels genuinely
        differ at the corners themselves (the killed one vanishes there), so
        the truncation certificate is only meaningful away from them."""
        radius = float(self.system.L) ** self.M / 4.0
        wgraph = self.window_kernel.graph
        corners = wgraph.coords[wgraph.corner_indices()]
        pts = self.folded.graph.coords
        d = np.sqrt(((pts[:, None, :] - corners[None, :, :]) ** 2).sum(axis=2))
        return d.min(axis=1) >= radius

    def truncation_bracket(self, spec: SubordinatorSpec, times, seed: int) -> float:
        """max (reflected - killed)/reflected over ``BRACKET_PAIRS`` seeded
        interior pairs per time: brackets the free-kernel surrogate error
        from both sides."""
        rng = np.random.default_rng(seed)
        ok = np.flatnonzero(self.certifiable_mask())
        if ok.size == 0:
            raise BoundError("no certifiable interior points for the bracket")
        killed = self.dirichlet()
        corners = killed.graph.corner_indices()
        expo = spec.laplace_exponent
        worst = 0.0
        for t in times:
            pairs = self.sub_indices[rng.choice(ok, size=(BRACKET_PAIRS, 2))]
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


def _flat_report(
    study: ReflectionStudy, spec: SubordinatorSpec, crossover: float, n_times: int,
    flat_span: float, pairs, pos,
) -> BoundReport:
    """The 'flat' report, shared by both kinds: the global min/max of
    max(folded, CLAMP) / level over (t, all folded pairs) on ``n_times``
    times from ``crossover`` to ``flat_span`` times it, streamed per t, with
    the plot samples at ``pairs``.

    The flat level is one scalar, and max(x, CLAMP) / level grows with x, so
    the extremes are those of the folded block, clamped and divided: the
    same bits as the ratio block they stand for."""
    times = log_time_grid(crossover, crossover * flat_span, n_times)
    level = form_for(study.system, "flat", M=study.M).flat_level
    scale = max(level, CLAMP)
    gmin, gmax, samples = np.inf, -np.inf, []
    for t in times:
        num = study.folded_matrix(t, spec)
        gmin = min(gmin, max(float(num.min()), CLAMP) / scale)
        gmax = max(gmax, max(float(num.max()), CLAMP) / scale)
        num_at = num.ravel()[pos]
        samples += _samples(
            t, pairs, num_at, np.full(len(pos), level), np.maximum(num_at, CLAMP) / scale
        )
        # free this time's block before the next time's is computed
        del num
    return BoundReport.of(
        study, spec, "flat", n_times, gmin, gmax, samples, {"crossover": crossover}
    )


def _near_pass(study: ReflectionStudy, spec: SubordinatorSpec, times, pairs, pos):
    """Global min/max of max(folded, CLAMP) / max(free, CLAMP) over (t, all
    folded pairs), streamed per t, with the plot samples at ``pairs``."""
    gmin, gmax, samples = np.inf, -np.inf, []
    for t in times:
        num = study.folded_matrix(t, spec)
        den = study.free_matrix(t, spec)
        num_at, den_at = num.ravel()[pos], den.ravel()[pos]
        # clamp in place; the ratio overwrites the folded block
        ratio = np.maximum(num, CLAMP, out=num)
        ratio /= np.maximum(den, CLAMP, out=den)
        gmin = min(gmin, float(ratio.min()))
        gmax = max(gmax, float(ratio.max()))
        samples += _samples(t, pairs, num_at, den_at, ratio.ravel()[pos])
        # free this time's blocks before the next time's are computed
        del num, den, ratio
    return gmin, gmax, samples


def _domination_pass(study: ReflectionStudy, spec: SubordinatorSpec, times, pairs, pos):
    """Largest free - folded over (t, all folded pairs), streamed per t, with
    the plot samples at ``pairs``.  Only the samples' ratios are clamped and
    divided; elementwise, they are the bits of the full ratio block."""
    gap, samples = -np.inf, []
    for t in times:
        num = study.folded_matrix(t, spec)
        den = study.free_matrix(t, spec)
        num_at, den_at = num.ravel()[pos], den.ravel()[pos]
        # the difference overwrites the free block
        gap = max(gap, float(np.subtract(den, num, out=den).max()))
        ratio_at = np.maximum(num_at, CLAMP) / np.maximum(den_at, CLAMP)
        samples += _samples(t, pairs, num_at, den_at, ratio_at)
        # free this time's blocks before the next time's are computed
        del num, den
    return gap, samples


def stable_comparison_reports(
    study: ReflectionStudy,
    alpha: float,
    *,
    n_times: int,
    flat_span: float,
    bracket_tol: float,
    seed: int,
) -> dict[str, BoundReport]:
    """Two-regime comparison for the stable-subordinate reflected kernel.

    'near' checks the folded/free ratio from ``T_MIN`` to below the
    crossover time ``L^(alpha M d_w)``; 'flat' checks the folded kernel
    against the constant level ``N^-M`` from the crossover onward.  A
    truncation bracket above ``bracket_tol`` raises ``KernelError``.
    """
    spec = SubordinatorSpec("stable", alpha)
    system = study.system
    crossover = float(system.L) ** (alpha * study.M * system.walk_dim)
    pairs, pos = _plot_pairs(len(study.sub_indices), seed)
    near_times = log_time_grid(T_MIN, crossover * 0.98, n_times)

    bracket = study.truncation_bracket(spec, [near_times[-1]], seed=seed)
    if bracket > bracket_tol:
        raise KernelError(
            f"free-kernel truncation bracket {bracket:.3f} exceeds {bracket_tol}; "
            f"increase the window level beyond {study.window}"
        )

    near_min, near_max, near_samples = _near_pass(study, spec, near_times, pairs, pos)
    near = BoundReport.of(
        study, spec, "near", n_times, near_min, near_max, near_samples,
        {"truncation_bracket": bracket, "crossover": crossover},
    )
    flat = _flat_report(study, spec, crossover, n_times, flat_span, pairs, pos)
    return {"near": near, "flat": flat}


def relativistic_comparison_reports(
    study: ReflectionStudy,
    alpha: float,
    m: float,
    *,
    n_times: int,
    flat_span: float,
    seed: int,
) -> dict[str, BoundReport]:
    """Flat-regime spread, pointwise lower domination (free <= folded +
    ``DOMINATION_TOL``), and the three sub-crossover regime forms for the
    relativistic reflected kernel.

    Regime forms are evaluated in the intrinsic metric (see the module
    docstring).  Each regime time grid computes one folded block per
    time (regimes 2 and 3 share theirs) and keeps the kernel min and max at
    each pair distance, a seeded subsample on which the minimax sandwich
    constant is fitted, and the plot-pair values.  The reported spread is
    the full-grid spread at that constant, read off the per-distance extremes.
    """
    spec = SubordinatorSpec("relativistic", alpha, m)
    system = study.system
    crossover = float(system.L) ** (study.M * system.walk_dim)
    pairs, pos = _plot_pairs(len(study.sub_indices), seed)
    reports = {"flat": _flat_report(study, spec, crossover, n_times, flat_span, pairs, pos)}

    # pointwise lower domination: free <= folded + tol below the crossover
    dom_times = log_time_grid(T_MIN, crossover * 0.98, n_times)
    worst_violation, dom_samples = _domination_pass(study, spec, dom_times, pairs, pos)
    reports["domination"] = BoundReport.of(
        study, spec, "domination", n_times,
        1.0, 1.0 if worst_violation <= DOMINATION_TOL else np.inf, dom_samples,
        {"max_violation": worst_violation, "tolerance": DOMINATION_TOL},
    )

    dist = study.geodesic_distances()
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
                take = min(len(pool), max(500, FIT_PAIRS // len(times)))
                sel = pool[rng.choice(len(pool), size=take, replace=False)]
                fit_draws[name].append((sel, flat[sel]))
            # free this time's block before the next time's is computed
            del block, flat, grouped
        for name, kind, keep in regimes:
            form = fitted_form = form_for(system, kind, alpha=alpha, M=study.M)
            extras: dict = {"metric": "geodesic"}
            if name in fit_draws:
                sel, vals = (np.concatenate(a) for a in zip(*fit_draws[name]))
                ts = np.repeat(times, len(sel) // len(times))
                c, extras["fit_slope"], extras["fit_r2"] = _decay_fit(
                    vals, ts, dist.ravel()[sel], form
                )
                if c > 0:
                    fitted_form = form.with_constant(c)
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
            reports[name] = BoundReport.of(
                study, spec, name, n_times,
                float((np.maximum(lo[:, cols], CLAMP) / shape).min()),
                float((np.maximum(hi[:, cols], CLAMP) / shape).max()),
                samples, extras,
                fitted_c=None if fitted_form is form else fitted_form.c,
            )

    if crossover > 1.0:
        regime1_times = log_time_grid(1.0, crossover * 0.98, n_times)
        add_regime_reports(regime1_times, [("regime1", "relativistic_regime_1", None)])
    far = levels >= 1.0
    sub_regimes = [("regime2", "relativistic_regime_2", far)] if far.any() else []
    add_regime_reports(
        log_time_grid(T_MIN, SUB_UNIT_END, n_times),
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
) -> SandwichReport:
    """Verify the time-window sandwich for the sub-Gaussian shape.

    Over ``SANDWICH_GRID`` values each of ``s in [c1, c2] * L^(M d_w)`` and
    ``r in [0, L^M]`` the quantity
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
    s_grid = np.linspace(c1 * lmdw, c2 * lmdw, SANDWICH_GRID)
    r_grid = np.linspace(0.0, lf**M, SANDWICH_GRID)
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
