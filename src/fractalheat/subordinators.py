"""One-sided stable and relativistic stable subordinators.

The stable subordinator with index ``alpha`` has Laplace exponent
``lambda^alpha``; its density is evaluated through the closed form at
``alpha = 1/2`` and otherwise through the classical single-integral
representation over (0, pi), which is oscillation free:

    eta_1(x) = alpha/(1-alpha) * x^(-1/(1-alpha)) / pi
               * int_0^pi a(theta) exp(-a(theta) x^(-alpha/(1-alpha))) dtheta,

    a(theta) = sin((1-alpha) theta) sin(alpha theta)^(alpha/(1-alpha))
               / sin(theta)^(1/(1-alpha)),

with the self-similar scaling ``eta_t(s) = t^(-1/alpha) eta_1(s t^(-1/alpha))``.
The relativistic subordinator is the exponential tilt
``exp(-m^(1/alpha) s + m t) eta_t(s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma as _gamma

QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-9, limit=200)
_EXP_UNDERFLOW = 745.0


class SubordinatorError(ValueError):
    pass


@dataclass(frozen=True)
class SubordinatorSpec:
    """stable(alpha) or relativistic(alpha, m)."""

    kind: str
    alpha: float
    m: float | None = None

    def __post_init__(self):
        if self.kind not in ("stable", "relativistic"):
            raise SubordinatorError(f"unknown subordinator kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise SubordinatorError(f"alpha must be in (0,1), got {self.alpha}")
        if self.kind == "relativistic":
            if self.m is None or self.m <= 0:
                raise SubordinatorError("relativistic subordinator needs m > 0")
        elif self.m is not None:
            raise SubordinatorError("stable subordinator takes no mass parameter")

    def label(self) -> str:
        if self.kind == "stable":
            return f"stable({self.alpha:g})"
        return f"relativistic({self.alpha:g},{self.m:g})"

    def laplace_exponent(self, lam):
        return laplace_exponent(self, lam)

    def density(self, t: float, s):
        if self.kind == "stable":
            return stable_density(self.alpha, t, s)
        return relativistic_density(self.alpha, self.m, t, s)


def laplace_exponent(spec: SubordinatorSpec, lam):
    """phi(lambda); increasing, concave, phi(0) = 0."""
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0):
        raise SubordinatorError("Laplace exponent requires lambda >= 0")
    if spec.kind == "stable":
        out = lam_arr**spec.alpha
    else:
        shift = spec.m ** (1.0 / spec.alpha)
        out = (lam_arr + shift) ** spec.alpha - spec.m
        out = np.where(lam_arr == 0.0, 0.0, out)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Stable density


def _kanter_log_a(alpha: float, theta):
    """log of the integrand kernel a(theta) on (0, pi)."""
    one = 1.0 - alpha
    return (
        np.log(np.sin(one * theta))
        + (alpha / one) * np.log(np.sin(alpha * theta))
        - (1.0 / one) * np.log(np.sin(theta))
    )


_SERIES_EPS_SWITCH = 0.2


def _unit_density_series(alpha: float, x: float) -> float:
    """Convergent large-argument series for eta_1; the terms decay
    super-geometrically once ``x^alpha`` exceeds one."""
    log_x = math.log(x)
    total = 0.0
    peak = 0.0
    for k in range(1, 220):
        log_mag = (
            math.lgamma(alpha * k + 1.0)
            - math.lgamma(k + 1.0)
            - (alpha * k + 1.0) * log_x
        )
        if log_mag < -_EXP_UNDERFLOW:
            break
        bound = math.exp(log_mag)
        # stopping rule uses the sine-free bound: individual sine factors can
        # vanish long before the series has converged
        if k > 4 and bound < 1e-18 * max(abs(total), 1e-300):
            break
        term = (-1.0) ** (k + 1) * math.sin(math.pi * k * alpha) * bound
        total += term
        peak = max(peak, abs(term))
    if peak > 1e10 * max(abs(total), 1e-300):  # pragma: no cover - guard
        raise SubordinatorError("series cancellation; argument too small")
    return total / math.pi


def stable_density_unit(alpha: float, x: float) -> float:
    """eta_1(x): integral representation, switching to the convergent
    series in the far tail where the integrand forms a thin layer."""
    if x <= 0:
        return 0.0
    one = 1.0 - alpha
    ratio = alpha / one
    eps = x**-ratio
    if eps < _SERIES_EPS_SWITCH:
        return _unit_density_series(alpha, x)
    log_eps = -ratio * math.log(x)
    a0 = one * alpha**ratio
    if math.log(a0) + log_eps > math.log(_EXP_UNDERFLOW):
        return 0.0
    log_thresh = math.log(_EXP_UNDERFLOW)

    def integrand(theta: float) -> float:
        if theta <= 0.0 or theta >= math.pi:
            return 0.0
        la = _kanter_log_a(alpha, theta)
        ae = la + log_eps
        if ae > log_thresh:
            return 0.0
        out = la - math.exp(ae)
        if out < -_EXP_UNDERFLOW:
            return 0.0
        return math.exp(out)

    # a(theta) increases from a0 to infinity; locate the boundary layer where
    # a(theta) * eps = 1 so the adaptive rule starts on the right scale
    points = None
    target = -log_eps
    if target > math.log(a0):
        lo, hi = 1e-12, math.pi - 1e-12
        f = lambda th: _kanter_log_a(alpha, th) - target
        if f(lo) < 0 < f(hi):
            theta_star = brentq(f, lo, hi, xtol=1e-14)
            # bracket the layer: a exp(-a eps) drops by e^-30 within a few
            # widths of theta*, so give the adaptive rule both shoulders
            points = [theta_star]
            hi2 = _kanter_layer_edge(alpha, target, theta_star)
            if hi2 is not None:
                points.append(hi2)
    integral, _ = quad(integrand, 0.0, math.pi, points=points, **QUAD_OPTS)
    return ratio / math.pi * x ** (-1.0 / one) * integral


def _kanter_layer_edge(alpha: float, target: float, theta_star: float) -> float | None:
    """theta where a(theta)*eps reaches e^34 past the layer (integrand dead)."""
    hi = math.pi - 1e-12
    if _kanter_log_a(alpha, hi) - target < 34.0:
        return None
    try:
        return brentq(
            lambda th: _kanter_log_a(alpha, th) - target - 34.0,
            theta_star,
            hi,
            xtol=1e-14,
        )
    except ValueError:  # pragma: no cover - defensive
        return None


def stable_density(alpha: float, t: float, s) -> float | np.ndarray:
    """Density eta_t(s) of the one-sided stable subordinator."""
    if not 0.0 < alpha < 1.0:
        raise SubordinatorError(f"alpha must be in (0,1), got {alpha}")
    if t <= 0:
        raise SubordinatorError(f"time must be positive, got {t}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise SubordinatorError("density argument s must be positive")
    if alpha == 0.5:
        out = (
            t
            / (2.0 * math.sqrt(math.pi))
            * s_arr**-1.5
            * np.exp(-(t * t) / (4.0 * s_arr))
        )
    else:
        scale = t ** (-1.0 / alpha)
        flat = np.atleast_1d(s_arr * scale)
        vals = np.array([stable_density_unit(alpha, float(v)) for v in flat])
        out = scale * vals.reshape(np.shape(s_arr))
    return out if np.ndim(s) else float(out)


def relativistic_density(alpha: float, m: float, t: float, s) -> float | np.ndarray:
    """Exponentially tilted stable density; integrates to one."""
    if m <= 0:
        raise SubordinatorError(f"mass parameter must be positive, got {m}")
    s_arr = np.asarray(s, dtype=float)
    base = stable_density(alpha, t, s_arr)
    tilt_log = -(m ** (1.0 / alpha)) * s_arr + m * t
    out = np.where(tilt_log < -_EXP_UNDERFLOW, 0.0, np.exp(tilt_log)) * base
    return out if np.ndim(s) else float(out)


def stable_tail_series(alpha: float, x, terms: int = 12):
    """Convergent large-argument series for eta_1 (independent oracle):
    ``sum_k (-1)^(k+1) Gamma(alpha k + 1)/k! sin(pi k alpha) x^(-alpha k - 1) / pi``.
    """
    x_arr = np.asarray(x, dtype=float)
    total = np.zeros_like(x_arr)
    for k in range(1, terms + 1):
        term = (
            (-1) ** (k + 1)
            * _gamma(alpha * k + 1.0)
            / math.factorial(k)
            * math.sin(math.pi * k * alpha)
            * x_arr ** (-alpha * k - 1.0)
        )
        total += term
    total /= math.pi
    return total if np.ndim(x) else float(total)


def stable_tail_constant(alpha: float) -> float:
    """Limit of eta_1(u) u^(1+alpha): alpha / Gamma(1 - alpha)."""
    return alpha / _gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# Transform verification


def laplace_transform_numeric(spec: SubordinatorSpec, t: float, lam: float) -> float:
    """Quadrature of ``int exp(-lambda s) eta_t(ds)`` with saddle-aware splits."""
    if lam < 0:
        raise SubordinatorError("transform requires lambda >= 0")
    alpha = spec.alpha

    def f(s: float) -> float:
        if s <= 0:
            return 0.0
        dens = spec.density(t, s)
        if dens == 0.0:
            return 0.0
        e = lam * s
        if e > _EXP_UNDERFLOW:
            return 0.0
        return math.exp(-e) * dens

    scale = t ** (1.0 / alpha)
    breaks = {scale * q for q in (0.01, 0.1, 1.0, 10.0)}
    if lam > 0:
        saddle = t * alpha * lam ** (alpha - 1.0)
        if spec.kind == "relativistic":
            shift = spec.m ** (1.0 / spec.alpha)
            saddle = t * alpha * (lam + shift) ** (alpha - 1.0)
        breaks.update({saddle * q for q in (0.1, 1.0, 10.0)})
        breaks.add(1.0 / lam)
    cut = max(breaks) * 10.0
    pts = sorted(b for b in breaks if 0.0 < b < cut)
    total = 0.0
    lo = 0.0
    for b in pts + [cut]:
        total += quad(f, lo, b, **QUAD_OPTS)[0]
        lo = b
    return total + quad(f, cut, np.inf, **QUAD_OPTS)[0]


@dataclass(frozen=True)
class TailFit:
    """Empirical constants for ``eta_t(u) ~ c t u^(-1-alpha)`` in the tail."""

    c_lower: float
    c_upper: float
    u0: float
    limit: float

    @property
    def finite(self) -> bool:
        return (
            math.isfinite(self.c_lower)
            and math.isfinite(self.c_upper)
            and self.c_lower > 0
        )


@dataclass(frozen=True)
class DensityVerification:
    spec: SubordinatorSpec
    max_rel_transform_error: float
    t_values: tuple[float, ...]
    lam_grid: tuple[float, ...]
    tails: tuple[TailFit, ...]


def fit_tail_constants(
    spec: SubordinatorSpec, t: float, n_grid: int = 40, decades: float = 5.0
) -> TailFit:
    """Fit sup/inf of ``eta_t(u) u^(1+alpha) / t`` beyond an empirical
    threshold ``u0 t^(1/alpha)``; the threshold is the first grid point from
    which the ratio stays within a factor two of its limit."""
    alpha = spec.alpha
    limit = stable_tail_constant(alpha)
    scale = t ** (1.0 / alpha)
    us = scale * np.logspace(-0.5, decades, n_grid)
    # the stable density even for a relativistic spec: the tilt destroys the
    # polynomial tail, and the bound cites the underlying stable one
    dens = np.array([stable_density(alpha, t, float(u)) for u in us])
    ratio = dens * us ** (1.0 + alpha) / t
    within = (ratio >= limit / 2.0) & (ratio <= limit * 2.0)
    idx = None
    for k in range(len(us)):
        if within[k:].all():
            idx = k
            break
    if idx is None:
        return TailFit(float("nan"), float("inf"), float("inf"), limit)
    tail_ratio = ratio[idx:]
    return TailFit(
        c_lower=float(tail_ratio.min()),
        c_upper=float(tail_ratio.max()),
        u0=float(us[idx] / scale),
        limit=limit,
    )


def verify_density(
    spec: SubordinatorSpec,
    t_values=(0.5, 1.0, 2.0),
    lam_grid=None,
) -> DensityVerification:
    """Transform-identity check plus tail-constant report.

    Compares the quadrature transform of the density against
    ``exp(-t phi(lambda))`` over the grid and fits the polynomial-tail
    constants of the underlying stable density.
    """
    if lam_grid is None:
        lam_grid = np.logspace(-3, 3, 13)
    lam_grid = tuple(float(l) for l in lam_grid)
    if any(l <= 0 for l in lam_grid):
        raise SubordinatorError("lambda grid must be positive")
    worst = 0.0
    for t in t_values:
        for lam in lam_grid:
            numeric = laplace_transform_numeric(spec, t, lam)
            exact = math.exp(-t * laplace_exponent(spec, lam))
            worst = max(worst, abs(numeric - exact) / exact)
    tails = tuple(fit_tail_constants(spec, t) for t in t_values)
    return DensityVerification(
        spec=spec,
        max_rel_transform_error=worst,
        t_values=tuple(float(t) for t in t_values),
        lam_grid=lam_grid,
        tails=tails,
    )


def stable_quantile(alpha: float, t: float, p: float) -> float:
    """Quantile of eta_t by bisection on the integrated density."""
    if not 0.0 < p < 1.0:
        raise SubordinatorError("quantile level must be in (0,1)")
    scale = t ** (1.0 / alpha)

    def cdf(u: float) -> float:
        val, _ = quad(
            lambda s: stable_density(alpha, t, s), 0.0, u,
            points=[min(u / 2.0, scale)], **QUAD_OPTS
        )
        return val

    lo, hi = scale * 1e-3, scale * 10.0
    while cdf(hi) < p:
        hi *= 10.0
        if hi > scale * 1e18:
            raise SubordinatorError("quantile search diverged")
    return brentq(lambda u: cdf(u) - p, lo, hi, xtol=1e-12 * scale)
