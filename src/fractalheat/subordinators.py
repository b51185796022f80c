"""One-sided stable and relativistic stable subordinators.

The stable subordinator with index ``alpha`` has Laplace exponent
``lambda^alpha``; its density is evaluated through the closed form at
``alpha = 1/2`` and otherwise through Kanter's single-integral
representation over (0, pi), which is oscillation free:

    eta_1(x) = alpha/(1-alpha) * x^(-1/(1-alpha)) / pi
               * int_0^pi a(theta) exp(-a(theta) eps) dtheta,
    eps = x^(-alpha/(1-alpha)),

    a(theta) = sin((1-alpha) theta) sin(alpha theta)^(alpha/(1-alpha))
               / sin(theta)^(1/(1-alpha)),

with the self-similar scaling ``eta_t(s) = t^(-1/alpha) eta_1(s t^(-1/alpha))``.
The relativistic subordinator is the exponential tilt
``exp(-m^(1/alpha) s + m t) eta_t(s)``.

Every point of an array is evaluated in one pass and on its own, so a value
does not depend on the other points of the call.  a(theta) rises from a(0)
to infinity; safeguarded Newton on log a finds, for all points at once, where
a eps - a(0) eps reaches 1 (past the peak of the integrand) and 40 (past
which it is below rounding), and two fixed 64-node Gauss-Legendre panels
between 0 and those two angles integrate it to rounding.  Where
``eps < 0.2`` the peak is a thin layer next to pi and the convergent
large-argument series takes over.  The transform check and the
subordinate-kernel cross-check in ``subordinate.py`` integrate against the
density on the same Gauss-Legendre panels in log s, with one density call
per integral.  Adaptive scalar ``quad`` stays only in the tests, as an
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaln as _gammaln


def __getattr__(name: str):
    """``quad``, imported on first access (PEP 562).  Nothing here calls
    it, but the benchmark's tracer (``perfbench/layertrace.py``) reads and
    patches the name to count calls; importing ``scipy.integrate`` at module
    load would cost every run about 0.35 s.  Remove this once the tracer no
    longer patches ``quad``."""
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

_SERIES_EPS_SWITCH = 0.2
# the panels end where a(theta) eps - a(0) eps = 40: past it the integrand is
# below 5e-16 of its peak and falls faster than exponentially
_PANEL_DEPTH = 40.0
# Newton converges quadratically, so once its step is below 1e-6 the root is
# within about 1e-12 (3e-12 at most for alpha = 0.3 and 0.7), far finer than
# the panel ends need
_NEWTON_STEP_TOL = 1e-6
_SERIES_BLOCK = 64
_KANTER_CHUNK = 256
# 64-point Gauss-Legendre rule on [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS


def _gl_panels(lo, hi):
    """Nodes and weights, one row of 64 per Gauss-Legendre panel [lo, hi]."""
    width = (hi - lo)[:, None]
    return lo[:, None] + width * _GL_NODES, width * _GL_WEIGHTS


def _kanter_log_a(alpha: float, theta, sin_theta):
    """log of the integrand kernel a(theta) on (0, pi); callers near pi pass
    ``sin_theta`` as sin(pi - theta), which keeps its relative accuracy."""
    one = 1.0 - alpha
    return (
        np.log(np.sin(one * theta))
        + (alpha / one) * np.log(np.sin(alpha * theta))
        - (1.0 / one) * np.log(sin_theta)
    )


def _solve_log_a(alpha: float, target: np.ndarray) -> np.ndarray:
    """w = -log(pi - theta) where log a(theta) = target, elementwise.

    Newton in w.  With d = pi - theta = e^-w, the three sines of a(theta)
    are sin((1-alpha) pi - (1-alpha) d), sin(alpha pi - alpha d) and sin(d),
    each at full relative accuracy however close theta is to pi.  log a is
    increasing and convex in w and lies above both log a(0) + kappa theta^2
    and its asymptote (w + log sin(alpha pi)) / (1 - alpha) (checked on a
    fine grid for alpha in [0.01, 0.99]).  So each model's root lies right of
    the true one, and from the nearer of the two the iterates fall
    monotonically onto it.  No step moves more than halfway towards
    theta = 0, which keeps the iterates inside (0, pi) even where log a is
    flat.  Each element stops on its own once its step falls below
    _NEWTON_STEP_TOL, so its root does not depend on the other elements.
    """
    one = 1.0 - alpha
    ratio = alpha / one
    w_zero = -math.log(math.pi)
    kappa = (1.0 - one**3 - alpha**3) / (6.0 * one)
    theta_quad = np.sqrt((target - math.log(one * alpha**ratio)) / kappa)
    w = np.minimum(
        -np.log(math.pi - np.minimum(theta_quad, 3.0)),
        one * target - math.log(math.sin(math.pi * alpha)),
    )
    # log a of _kanter_log_a with its three angles (1-alpha) theta, alpha theta
    # and d stacked as rows, offset + per_d * d, so one sin and one tan pass
    # serve them all: log a = sum(log_weight * log sin(angle)) and
    # d log a / dw = d * sum(cot_weight * cot(angle))
    offset = np.array([[one * math.pi], [alpha * math.pi], [0.0]])
    per_d = np.array([[-one], [-alpha], [1.0]])
    log_weight = np.array([[1.0], [ratio], [-1.0 / one]])
    cot_weight = np.array([[one], [alpha * ratio], [1.0 / one]])
    moving = np.ones(w.shape, dtype=bool)
    for _ in range(100):
        d = np.exp(-w)
        angle = offset + per_d * d
        f = (log_weight * np.log(np.sin(angle))).sum(axis=0) - target
        slope = d * (cot_weight / np.tan(angle)).sum(axis=0)
        step = np.maximum(w - f / slope, 0.5 * (w + w_zero))
        moved = np.abs(step - w) >= _NEWTON_STEP_TOL
        w = np.where(moving, step, w)
        moving &= moved
        if not moving.any():
            return w
    raise SubordinatorError("Kanter panel search did not converge")  # pragma: no cover


def _kanter_density(alpha: float, x: np.ndarray) -> np.ndarray:
    """eta_1 at positive ``x`` by Kanter's integral on two Gauss-Legendre panels.

    With y = a(theta) eps rising from y0 = a(0) eps, the integrand
    y exp(-y) / eps peaks at y = max(1, y0).  The first panel runs in theta
    from 0 to y = y0 + 1, past the peak; the second runs in d = pi - theta
    on to y = y0 + _PANEL_DEPTH.  Each panel then sits a good part of its
    own length away from the singularity at theta = pi, for every alpha.
    """
    one = 1.0 - alpha
    ratio = alpha / one
    log_eps = -ratio * np.log(x)
    a0 = one * alpha**ratio
    inv_eps = np.exp(-log_eps)
    targets = np.log(a0 + np.concatenate([inv_eps, _PANEL_DEPTH * inv_eps]))
    d = np.exp(-_solve_log_a(alpha, targets))
    d_split, d_edge = d[: x.size], d[x.size :]
    # rows 0..n-1 hold theta on [0, pi - d_split], rows n..2n-1 hold d on
    # [d_edge, d_split]; sin(node) is sin(theta) on both
    nodes, weights = _gl_panels(
        np.concatenate([np.zeros_like(x), d_edge]),
        np.concatenate([math.pi - d_split, d_split]),
    )
    theta = np.concatenate([nodes[: x.size], math.pi - nodes[x.size :]])
    la = _kanter_log_a(alpha, theta, np.sin(nodes))
    le = np.concatenate([log_eps, log_eps])[:, None]
    panels = (np.exp(la - np.exp(la + le)) * weights).sum(axis=1)
    total = panels[: x.size] + panels[x.size :]
    return ratio / math.pi * x ** (-1.0 / one) * total


def stable_tail_series(alpha: float, x, terms: int | None = None):
    """Convergent large-argument series for eta_1:
    ``sum_k (-1)^(k+1) Gamma(alpha k + 1)/k! sin(pi k alpha) x^(-alpha k - 1) / pi``.

    By default each point sums until the sine-free bound on its terms drops
    below 1e-18 of its running sum (single sine factors can vanish long
    before the series has converged); with ``terms`` every point sums that
    many.  Raises where the largest term exceeds the sum by 1e10: there the
    series cancels.  Terms come in blocks of _SERIES_BLOCK per numpy pass,
    summed in order, so a point's sum does not depend on the other points.
    """
    x_arr = np.asarray(x, dtype=float)
    log_x = np.log(x_arr.reshape(-1))
    total = np.zeros_like(log_x)
    peak = np.zeros_like(log_x)
    todo = np.arange(log_x.size)
    n_terms = terms or 219
    for first in range(1, n_terms + 1, _SERIES_BLOCK):
        if not todo.size:
            break
        k = np.arange(first, min(first + _SERIES_BLOCK, n_terms + 1), dtype=float)
        k = k[:, None]
        log_mag = (
            _gammaln(alpha * k + 1.0)
            - _gammaln(k + 1.0)
            - (alpha * k + 1.0) * log_x[todo]
        )
        bound = np.exp(log_mag)
        term = (-1.0) ** (k + 1.0) * np.sin(math.pi * alpha * k) * bound
        # running[j] is the sum before the block's j-th term
        running = np.cumsum(np.vstack([total[todo], term]), axis=0)
        n_used = np.full(todo.size, len(k))
        if terms is None:
            stop = log_mag < -_EXP_UNDERFLOW
            stop |= (k > 4) & (bound < 1e-18 * np.maximum(np.abs(running[:-1]), 1e-300))
            ended = stop.any(axis=0)
            n_used[ended] = stop.argmax(axis=0)[ended]
        used = np.arange(len(k))[:, None] < n_used
        total[todo] = running[n_used, np.arange(todo.size)]
        block_peak = np.where(used, np.abs(term), 0.0).max(axis=0)
        peak[todo] = np.maximum(peak[todo], block_peak)
        if terms is None:
            todo = todo[~ended]
    if np.any(peak > 1e10 * np.maximum(np.abs(total), 1e-300)):  # pragma: no cover
        raise SubordinatorError("series cancellation; argument too small")
    total /= math.pi
    return total.reshape(x_arr.shape) if x_arr.ndim else float(total[0])


def stable_density_unit(alpha: float, x):
    """eta_1(x) for scalar or array ``x``: Kanter's integral, and the
    convergent series in the far tail where the integrand forms a thin layer;
    0 where ``x <= 0`` or the density underflows."""
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.reshape(-1)
    one = 1.0 - alpha
    ratio = alpha / one
    log_eps = np.full(flat.shape, np.inf)
    pos = flat > 0
    log_eps[pos] = -ratio * np.log(flat[pos])
    series = log_eps < math.log(_SERIES_EPS_SWITCH)
    # a exp(-a eps) <= exp(-a0 eps): underflow once a0 eps exceeds 745
    live = log_eps <= math.log(_EXP_UNDERFLOW / (one * alpha**ratio))
    kanter = np.flatnonzero(~series & live)
    out = np.zeros(flat.shape)
    if series.any():
        out[series] = stable_tail_series(alpha, flat[series])
    # the panels hold 128 nodes per point: chunks bound their memory
    for first in range(0, kanter.size, _KANTER_CHUNK):
        part = kanter[first : first + _KANTER_CHUNK]
        out[part] = _kanter_density(alpha, flat[part])
    return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])


def stable_density(alpha: float, t: float, s) -> float | np.ndarray:
    """Density eta_t(s) of the one-sided stable subordinator."""
    if not 0.0 < alpha < 1.0:
        raise SubordinatorError(f"alpha must be in (0,1), got {alpha}")
    if t <= 0:
        raise SubordinatorError(f"time must be positive, got {t}")
    s_arr = np.asarray(s, dtype=float)
    if (s_arr <= 0).any():
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
        out = scale * stable_density_unit(alpha, s_arr * scale)
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


def stable_tail_constant(alpha: float) -> float:
    """Limit of eta_1(u) u^(1+alpha): alpha / Gamma(1 - alpha)."""
    return alpha / _gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# Transform verification


def _transform_panels(spec: SubordinatorSpec, t: float, lam: float):
    """Nodes ``s`` and weights ``w`` for ``int h(s) eta_t(ds)`` where ``h(s)``
    is smooth and decays like ``exp(-lam s)``: the integral is
    ``sum(w * s * h(s) * eta_t(s))``.  Gauss-Legendre panels in log s, one
    row of 64 nodes per panel; no rows when the integrand underflows
    everywhere.

    The panels start where the density underflows and stop where
    ``exp(-(lambda + m^(1/alpha)) s)`` does; for ``lambda = 0`` on a stable
    spec they stop where the tail mass ``c t s^(-alpha) / alpha`` falls below
    1e-16.  They break at multiples of the scale ``t^(1/alpha)``, of the
    saddle of the tilted integrand and at ``1/lambda``, and none is wider
    than a decade.
    """
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
    u, w = _gl_panels(edges[:-1], edges[1:])
    return np.exp(u), w


def laplace_transform_numeric(spec: SubordinatorSpec, t: float, lam: float) -> float:
    """``int exp(-lambda s) eta_t(ds)`` on the panels of ``_transform_panels``,
    with one density call on all nodes."""
    if lam < 0:
        raise SubordinatorError("transform requires lambda >= 0")
    s, w = _transform_panels(spec, t, lam)
    return float(np.sum(w * s * np.exp(-lam * s) * spec.density(t, s)))


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
    dens = stable_density(alpha, t, us)
    ratio = dens * us ** (1.0 + alpha) / t
    within = (ratio >= limit / 2.0) & (ratio <= limit * 2.0)
    # the first index from which every later point is within
    outside = np.flatnonzero(~within)
    idx = outside[-1] + 1 if outside.size else 0
    if idx == len(us):
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

