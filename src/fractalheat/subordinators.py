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
which it is below rounding).  Two fixed Gauss-Legendre panels integrate it,
64 nodes from 0 to the first angle and 32 from there to the second, where
the integrand only decays; each is evaluated in place in one work array.
The factor x^(-1/(1-alpha)) goes into the integrand's exponent, so the
integral is never a subnormal float where the density is a normal one.
Against 256-node panels, from the underflow edge to the series switch and
wherever the density is a normal float, the largest relative error is
1.7e-13 at alpha = 1/2, at most 9.1e-12 for alpha in [0.05, 0.99] and
4.3e-10 at alpha = 0.02, as with 64 nodes on both panels.  Where
``eps < 0.2`` the peak is a thin layer next to pi and the convergent
large-argument series takes over.  The transform check and the
subordinate-kernel cross-check in ``subordinate.py`` integrate against the
density on the same Gauss-Legendre panels in log s, with one density call
per time: the transform check shares one panel set over its lambda grid,
and the cross-check builds one rule per time for all of its pairs.  Since
a node's density does not depend on the other nodes of the call, a node
the shared panels have in common with one lambda's own gets the same value
either way.  Adaptive scalar ``quad`` stays only in the tests, as an
independent reference.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


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
            if self.m is None or not 0 < self.m < math.inf:
                raise SubordinatorError(f"relativistic needs a finite m > 0, got {self.m}")
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
# terms per series pass; the sum and the stop are the same for any block, and
# 16 computes fewer terms past each point's stop than 64 did (in under half the
# time)
_SERIES_BLOCK = 16
_KANTER_CHUNK = 256
# 64-point Gauss-Legendre rule on [0, 1]: the transform panels and Kanter's
# first panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS
# 32-point rule on [0, 1]: Kanter's second panel, where the integrand only
# decays; against 256-node panels it keeps the 64/64 error at every alpha
_GL32_NODES, _GL32_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL32_NODES, _GL32_WEIGHTS = 0.5 * (1.0 + _GL32_NODES), 0.5 * _GL32_WEIGHTS


def _gl_panels(lo, hi):
    """Nodes and weights, one row of 64 per Gauss-Legendre panel [lo, hi]."""
    width = (hi - lo)[:, None]
    return lo[:, None] + width * _GL_NODES, width * _GL_WEIGHTS


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
    # log a(theta) with its three angles (1-alpha) theta, alpha theta
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


def _kanter_panel(alpha: float, log_eps, log_c, lo, hi, gl_nodes, gl_weights, near_pi: bool):
    """Each point's sum of ``w c a(theta) exp(-a(theta) eps)`` over its own
    Gauss-Legendre panel [lo, hi] (``gl_nodes`` and ``gl_weights`` on
    [0, 1]), in theta, or with ``near_pi`` in d = pi - theta.  The integrand
    is evaluated in place in one work array of three (points x nodes) planes:
    log a = log sin((1-alpha) theta) + alpha/(1-alpha) log sin(alpha theta)
    - 1/(1-alpha) log sin(theta), summed in that order.  Near pi, sin(theta)
    is taken as sin(d), which keeps its relative accuracy."""
    one = 1.0 - alpha
    node, la, tmp = np.empty((3, lo.size, gl_nodes.size))
    width = (hi - lo)[:, None]
    np.multiply(width, gl_nodes, out=node)
    node += lo[:, None]
    # -(1/(1-alpha)) log sin(theta), with sin(theta) = sin(node) on both panels
    np.sin(node, out=tmp)
    np.log(tmp, out=tmp)
    tmp *= 1.0 / one
    theta = np.subtract(math.pi, node, out=node) if near_pi else node
    np.multiply(one, theta, out=la)
    np.sin(la, out=la)
    np.log(la, out=la)
    theta *= alpha
    np.sin(theta, out=theta)
    np.log(theta, out=theta)
    theta *= alpha / one
    la += theta
    la -= tmp
    # la is log a(theta); the integrand is exp(la - exp(la + log eps) + log c) w
    np.add(la, log_eps[:, None], out=tmp)
    np.exp(tmp, out=tmp)
    np.subtract(la, tmp, out=tmp)
    tmp += log_c[:, None]
    np.exp(tmp, out=tmp)
    tmp *= np.multiply(width, gl_weights, out=node)
    return tmp.sum(axis=1)


def _kanter_density(alpha: float, x: np.ndarray) -> np.ndarray:
    """eta_1 at positive ``x`` by Kanter's integral on two Gauss-Legendre panels.

    With y = a(theta) eps rising from y0 = a(0) eps, the integrand
    y exp(-y) / eps peaks at y = max(1, y0).  The first panel runs in theta
    from 0 to y = y0 + 1, past the peak; the second runs in d = pi - theta
    on to y = y0 + _PANEL_DEPTH.  Each panel then sits a good part of its
    own length away from the singularity at theta = pi, for every alpha.
    The first panel has 64 nodes, the second 32.
    """
    one = 1.0 - alpha
    ratio = alpha / one
    log_x = np.log(x)
    log_eps = -ratio * log_x
    log_c = -log_x / one  # log x^(-1/(1-alpha))
    a0 = one * alpha**ratio
    inv_eps = np.exp(-log_eps)
    targets = np.log(a0 + np.concatenate([inv_eps, _PANEL_DEPTH * inv_eps]))
    d = np.exp(-_solve_log_a(alpha, targets))
    d_split, d_edge = d[: x.size], d[x.size :]
    panel = functools.partial(_kanter_panel, alpha, log_eps, log_c)
    total = panel(np.zeros_like(x), math.pi - d_split, _GL_NODES, _GL_WEIGHTS, False)
    total += panel(d_edge, d_split, _GL32_NODES, _GL32_WEIGHTS, True)
    return ratio / math.pi * total


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
        # log Gamma(alpha k + 1) - log k!: the same for every point
        log_coef = [math.lgamma(alpha * j + 1.0) - math.lgamma(j + 1.0) for j in k.tolist()]
        k = k[:, None]
        log_mag = np.array(log_coef)[:, None] - (alpha * k + 1.0) * log_x[todo]
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
    # the panels hold 96 nodes per point: chunks bound their memory
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
    return alpha / math.gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# Transform verification


def _transform_panels(spec: SubordinatorSpec, t: float, lams):
    """Nodes ``s`` and weights ``w`` for ``int h(s) eta_t(ds)`` where ``h(s)``
    is smooth and decays like ``exp(-lam s)``, for every ``lam`` of ``lams``
    at once: each integral is ``sum(w * s * h(s) * eta_t(s))``.
    Gauss-Legendre panels in log s, one row of 64 nodes per panel; no rows
    when the integrand underflows everywhere.

    The panels start where the density underflows and stop where
    ``exp(-(lambda + m^(1/alpha)) s)`` does for the smallest lambda; for
    ``lambda = 0`` on a stable spec they stop where the tail mass
    ``c t s^(-alpha) / alpha`` falls below 1e-16.  They break at multiples of
    the scale ``t^(1/alpha)``, and for each lambda at multiples of the
    saddle of its tilted integrand and at ``1/lambda``; none is wider than a
    decade.  So the shared panels refine each lambda's own, and past a
    lambda's own upper end its integrand is at the underflow level.  With one
    lambda they are that lambda's panels.
    """
    alpha = spec.alpha
    ratio = alpha / (1.0 - alpha)
    scale = t ** (1.0 / alpha)
    shift = spec.m ** (1.0 / alpha) if spec.kind == "relativistic" else 0.0
    lo = scale * (_EXP_UNDERFLOW / ((1.0 - alpha) * alpha**ratio)) ** (-1.0 / ratio)
    hi = -math.inf
    breaks = {scale * q for q in (0.01, 0.1, 1.0, 10.0)}
    for lam in lams:
        if lam + shift > 0:
            hi = max(hi, _EXP_UNDERFLOW / (lam + shift))
        else:
            hi = max(hi, scale * (stable_tail_constant(alpha) / (alpha * 1e-16)) ** (1.0 / alpha))
        if lam > 0:
            saddle = t * alpha * (lam + shift) ** (alpha - 1.0)
            breaks.update({saddle * q for q in (0.1, 1.0, 10.0)})
            breaks.add(1.0 / lam)
    if hi <= lo:
        return np.empty((0, _GL_NODES.size)), np.empty((0, _GL_NODES.size))
    cuts = np.log([lo] + sorted(b for b in breaks if lo < b < hi) + [hi])
    edges = [cuts[:1]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges.append(np.linspace(a, b, math.ceil((b - a) / math.log(10.0)) + 1)[1:])
    edges = np.concatenate(edges)
    u, w = _gl_panels(edges[:-1], edges[1:])
    return np.exp(u), w


def laplace_transform_numeric(spec: SubordinatorSpec, t: float, lam) -> float | np.ndarray:
    """``int exp(-lambda s) eta_t(ds)`` for a float ``lam`` (a float back)
    or a 1-D array of them (an array back), on the panels of
    ``_transform_panels`` with one density call on all nodes.  Each lambda
    sums ``((w * s) * exp(-lambda s)) * eta_t(s)`` over the shared nodes; a
    float or a one-element array gets exactly its own panels."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise SubordinatorError("transform takes a float or a 1-D array of lambda")
    if not np.all(lams >= 0):  # NaN fails too
        raise SubordinatorError("transform requires lambda >= 0")
    lam_list = lams.reshape(-1).tolist()
    s, w = _transform_panels(spec, t, lam_list)
    ws, dens = w * s, spec.density(t, s)
    out = np.array([np.sum(ws * np.exp(-l * s) * dens) for l in lam_list])
    return float(out[0]) if lams.ndim == 0 else out


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


# a run's cross-check times, and the transform check's default (no run calls it)
CHECK_TIMES = (0.5, 1.0, 2.0)


def verify_density(
    spec: SubordinatorSpec,
    t_values=CHECK_TIMES,
    lam_grid=None,
) -> DensityVerification:
    """Transform-identity check plus tail-constant report.

    Compares the quadrature transform of the density against
    ``exp(-t phi(lambda))`` over the grid, one ``laplace_transform_numeric``
    call (so one density call) per time, and fits the polynomial-tail
    constants of the underlying stable density.

    A grid can be measured where every exact value is a normal float, that
    is ``t phi(lambda)`` below about 708: past it ``exp(-t phi(lambda))`` is
    subnormal or 0, and a relative error against it means nothing.  Every
    (t, lambda) is checked before any quadrature, and the first one past it
    raises ``SubordinatorError``, as does an empty ``t_values`` or
    ``lam_grid`` or a time or lambda that is not positive (NaN included).
    """
    if lam_grid is None:
        lam_grid = np.logspace(-3, 3, 13)
    lam_grid = tuple(float(l) for l in lam_grid)
    t_values = tuple(float(t) for t in t_values)
    if not lam_grid or not t_values:
        raise SubordinatorError("transform check needs at least one time and one lambda")
    if not all(l > 0 for l in lam_grid):  # NaN fails too
        raise SubordinatorError("lambda grid must be positive")
    if not all(t > 0 for t in t_values):
        raise SubordinatorError("times must be positive")
    exact = [[math.exp(-t * laplace_exponent(spec, lam)) for lam in lam_grid] for t in t_values]
    for t, row in zip(t_values, exact):
        for lam, value in zip(lam_grid, row):
            if value < sys.float_info.min:
                raise SubordinatorError(
                    f"exp(-t phi(lambda)) underflows at t = {t:g}, lambda = {lam:g}: "
                    f"t phi(lambda) = {t * laplace_exponent(spec, lam):.6g}"
                )
    worst = 0.0
    for t, row in zip(t_values, exact):
        numeric = laplace_transform_numeric(spec, t, np.array(lam_grid))
        for value, ref in zip(numeric.tolist(), row):
            worst = max(worst, abs(value - ref) / ref)
    tails = tuple(fit_tail_constants(spec, t) for t in t_values)
    return DensityVerification(
        spec=spec,
        max_rel_transform_error=worst,
        t_values=t_values,
        lam_grid=lam_grid,
        tails=tails,
    )
