"""Subordinate kernels: spectral mapping with an independent quadrature check.

Subordinating a walk with spectral decomposition ``g(t) = sum exp(-t l_k)
phi_k phi_k`` amounts to replacing the eigenvalue weights by
``exp(-t phi(l_k))``; this equals the time integral of the kernel against the
subordinator density by the Laplace-transform identity, which the quadrature
route verifies through entirely different code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .kernels import KernelError, SpectralKernel
from .subordinators import QUAD_OPTS, SubordinatorSpec


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    split_point: float


def subordinate_quadrature(
    kernel: SpectralKernel,
    spec: SubordinatorSpec,
    t: float,
    i: int,
    j: int,
    rel_tol: float = 1e-9,
) -> QuadratureResult:
    """``int g(u,x,y) eta_t(du)`` by adaptive quadrature.

    The kernel is flat beyond ``U`` (set by the spectral gap), so the
    integral is split as a core integral of ``g - flat`` against the density
    plus the exact closure ``flat * 1``; the discarded remainder is bounded by
    the spectral gap and reported in the error estimate.
    """
    if t <= 0:
        raise KernelError(f"time must be positive, got {t}")
    flat = kernel.flat_value
    # slowest decay of g - flat: the gap for conservative kernels, the bottom
    # eigenvalue for killed ones
    start = 1 if kernel.conservative else 0
    lam1 = float(kernel.eigenvalues[start]) if kernel.n > start else np.inf
    amp = float(
        np.abs(kernel.psi[i, start:] * kernel.psi[j, start:]).sum()
        / (kernel.sqrt_mu[i] * kernel.sqrt_mu[j])
    )
    if amp == 0.0:
        return QuadratureResult(value=flat, error_estimate=0.0, split_point=0.0)
    floor = max(flat, amp) * 1e-15
    u_split = math.log(max(amp / floor, 2.0)) / lam1

    def integrand(u: float) -> float:
        if u <= 0:
            return 0.0
        dens = spec.density(t, u)
        if dens == 0.0:
            return 0.0
        return (kernel.value(u, i, j) - flat) * dens

    scale = t ** (1.0 / spec.alpha)
    breaks = sorted(
        {b for b in (scale * 0.01, scale * 0.1, scale, u_split / 10.0) if 0 < b < u_split}
    )
    total = 0.0
    err = 0.0
    lo = 0.0
    for b in breaks + [u_split]:
        val, e = quad(integrand, lo, b, **QUAD_OPTS)
        total += val
        err += e
        lo = b
    # tail remainder bound: |g - flat| <= amp * exp(-lam1 u) beyond the split
    tail_bound = amp * math.exp(-lam1 * u_split)
    return QuadratureResult(
        value=total + flat,
        error_estimate=err + tail_bound,
        split_point=u_split,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    spec: SubordinatorSpec
    max_rel_error: float
    n_samples: int
    times: tuple[float, ...]


def crosscheck_subordination(
    kernel: SpectralKernel,
    spec: SubordinatorSpec,
    times,
    n_samples: int = 20,
    seed: int = 0,
) -> EquivalenceReport:
    """Spectral mapping vs quadrature on a seeded (t, x, y) sample."""
    rng = np.random.default_rng(seed)
    n = kernel.n
    times = tuple(float(t) for t in times)
    worst = 0.0
    for k in range(n_samples):
        t = times[k % len(times)]
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        direct = kernel.value(t, i, j, exponent=spec.laplace_exponent)
        quadval = subordinate_quadrature(kernel, spec, t, i, j).value
        worst = max(worst, abs(direct - quadval) / max(abs(direct), 1e-300))
    return EquivalenceReport(
        spec=spec, max_rel_error=worst, n_samples=n_samples, times=times
    )
