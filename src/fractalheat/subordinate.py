"""Subordinate kernels: spectral mapping with an independent quadrature check.

Subordinating a walk with spectral decomposition ``g(t) = sum exp(-t l_k)
phi_k phi_k`` amounts to replacing the eigenvalue weights by
``exp(-t phi(l_k))``; this equals the time integral of the kernel against the
subordinator density by the Laplace-transform identity.  The quadrature route
checks that identity through different code: it integrates the heat kernel
against the density on the fixed Gauss-Legendre panels of the transform
check and never evaluates the Laplace exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# not called here: perfbench/layertrace.py patches this name to count calls,
# and a traced operation raises when the name is missing
from scipy.integrate import quad  # noqa: F401

from .kernels import KernelError, SpectralKernel
from .subordinators import SubordinatorSpec, _transform_panels


def subordinate_quadrature(
    kernel: SpectralKernel, spec: SubordinatorSpec, t: float, i: int, j: int
) -> float:
    """``int g(u,x,y) eta_t(du)`` on Gauss-Legendre panels in log u.

    ``g - flat = sum_k c_k exp(-l_k u)`` over the modes that decay, so the
    panels are those of the transform at the slowest rate ``l_1``: the gap
    for conservative kernels, the bottom eigenvalue for killed ones.  They
    run to where ``exp(-l_1 u)`` underflows, so no tail is left over; the
    closure ``flat * 1`` is exact.
    """
    if t <= 0:
        raise KernelError(f"time must be positive, got {t}")
    flat = kernel.flat_value
    start = 1 if kernel.conservative else 0
    rates = kernel.eigenvalues[start:]
    if not rates.size:
        return flat
    coeff = kernel.psi[i, start:] * kernel.psi[j, start:]
    coeff = coeff / (kernel.sqrt_mu[i] * kernel.sqrt_mu[j])
    u, w = _transform_panels(spec, t, float(rates[0]))
    excess = np.exp(-np.multiply.outer(u, rates)) @ coeff
    return flat + float(np.sum(w * u * excess * spec.density(t, u)))


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
    if n_samples < 1:
        raise KernelError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    n = kernel.n
    times = tuple(float(t) for t in times)
    worst = 0.0
    for k in range(n_samples):
        t = times[k % len(times)]
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        direct = kernel.value(t, i, j, exponent=spec.laplace_exponent)
        quadval = subordinate_quadrature(kernel, spec, t, i, j)
        worst = max(worst, abs(direct - quadval) / max(abs(direct), 1e-300))
    return EquivalenceReport(
        spec=spec, max_rel_error=worst, n_samples=n_samples, times=times
    )
