"""Subordinate kernels: spectral mapping with an independent quadrature check.

Subordinating a walk with spectral decomposition ``g(t) = sum exp(-t l_k)
phi_k phi_k`` amounts to replacing the eigenvalue weights by
``exp(-t phi(l_k))``; this equals the time integral of the kernel against the
subordinator density by the Laplace-transform identity.  The quadrature route
checks that identity through different code: it integrates the heat kernel
against the density on the fixed Gauss-Legendre panels of the transform
check and never evaluates the Laplace exponent.  Its rule depends on the
time alone, so the cross-check builds one per distinct time and applies it
to every sampled pair at that time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelError, SpectralKernel
from .subordinators import SubordinatorSpec, _transform_panels


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


def subordinate_quadrature(
    kernel: SpectralKernel, spec: SubordinatorSpec, t: float, i, j
) -> float | np.ndarray:
    """``int g(u,x,y) eta_t(du)`` on Gauss-Legendre panels in log u, at the
    pairs ``(i, j)``: integer arrays broadcast together and give an array,
    scalar indices give a float.

    ``g - flat = sum_k c_k exp(-l_k u)`` over the modes that decay, so the
    panels are those of the transform at the slowest rate ``l_1``: the gap
    for conservative kernels, the bottom eigenvalue for killed ones.  They
    run to where ``exp(-l_1 u)`` underflows, so no tail is left over; the
    closure ``flat * 1`` is exact.  The rule (panels, density and
    ``exp(-u l_k)``) depends on ``t`` alone and is built once per call; each
    pair then takes its own matrix-vector product with it, so its value has
    the same bytes alone or within an array.
    """
    if t <= 0:
        raise KernelError(f"time must be positive, got {t}")
    flat = kernel.flat_value
    start = 1 if kernel.conservative else 0
    rates = kernel.eigenvalues[start:]
    i_arr, j_arr = np.broadcast_arrays(i, j)
    out = np.full(i_arr.shape, flat)
    if rates.size:
        u, w = _transform_panels(spec, t, [float(rates[0])])
        decay = np.exp(-np.multiply.outer(u, rates))
        wu, dens = w * u, spec.density(t, u)
        for k, (a, b) in enumerate(zip(i_arr.flat, j_arr.flat)):
            coeff = kernel.psi[a, start:] * kernel.psi[b, start:]
            coeff = coeff / (kernel.sqrt_mu[a] * kernel.sqrt_mu[b])
            out.flat[k] = flat + float(np.sum(wu * (decay @ coeff) * dens))
    return float(out) if out.ndim == 0 else out


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
    n_samples: int,
    seed: int,
) -> EquivalenceReport:
    """Spectral mapping vs quadrature on a seeded (t, x, y) sample.

    Every (t, x, y) is drawn first; then each distinct time, in order of
    first appearance, takes one ``kernel.value`` and one
    ``subordinate_quadrature`` call over its pairs.
    """
    if n_samples < 1:
        raise KernelError(f"need at least one sample, got {n_samples}")
    times = tuple(float(t) for t in times)
    if not times:
        raise KernelError("need at least one time")
    rng = np.random.default_rng(seed)
    n = kernel.n
    pairs: dict[float, list[tuple[int, int]]] = {}
    for k in range(n_samples):
        t = times[k % len(times)]
        pairs.setdefault(t, []).append((int(rng.integers(0, n)), int(rng.integers(0, n))))
    worst = 0.0
    for t, ij in pairs.items():
        i, j = np.array(ij).T
        direct = kernel.value(t, i, j, exponent=spec.laplace_exponent)
        quadval = subordinate_quadrature(kernel, spec, t, i, j)
        errors = np.abs(direct - quadval) / np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(errors.max()))
    return EquivalenceReport(
        spec=spec, max_rel_error=worst, n_samples=n_samples, times=times
    )
