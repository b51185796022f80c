"""Transition densities on fractal vertex graphs via spectral decomposition.

The generator of the approximating walk jumps along every edge of a level-n
graph at rate ``L^(walk_dim * n) / m(x)``, where ``m(x)`` is the number of
cells incident to ``x``.  Dividing by ``m`` makes the generator self-adjoint
with respect to the vertex measure, and the ``L^(d_w n)`` clock makes
kernels at different depths approximate one continuum object: densities obey
``g(t,x,y) = L^d * g(L^(d_w) t, L x, L y)`` exactly across matched graphs.

Densities are always taken with respect to the vertex measure, so the
long-time limit on ``K<<M>>`` is ``N^-M``.

Positivity: spectral evaluation can produce negatives of order -1e-13
(eigendecomposition noise) at very short times; on the gasket the kernel is
strictly positive from ``t_min(M) = 0.01 * L^(M d_w)`` on for depths up to 6.
Ratio statistics elsewhere clamp at 1e-14; raw tables are never clamped.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .geometry import FractalSystem, VertexGraph, build_vertex_graph
from .labeling import LabelMap

# exp(-60) ~ 9e-27: dropping spectral terms beyond this leaves reconstruction
# errors far below every declared tolerance
_TRUNCATION_EXPONENT = 60.0


class KernelError(RuntimeError):
    pass


@dataclass
class Generator:
    """Continuous-time walk generator on a vertex graph."""

    graph: VertexGraph
    walk_dim: float
    rate_scale: float
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_generator(graph: VertexGraph, walk_dim: float | None = None) -> Generator:
    """Edge-uniform jump rates scaled by ``L^(d_w * depth)``, symmetrized
    against the vertex measure (detailed balance holds exactly)."""
    if not graph.is_connected():
        raise KernelError("generator requires a connected graph")
    if walk_dim is None:
        walk_dim = graph.system.walk_dim
    lam = float(graph.system.L) ** (walk_dim * graph.depth)
    n = graph.n_vertices
    q = np.zeros((n, n))
    inc = np.asarray(graph.incident, dtype=float)
    for u, v in graph.edges:
        q[u, v] = lam / inc[u]
        q[v, u] = lam / inc[v]
    np.fill_diagonal(q, 0.0)
    q[np.arange(n), np.arange(n)] = -q.sum(axis=1)
    return Generator(graph=graph, walk_dim=walk_dim, rate_scale=lam, matrix=q)


@dataclass
class SpectralKernel:
    """Eigendecomposition of a generator; evaluates any spectral function.

    ``g(t,x,y) = sum_k w_k(t) phi_k(x) phi_k(y)`` with ``phi_k`` orthonormal
    in L^2(measure) and weights ``w_k = exp(-t lambda_k)`` for the heat
    kernel or ``exp(-t phi(lambda_k))`` after subordination.
    """

    graph: VertexGraph
    eigenvalues: np.ndarray  # ascending, eigenvalues[0] == 0 for conservative
    psi: np.ndarray  # counting-measure orthonormal eigenvectors (columns)
    mu: np.ndarray
    conservative: bool = True
    index_map: np.ndarray | None = None  # rows of `graph` kept (killed kernels)

    def __post_init__(self):
        self.sqrt_mu = np.sqrt(self.mu)
        self._psi_dot_mu = self.psi.T @ (self.sqrt_mu)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def flat_value(self) -> float:
        """Long-time limit 1/mu(total) for conservative kernels."""
        if not self.conservative:
            return 0.0
        return 1.0 / float(self.mu.sum())

    @property
    def spectral_gap(self) -> float:
        return float(self.eigenvalues[1]) if self.n > 1 else np.inf

    def weights(self, t: float, exponent=None) -> np.ndarray:
        """``exp(-t * f(lambda))`` truncated where the factor is negligible."""
        if t <= 0:
            raise KernelError(f"time must be positive, got {t}")
        rates = self.eigenvalues if exponent is None else exponent(self.eigenvalues)
        out = np.zeros_like(rates)
        keep = t * rates <= _TRUNCATION_EXPONENT
        out[keep] = np.exp(-t * rates[keep])
        return out

    def matrix(self, t: float, rows=None, exponent=None) -> np.ndarray:
        """Dense kernel block over all vertices, or over ``rows`` on both
        axes; exactly symmetric."""
        w = self.weights(t, exponent)
        keep = w > 0
        psi, s = self.psi, self.sqrt_mu
        if rows is not None:  # scale only the rows the block keeps
            psi, s = psi[rows], s[rows]
        z = psi[:, keep] * np.sqrt(w[keep])
        g = np.triu(z @ z.T)
        g = g + np.triu(g, 1).T
        return g / np.outer(s, s)

    def value(self, t: float, i, j, exponent=None):
        """Kernel values at the pairs ``(i, j)``: integer arrays broadcast
        together and give an array, scalar indices give a float."""
        w = self.weights(t, exponent)
        # one (1 x m) @ (m x 1) product per pair, so a pair's value has the
        # same bytes whether it is asked for alone or within an array
        dot = np.matmul((self.psi[i] * w)[..., None, :], self.psi[j][..., :, None])
        g = dot[..., 0, 0] / (self.sqrt_mu[i] * self.sqrt_mu[j])
        return float(g) if np.ndim(g) == 0 else g

    def row_mass(self, t: float, exponent=None) -> np.ndarray:
        """``sum_y g(t, x, y) mu(y)`` for every x (1.0 when conservative)."""
        w = self.weights(t, exponent)
        return (self.psi * w) @ self._psi_dot_mu / self.sqrt_mu

    def conservativeness_residual(self, t: float, exponent=None) -> float:
        return float(np.abs(self.row_mass(t, exponent) - 1.0).max())


def _symmetric_eigh(q: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates ``lambda`` (ascending) and counting-measure orthonormal
    eigenvectors of the generator ``q``, symmetrized against ``mu``.

    Both come back C-contiguous, as a cache load returns them, so a run
    that decomposes and a run that reads the cache compute identical bytes.
    """
    s = np.sqrt(mu)
    sym = q * np.outer(s, 1.0 / s)
    sym = (sym + sym.T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise KernelError(f"eigendecomposition failed: {exc}") from exc
    return -w[::-1], np.ascontiguousarray(v[:, ::-1])


def spectral_decompose(gen: Generator) -> SpectralKernel:
    """Full symmetric eigendecomposition of a conservative generator."""
    mu = gen.graph.measure
    lam, psi = _symmetric_eigh(gen.matrix, mu)
    scale = max(abs(float(lam[0])), abs(float(lam[-1])), 1.0)
    if abs(lam[0]) > 1e-8 * scale:
        raise KernelError(
            f"conservative generator must have a zero mode, got {lam[0]:.3e}"
        )
    lam[0] = 0.0
    # pin the constant eigenvector exactly; it is known in closed form
    psi[:, 0] = np.sqrt(mu) / np.sqrt(mu.sum())
    np.clip(lam, 0.0, None, out=lam)
    return SpectralKernel(
        graph=gen.graph, eigenvalues=lam, psi=psi, mu=mu, conservative=True
    )


# ---------------------------------------------------------------------------
# Kernel cache


class KernelCache:
    """Memoizes eigendecompositions by (system, M, depth, boundary)."""

    def __init__(self, directory=None):
        self._memory: dict[str, SpectralKernel] = {}
        self._graphs: dict[str, VertexGraph] = {}
        self.directory = directory

    def _key(self, system: FractalSystem, M: int, depth: int, bc: str) -> str:
        text = f"{system.fingerprint()}|M={M}|n={depth}|bc={bc}|v1"
        return hashlib.sha256(text.encode()).hexdigest()

    def graph(self, system: FractalSystem, M: int, depth: int) -> VertexGraph:
        key = self._key(system, M, depth, "graph")
        if key not in self._graphs:
            self._graphs[key] = build_vertex_graph(system, M, depth)
        return self._graphs[key]

    def kernel(
        self, system: FractalSystem, M: int, depth: int, bc: str = "neumann"
    ) -> SpectralKernel:
        key = self._key(system, M, depth, bc)
        if key in self._memory:
            return self._memory[key]
        kern = self._load(key)
        if kern is None:
            graph = self.graph(system, M, depth)
            if bc == "neumann":
                kern = spectral_decompose(build_generator(graph))
            elif bc == "dirichlet":
                kern = _dirichlet_kernel(graph)
            else:
                raise KernelError(f"unknown boundary condition {bc!r}")
            self._store(key, kern)
        else:
            kern.graph = self.graph(system, M, depth)
        self._memory[key] = kern
        return kern

    def _path(self, key: str):
        if self.directory is None:
            return None
        from pathlib import Path

        d = Path(self.directory)
        d.mkdir(parents=True, exist_ok=True)
        return d / f"eig-{key}.npz"

    def _load(self, key: str) -> SpectralKernel | None:
        """The stored entry for ``key``; None (a miss) when there is none or
        it is unreadable, was written for another key, or has shapes that
        disagree."""
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as data:
                stored_key = str(data["key"])
                eigenvalues = data["eigenvalues"]
                psi = data["psi"]
                mu = data["mu"]
                conservative = bool(data["conservative"])
                index_map = data["index_map"] if "index_map" in data else None
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
            return None
        n = len(mu)
        if (
            stored_key != key
            or psi.shape != (n, len(eigenvalues))
            or (not conservative and (index_map is None or len(index_map) != n))
        ):
            return None
        return SpectralKernel(
            graph=None,  # re-attached by caller
            eigenvalues=eigenvalues,
            psi=psi,
            mu=mu,
            conservative=conservative,
            index_map=index_map,
        )

    def _store(self, key: str, kern: SpectralKernel) -> None:
        """Write the entry uncompressed (deflate costs far more time than the
        ~10 % of bytes it saves) to a temp file, then rename it into place,
        so readers see a whole entry or none.  No fsync: an entry torn by a
        power loss fails the checked load and is rebuilt."""
        path = self._path(key)
        if path is None:
            return
        payload = dict(
            key=np.str_(key),
            eigenvalues=kern.eigenvalues,
            psi=kern.psi,
            mu=kern.mu,
            conservative=np.bool_(kern.conservative),
        )
        if kern.index_map is not None:
            payload["index_map"] = kern.index_map
        tmp = path.with_name(f".eig-{key}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


_DEFAULT_CACHE = KernelCache()


def default_cache() -> KernelCache:
    return _DEFAULT_CACHE


def _dirichlet_kernel(graph: VertexGraph) -> SpectralKernel:
    """Kernel of the walk killed at the global corners of ``K<<M>>``."""
    gen = build_generator(graph)
    corners = graph.corner_indices()
    keep = np.array([i for i in range(graph.n_vertices) if i not in set(corners)])
    mu = graph.measure[keep]
    lam, psi = _symmetric_eigh(gen.matrix[np.ix_(keep, keep)], mu)
    # killing at the corners makes every rate strictly positive
    if not lam[0] > 1e-8 * float(np.abs(lam).max()):
        raise KernelError(
            f"killed generator must have positive rates, got smallest {lam[0]:.3e}"
        )
    return SpectralKernel(
        graph=graph,
        eigenvalues=lam,
        psi=psi,
        mu=mu,
        conservative=False,
        index_map=keep,
    )


# ---------------------------------------------------------------------------
# Folding cross-check


def folding_crosscheck(
    window_kernel: SpectralKernel,
    label_map: LabelMap,
    folded_kernel: SpectralKernel,
    t: float,
    pairs: list[tuple[int, int]],
    exponent=None,
) -> float:
    """Compare ``sum_{y' -> y} g(t, x, y')`` with the folded density.

    ``pairs`` are (x, y) indices of the folded graph; targets must not be
    corners of ``K<<M>>`` (the corner branch carries rank weights and is
    excluded).  Returns the maximum relative discrepancy.
    """
    folded_graph = folded_kernel.graph
    window_graph = window_kernel.graph
    mapping = label_map.fold_graph_vertices(window_graph, folded_graph)
    corner_set = set(folded_graph.corner_indices())
    classes: dict[int, list[int]] = {}
    for w_idx, f_idx in enumerate(mapping):
        classes.setdefault(int(f_idx), []).append(w_idx)
    worst = 0.0
    for x_idx, y_idx in pairs:
        if y_idx in corner_set:
            raise KernelError(
                "folding cross-check targets must avoid the corners of K<<M>>"
            )
        x_window = window_graph.index_of(folded_graph.points[x_idx])
        total = 0.0
        for y_window in sorted(classes[y_idx]):
            total += window_kernel.value(t, x_window, y_window, exponent)
        direct = folded_kernel.value(t, x_idx, y_idx, exponent)
        denom = max(abs(direct), 1e-300)
        worst = max(worst, abs(total - direct) / denom)
    return worst


# ---------------------------------------------------------------------------
# Walk dimension from absorbing chains


@dataclass(frozen=True)
class WalkDimensionEstimate:
    exit_times: tuple[float, ...]
    ratios: tuple[float, ...]
    estimate: float
    L: float


def absorbing_exit_time(
    graph: VertexGraph, start: int, absorbing: list[int]
) -> float:
    """Expected absorption time of the unit-edge-rate walk (rate 1 per edge)."""
    n = graph.n_vertices
    absorbing_set = set(absorbing)
    free = [i for i in range(n) if i not in absorbing_set]
    pos = {v: k for k, v in enumerate(free)}
    a = np.zeros((len(free), len(free)))
    for k, v in enumerate(free):
        deg = len(graph.adjacency[v])
        a[k, k] = deg
        for w in graph.adjacency[v]:
            if w in pos:
                a[k, pos[w]] -= 1.0
    rhs = np.ones(len(free))
    sol = np.linalg.solve(a, rhs)
    return float(sol[pos[start]])


def estimate_walk_dimension(
    system: FractalSystem, n_max: int, cache: KernelCache | None = None
) -> WalkDimensionEstimate:
    """Exit-time scaling of the unscaled walk from the base cell.

    The walk starts at the first essential corner of ``K<<0>>`` and is
    absorbed on the remaining corners; successive depth ratios approach
    ``L^(d_w)``.
    """
    if n_max < 1:
        raise KernelError("need n_max >= 1 for a ratio")
    cache = cache or _DEFAULT_CACHE
    times = []
    for depth in range(n_max + 1):
        graph = cache.graph(system, 0, depth)
        corners = graph.corner_indices()
        times.append(absorbing_exit_time(graph, corners[0], corners[1:]))
    ratios = tuple(times[i + 1] / times[i] for i in range(len(times) - 1))
    est = float(np.log(ratios[-1]) / np.log(float(system.L)))
    return WalkDimensionEstimate(
        exit_times=tuple(times), ratios=ratios, estimate=est, L=float(system.L)
    )


def absorbing_exit_time_embedded(
    graph: VertexGraph, start: int, absorbing: list[int]
) -> float:
    """Independent route: expected steps of the embedded jump chain weighted
    by mean holding times (fundamental-matrix form)."""
    n = graph.n_vertices
    absorbing_set = set(absorbing)
    free = [i for i in range(n) if i not in absorbing_set]
    pos = {v: k for k, v in enumerate(free)}
    m = len(free)
    p = np.zeros((m, m))
    hold = np.zeros(m)
    for k, v in enumerate(free):
        deg = len(graph.adjacency[v])
        hold[k] = 1.0 / deg
        for w in graph.adjacency[v]:
            if w in pos:
                p[k, pos[w]] = 1.0 / deg
    visits = np.linalg.solve(np.eye(m) - p.T, _unit(m, pos[start]))
    return float(visits @ hold)


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# Scaling property


@dataclass(frozen=True)
class ScalingCheck:
    max_rel_deviation: float
    n_pairs: int
    times: tuple[float, ...]


def check_scaling_property(
    system: FractalSystem,
    M: int,
    depth: int,
    times,
    max_pairs: int = 300,
    seed: int = 0,
    cache: KernelCache | None = None,
) -> ScalingCheck:
    """Compare ``g_M`` at depth ``n`` with ``L^d g_{M+1}(L^(d_w) t, Lx, Ly)``
    at depth ``n+1`` over matched vertex pairs."""
    cache = cache or _DEFAULT_CACHE
    coarse = cache.kernel(system, M, depth)
    fine = cache.kernel(system, M + 1, depth + 1)
    lf = float(system.L)
    scale_t = lf**system.walk_dim
    scale_g = lf**system.hausdorff_dim
    coarse_graph = coarse.graph
    fine_graph = fine.graph
    mapped = np.array(
        [
            fine_graph.index_of(p.scaled(system.L))
            for p in coarse_graph.points
        ]
    )
    rng = np.random.default_rng(seed)
    n = coarse_graph.n_vertices
    n_pairs = min(max_pairs, n * n)
    i, j = rng.integers(0, n, size=(n_pairs, 2)).T
    worst = 0.0
    for t in times:
        lhs = coarse.value(t, i, j)
        rhs = scale_g * fine.value(scale_t * t, mapped[i], mapped[j])
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
        worst = max(worst, float(rel.max()))
    return ScalingCheck(
        max_rel_deviation=worst, n_pairs=n_pairs, times=tuple(float(t) for t in times)
    )
