"""Transition densities on fractal vertex graphs via spectral decomposition.

The generator of the approximating walk jumps along every edge of a level-n
graph at rate ``L^(walk_dim * n) / m(x)``, where ``m(x)`` is the number of
cells incident to ``x``.  Dividing by ``m`` makes the generator self-adjoint
with respect to the vertex measure, and the ``L^(d_w n)`` clock makes
kernels at different depths approximate one continuum object: densities obey
``g(t,x,y) = L^d * g(L^(d_w) t, L x, L y)`` exactly across matched graphs.

Densities are always taken with respect to the vertex measure, so the
long-time limit on ``K<<M>>`` is ``N^-M``.

The generator is held as its nonzeros (a numpy :class:`~.geometry.Csr`),
which both the reflected and the killed decomposition read.  Every kernel
of a graph is indexed by its vertices; the killed one is 0 at the corners
of ``K<<M>>``.

Decomposition: nested fractals are symmetric by axiom, so each generator
commutes with the group G generated by the bisector reflections of pairs of
corners of ``K<<M>>`` (D3 on the gasket, Z2 on the interval).
``_symmetric_eigh`` matches every element of G to a vertex permutation
exactly, with no tolerance, by joining the int64 lattice rows of the
vertices (``VertexGraph.lattice``) with those of their images; it certifies
that the permutation maps the symmetrized generator and the measure onto
themselves bitwise, and runs one ``eigh`` per real irrep of G on a sparse
orthonormal orbit basis; if the match or the certificate fails, G is the
trivial group and the one block is the dense generator.

Positivity: spectral evaluation can produce negatives of order -1e-13
(eigendecomposition noise) at very short times; on the gasket the kernel is
strictly positive from ``t_min(M) = 0.01 * L^(M d_w)`` on for depths up to 6.
Ratio statistics elsewhere clamp at 1e-14; raw tables are never clamped.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exact import Vec2
from .geometry import (
    Csr,
    FractalSystem,
    VertexGraph,
    _bisector_reflection,
    affine_images,
    build_vertex_graph,
    lattice_rows,
    rational_affine,
)
from .labeling import LabelMap

# exp(-60) ~ 9e-27: dropping spectral terms beyond this leaves reconstruction
# errors far below every declared tolerance
_TRUNCATION_EXPONENT = 60.0

# rows or columns of an n x n array rewritten at a time (the lift into
# sorted columns, the zero-mode projection, the measure divided out of a
# kernel block), so the transients are a few n x 64 bands that stay in cache
# instead of a second n x n array
_BAND = 64


class KernelError(RuntimeError):
    pass


def build_generator(graph: VertexGraph) -> Csr:
    """The walk generator as an n x n :class:`Csr` of its nonzeros: one rate
    per edge direction, edge-uniform and scaled by ``L^(d_w * depth)``, and
    a diagonal that makes each row sum to 0; symmetrized against the vertex
    measure (detailed balance holds exactly)."""
    if not graph.is_connected():
        raise KernelError("generator requires a connected graph")
    lam = float(graph.system.L) ** (graph.system.walk_dim * graph.depth)
    n = graph.n_vertices
    # one rate per edge direction, at the nonzeros of the adjacency
    rows, cols = graph.adjacency.rows(), graph.adjacency.indices
    diag = np.arange(n)
    rates = lam / graph.incident[rows]
    # the rates out of a vertex are equal, and up to 4 equal terms (the
    # gasket's degree) sum to the same bits in any order, as in a dense sum
    data = np.r_[rates, -np.bincount(rows, rates, minlength=n)]
    return Csr.from_coo(np.r_[rows, diag], np.r_[cols, diag], data, n)


@dataclass
class SpectralKernel:
    """Eigendecomposition of a generator; evaluates any spectral function.

    ``g(t,x,y) = sum_k w_k(t) phi_k(x) phi_k(y)`` with ``phi_k`` orthonormal
    in L^2 of the graph's measure and weights ``w_k = exp(-t lambda_k)`` for
    the heat kernel or ``exp(-t phi(lambda_k))`` after subordination.
    """

    graph: VertexGraph
    eigenvalues: np.ndarray  # ascending
    psi: np.ndarray  # counting-measure orthonormal eigenvectors (columns)

    def __post_init__(self):
        self.mu = self.graph.measure
        self.sqrt_mu = np.sqrt(self.mu)

    @property
    def conservative(self) -> bool:
        """Reflected, not killed: only ``spectral_decompose`` gives a rate 0."""
        return bool(self.eigenvalues[0] == 0.0)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def flat_value(self) -> float:
        """Long-time limit 1/mu(total) for conservative kernels: the
        kernel's own constant mode, which the closure in
        ``subordinate_quadrature`` must match, so not the exact ``N^-M`` of
        the bound reports (the float measure sums to 3.000000000000001 at
        M = 1, depth 4 on the gasket)."""
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
        axes; exactly symmetric.

        The rates ascend and every exponent increases, so the kept modes are
        a prefix of m columns (KernelError otherwise).  The block is one
        product ``z @ z.T`` of the scaled prefix, which numpy computes as a
        symmetric rank-m update (syrk) and mirrors, so it comes out exactly
        symmetric; the measure is divided out in place, a band of rows at a
        time.
        """
        w = self.weights(t, exponent)
        m = int(np.count_nonzero(w))
        if not w[:m].all():
            raise KernelError("kept modes must be a prefix: the rates must ascend")
        if rows is None:
            z, s = self.psi[:, :m] * np.sqrt(w[:m]), self.sqrt_mu
        else:  # one gather of the rows the block keeps, scaled in place
            z, s = self.psi[rows, :m], self.sqrt_mu[rows]
            z *= np.sqrt(w[:m])
        g = z @ z.T
        for lo in range(0, len(s), _BAND):
            g[lo : lo + _BAND] /= np.outer(s[lo : lo + _BAND], s)
        return g

    def value(self, t: float, i, j, exponent=None):
        """Kernel values at the pairs ``(i, j)``: integer arrays broadcast
        together and give an array, scalar indices give a float."""
        w = self.weights(t, exponent)
        # one (1 x m) @ (m x 1) product per pair, so a pair's value has the
        # same bytes whether it is asked for alone or within an array
        dot = np.matmul((self.psi[i] * w)[..., None, :], self.psi[j][..., :, None])
        g = dot[..., 0, 0] / (self.sqrt_mu[i] * self.sqrt_mu[j])
        return float(g) if np.ndim(g) == 0 else g

    def conservativeness_residual(self, t: float, exponent=None) -> float:
        """``max_x |sum_y g(t, x, y) mu(y) - 1|`` (0 when conservative)."""
        w = self.weights(t, exponent)
        row_mass = (self.psi * w) @ (self.psi.T @ self.sqrt_mu) / self.sqrt_mu
        return float(np.abs(row_mass - 1.0).max())


def _symmetric_eigh(
    q: Csr, mu: np.ndarray, lattice: np.ndarray, denom: int, corners, keep=None
):
    """Rates ``lambda`` (ascending) and counting-measure orthonormal
    eigenvectors of the generator ``q`` (entries in row-major order),
    symmetrized against ``mu``, one block per irrep of the symmetry group G
    of ``K<<M>>``.

    G is generated by the bisector reflections of pairs of ``corners`` (the
    exact corners of ``K<<M>>``); the points of the rows of ``q`` are the
    integer ``lattice`` rows over ``denom`` (as ``VertexGraph.lattice``).
    Each element of G is a vertex permutation, matched exactly on the
    lattice, with no tolerance, and certified exactly: it must map the
    symmetrized generator and ``mu`` onto themselves bitwise.  If any
    reflection fails, or G has a real irrep other than the trivial one,
    ``det`` and the 2x2 linear part, G is the trivial group: one dense
    block, the plain dense decomposition.

    Otherwise (D3 on the gasket, Z2 on the interval) the generator commutes
    with every permutation, so it leaves each isotypic component invariant
    (Serre, *Linear Representations of Finite Groups*, 2.6-2.7).  One
    ``eigh`` per irrep runs on ``B^T S B`` for a sparse orthonormal basis B
    of one copy of its component; the other copy of the 2-D component has
    the same eigenvalues and takes its vectors through the intertwining
    basis.  The blocks merge in ascending order of rate: once every block is
    solved, each one's lifted vectors are written, a chunk of columns at a
    time, straight into their sorted columns.

    ``keep`` (a boolean mask over the rows of the result) pads the vectors:
    row i of ``q`` fills the i-th kept row, and the other rows are 0.

    Both come back C-contiguous, as a cache load returns them, so a run
    that decomposes and a run that reads the cache compute identical bytes.
    """
    n = len(mu)
    rows, cols = q.rows(), q.indices
    key = rows * n + cols  # row-major positions of the nonzeros, ascending
    s = np.sqrt(mu)
    half = q.data * (s[rows] * (1.0 / s)[cols])  # q * outer(s, 1/s)
    sym = (half + half[np.searchsorted(key, cols * n + rows)]) / 2.0
    perms, lins = _symmetry_group(lattice, denom, corners, key, sym, mu)
    reps = _real_irreps(lins)
    if reps is None:
        perms, lins = perms[:1], lins[:1]
        reps = _real_irreps(lins)
    blocks = [
        (col, val, *_block_eigh(size, col, val[0], rows, cols, sym))
        for size, col, val in _isotypic_bases(perms, reps)
    ]
    # one column per (block, copy), in block order, ascending within each
    rates = np.concatenate([w for _, val, w, _ in blocks for _copy in val])
    order = np.argsort(rates, kind="stable")
    dest = np.empty(n, dtype=np.intp)
    dest[order] = np.arange(n)
    out_rows = np.arange(n) if keep is None else np.flatnonzero(keep)
    psi = np.empty((n, n)) if keep is None else np.zeros((len(keep), n))
    start = 0
    for col, val, w, v in blocks:
        for copy in val:  # B_i v, one copy of the eigenvectors per component
            for lo in range(0, len(w), _BAND):
                vc = v[:, lo : lo + _BAND]
                out = copy[:, :1] * np.take(vc, col[:, 0], axis=0)
                for j in range(1, col.shape[1]):
                    out += copy[:, j : j + 1] * np.take(vc, col[:, j], axis=0)
                cols_out = dest[start + lo : start + lo + out.shape[1]]
                psi[np.ix_(out_rows, cols_out)] = out
            start += len(w)
    return rates[order], psi


def _block_eigh(size, col, val, rows, cols, sym):
    """Ascending rates and eigenvectors (a reversed view of ``eigh``'s) of
    ``B^T S B`` for one isotypic basis B, stored as (column, value) slots
    per row, over the nonzeros ``sym`` of S at ``(rows, cols)``."""
    pairs = col[rows][:, :, None] * size + col[cols][:, None, :]
    terms = val[rows][:, :, None] * sym[:, None, None] * val[cols][:, None, :]
    block = np.bincount(pairs.ravel(), terms.ravel(), minlength=size * size)
    try:
        w, v = np.linalg.eigh(block.reshape(size, size))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise KernelError(f"eigendecomposition failed: {exc}") from exc
    return -w[::-1], v[:, ::-1]


@functools.lru_cache(maxsize=64)
def _reflection_map(x: Vec2, y: Vec2):
    """The bisector reflection of the corners ``x`` and ``y``: its 2x2
    linear part in floats (read-only: the cache shares it), and its exact
    rational matrix and shift on the lattice columns (see
    :func:`rational_affine`).  Cached, because the exact arithmetic costs
    more than a small decomposition."""
    refl = _bisector_reflection(x, y)
    shift = np.array(refl(Vec2.ZERO).to_floats())
    images = [refl(e).to_floats() for e in (Vec2.of(1, 0), Vec2.of(0, 1))]
    lin = np.array(images).T - shift[:, None]
    lin.flags.writeable = False
    return lin, *rational_affine(refl)


def _reflection_rows(lattice, denom, corners):
    """The bisector reflections of pairs of ``corners``: their float linear
    parts and, one row per reflection, the row of ``lattice`` (int64 rows
    over ``denom``) holding the image of each row, -1 where an image is no
    row.  Every image is found by one exact join."""
    maps = [_reflection_map(x, y) for a, x in enumerate(corners) for y in corners[a + 1 :]]
    images, image_denom = affine_images(
        [(lattice, matrix, shift) for _, matrix, shift in maps], denom
    )
    rows = lattice_rows(lattice, denom, images, image_denom)
    return [lin for lin, _, _ in maps], rows.reshape(len(maps), len(lattice))


def _symmetry_group(lattice, denom, corners, key, vals, mu):
    """Vertex permutations ``perms`` (|G| x n, the identity first) and linear
    parts ``lins`` (|G| x 2 x 2) of the group generated by the bisector
    reflections of pairs of ``corners``; the trivial group unless every
    reflection maps the points (the int64 ``lattice`` rows over ``denom``)
    exactly onto themselves and passes :func:`_is_symmetry`.
    ``perms[g][x]`` is the row of the image of row ``x``, so ``perms[gh] =
    perms[g][perms[h]]``."""
    n = len(lattice)
    lins, perms = _reflection_rows(lattice, denom, corners)
    if (perms < 0).any() or not all(_is_symmetry(p, key, vals, mu) for p in perms):
        return np.arange(n)[None, :], np.eye(2)[None]
    gens = list(zip(perms, lins))
    perms, lins = [np.arange(n)], [np.eye(2)]
    seen = {perms[0].tobytes()}
    k = 0
    while k < len(perms):  # closure under the generators
        for perm, lin in gens:
            image = perm[perms[k]]
            if image.tobytes() not in seen:
                seen.add(image.tobytes())
                perms.append(image)
                lins.append(lin @ lins[k])
        k += 1
    return np.array(perms), np.array(lins)


def _is_symmetry(perm, key, vals, mu) -> bool:
    """The certificate: ``perm`` moves the nonzeros ``vals`` (at row-major
    flat positions ``key``) of the symmetrized generator onto nonzeros of
    equal value, bitwise, and keeps ``mu``.  Every diagonal entry is
    nonzero, so this also makes ``perm`` a bijection."""
    n = len(mu)
    moved = perm[key // n] * n + perm[key % n]
    order = np.argsort(moved)
    return (
        np.array_equal(moved[order], key)
        and np.array_equal(vals[order], vals)
        and np.array_equal(mu[perm], mu)
    )


def _real_irreps(lins):
    """The real irreps of the group with linear parts ``lins``, each as
    |G| matrices (|G| x d x d): the trivial one, ``det`` when it differs
    from it and the linear part when it is irreducible.  None when these
    are not all of them (sum of d^2 short of |G|)."""
    g = len(lins)
    det = np.rint(np.linalg.det(lins))
    reps = [np.ones((g, 1, 1))]
    if (det < 0).any():
        reps.append(det[:, None, None])
    traces = np.trace(lins, axis1=1, axis2=2)
    if np.isclose(traces @ traces, g):  # character norm |G|: irreducible
        reps.append(lins)
    return reps if sum(r.shape[1] ** 2 for r in reps) == g else None


def _isotypic_bases(perms, reps):
    """Per irrep in ``reps``, of dimension d, orthonormal bases ``B_1..B_d``
    (n x size) of its isotypic component, with ``B_i^T S B_i`` the same for
    every i and every G-invariant S.  Each row of ``B_i`` has at most d
    nonzeros: ``(size, col, val)`` holds their columns ``col`` (n x d) and
    values ``val[i]`` (n x d; padding is 0).

    On the orbit of a representative r with stabilizer H, a unit vector w
    fixed by H gives ``f_i(g r) = sqrt(d / |orbit|) (rho(g) w)_i``, which
    transforms as ``rho``; Schur orthogonality makes these orthonormal.
    Orbits with the same stabilizer share one coefficient matrix.
    """
    g, n = perms.shape
    orbit_reps = np.flatnonzero(perms.min(axis=0) == np.arange(n))
    stabilizers = (perms[:, orbit_reps] == orbit_reps).T @ (1 << np.arange(g))
    sizes = [0] * len(reps)
    cols = [np.zeros((n, r.shape[1]), dtype=np.intp) for r in reps]
    vals = [np.zeros((r.shape[1], n, r.shape[1])) for r in reps]
    for stab in np.unique(stabilizers):
        members = orbit_reps[stabilizers == stab]
        h = (stab >> np.arange(g)) & 1 == 1
        # the first group element of each coset gH, one per orbit point
        cosets = np.sort(np.unique(perms[:, members[0]], return_index=True)[1])
        rows = perms[cosets][:, members]
        for r, rho in enumerate(reps):
            d = rho.shape[1]
            fixed = rho[h].mean(axis=0)  # projector onto the H-fixed vectors
            m = int(round(np.trace(fixed)))
            if m == 0:
                continue
            w = np.linalg.svd(fixed)[0][:, :m] if d > 1 else fixed
            coef = np.sqrt(d / len(cosets)) * (rho[cosets] @ w)
            cols[r][rows, :m] = sizes[r] + np.arange(len(members) * m).reshape(-1, m)
            vals[r][:, rows, :m] = coef.transpose(1, 0, 2)[:, :, None, :]
            sizes[r] += len(members) * m
    return [basis for basis in zip(sizes, cols, vals) if basis[0]]


def spectral_decompose(graph: VertexGraph) -> SpectralKernel:
    """Full symmetric eigendecomposition of the conservative generator of
    ``graph``."""
    mu, corners = graph.measure, graph.system.corners(graph.M)
    lam, psi = _symmetric_eigh(
        build_generator(graph), mu, graph.lattice, graph.lattice_denom, corners
    )
    scale = max(abs(float(lam[0])), abs(float(lam[-1])), 1.0)
    if abs(lam[0]) > 1e-8 * scale:
        raise KernelError(
            f"conservative generator must have a zero mode, got {lam[0]:.3e}"
        )
    lam[0] = 0.0
    # pin the constant eigenvector exactly (it is known in closed form) and
    # project it out of the others, which eigh made orthogonal only to its
    # rounded copy
    zero = np.sqrt(mu) / np.sqrt(mu.sum())
    psi[:, 0] = zero
    overlap = zero @ psi[:, 1:]
    for lo in range(1, len(lam), _BAND):  # a rank-one update in column chunks
        hi = lo + _BAND
        psi[:, lo:hi] -= np.outer(zero, overlap[lo - 1 : hi - 1])
    np.clip(lam, 0.0, None, out=lam)
    return SpectralKernel(graph, lam, psi)


# ---------------------------------------------------------------------------
# Kernel cache


class KernelCache:
    """Memoizes eigendecompositions by (system, M, depth, boundary).

    ``kernel`` holds one lock while it looks up, loads or decomposes, so
    threads asking for one key get one decomposition and the same object."""

    def __init__(self, directory=None):
        self._memory: dict[str, SpectralKernel] = {}
        self._graphs: dict[tuple[str, int, int], VertexGraph] = {}
        self._lock = threading.Lock()
        self.directory = None if directory is None else Path(directory)

    def _key(self, system: FractalSystem, M: int, depth: int, bc: str) -> str:
        text = f"{system.fingerprint()}|M={M}|n={depth}|bc={bc}|v3"
        return hashlib.sha256(text.encode()).hexdigest()

    def graph(self, system: FractalSystem, M: int, depth: int) -> VertexGraph:
        key = (system.fingerprint(), M, depth)
        if key not in self._graphs:
            self._graphs[key] = build_vertex_graph(system, M, depth)
        return self._graphs[key]

    def kernel(
        self, system: FractalSystem, M: int, depth: int, bc: str = "neumann"
    ) -> SpectralKernel:
        key = self._key(system, M, depth, bc)
        with self._lock:
            if key in self._memory:
                return self._memory[key]
            graph = self.graph(system, M, depth)
            kern = self._load(key, graph)
            if kern is None:
                if bc == "neumann":
                    kern = spectral_decompose(graph)
                elif bc == "dirichlet":
                    kern = _dirichlet_kernel(graph)
                else:
                    raise KernelError(f"unknown boundary condition {bc!r}")
                self._store(key, kern)
            self._memory[key] = kern
            return kern

    def _path(self, key: str) -> Path | None:
        return None if self.directory is None else self.directory / f"eig-{key}.npz"

    def _load(self, key: str, graph: VertexGraph) -> SpectralKernel | None:
        """The stored kernel of ``graph`` for ``key``; None (a miss) when
        there is no entry or it is unreadable, was written for another key,
        or has shapes that disagree with the graph."""
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as data:
                stored_key = str(data["key"])
                eigenvalues = data["eigenvalues"]
                psi = data["psi"]
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
            return None
        if stored_key != key or psi.shape != (graph.n_vertices, len(eigenvalues)):
            return None
        return SpectralKernel(graph, eigenvalues, psi)

    def _store(self, key: str, kern: SpectralKernel) -> None:
        """Write the entry uncompressed (deflate costs far more time than the
        ~10 % of bytes it saves) to a temp file named by process and thread,
        then rename it into place, so readers see a whole entry or none.  No
        fsync: an entry torn by a power loss fails the checked load and is
        rebuilt."""
        path = self._path(key)
        if path is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".eig-{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    key=np.str_(key),
                    eigenvalues=kern.eigenvalues,
                    psi=kern.psi,
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _dirichlet_kernel(graph: VertexGraph) -> SpectralKernel:
    """Kernel of the walk killed at the global corners of ``K<<M>>``, over
    every vertex of ``graph``: the eigenvectors vanish at the corners, so
    the kernel is 0 wherever a corner is one of the pair."""
    keep = np.ones(graph.n_vertices, dtype=bool)
    keep[graph.corner_indices()] = False
    lam, psi = _symmetric_eigh(
        build_generator(graph).restrict(keep),
        graph.measure[keep],
        graph.lattice[keep],
        graph.lattice_denom,
        graph.system.corners(graph.M),
        keep=keep,
    )
    # killing at the corners makes every rate strictly positive
    if not lam[0] > 1e-8 * float(np.abs(lam).max()):
        raise KernelError(
            f"killed generator must have positive rates, got smallest {lam[0]:.3e}"
        )
    return SpectralKernel(graph, lam, psi)


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
    x_windows = window_graph.positions(
        folded_graph.lattice[[x for x, _ in pairs]], folded_graph.lattice_denom
    )
    if (x_windows < 0).any():
        raise KernelError("a folded-graph point is not a window-graph point")
    mapping = label_map.fold_graph_vertices(window_graph, folded_graph)
    corner_set = set(folded_graph.corner_indices())
    classes: dict[int, list[int]] = {}
    for w_idx, f_idx in enumerate(mapping):
        classes.setdefault(int(f_idx), []).append(w_idx)
    if len(classes) != folded_graph.n_vertices:
        raise KernelError("the window does not fold onto every folded-graph vertex")
    worst = 0.0
    for (x_idx, y_idx), x_window in zip(pairs, x_windows.tolist()):
        if y_idx in corner_set:
            raise KernelError(
                "folding cross-check targets must avoid the corners of K<<M>>"
            )
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
    free = np.ones(graph.n_vertices, dtype=bool)
    free[absorbing] = False
    if not free[start]:
        raise KernelError("the walk must start off the absorbing vertices")
    # the generator's negative on the free vertices: degrees on the diagonal,
    # -1 per edge between free vertices
    at = np.cumsum(free) - 1  # the row of each free vertex
    u, v = graph.edges[free[graph.edges].all(axis=1)].T
    a = np.diag(graph.degrees[free].astype(float))
    a[at[u], at[v]] = a[at[v], at[u]] = -1.0
    sol = np.linalg.solve(a, np.ones(len(a)))
    return float(sol[np.count_nonzero(free[:start])])


def estimate_walk_dimension(system: FractalSystem, n_max: int) -> WalkDimensionEstimate:
    """Exit-time scaling of the unscaled walk from the base cell.

    The walk starts at the first essential corner of ``K<<0>>`` and is
    absorbed on the remaining corners; successive depth ratios approach
    ``L^(d_w)``.
    """
    if n_max < 1:
        raise KernelError("need n_max >= 1 for a ratio")
    times = []
    for depth in range(n_max + 1):
        graph = build_vertex_graph(system, 0, depth)
        corners = graph.corner_indices()
        times.append(absorbing_exit_time(graph, corners[0], corners[1:]))
    ratios = tuple(times[i + 1] / times[i] for i in range(len(times) - 1))
    est = float(np.log(ratios[-1]) / np.log(float(system.L)))
    return WalkDimensionEstimate(
        exit_times=tuple(times), ratios=ratios, estimate=est, L=float(system.L)
    )


# ---------------------------------------------------------------------------
# Scaling property


@dataclass(frozen=True)
class ScalingCheck:
    max_rel_deviation: float
    n_pairs: int
    times: tuple[float, ...]


SCALING_PAIRS = 300
SCALING_SEED = 0


def check_scaling_property(
    system: FractalSystem, M: int, depth: int, times, cache: KernelCache
) -> ScalingCheck:
    """Compare ``g_M`` at depth ``n`` with ``L^d g_{M+1}(L^(d_w) t, Lx, Ly)``
    at depth ``n+1`` over matched vertex pairs."""
    coarse = cache.kernel(system, M, depth)
    fine = cache.kernel(system, M + 1, depth + 1)
    lf = float(system.L)
    scale_t = lf**system.walk_dim
    scale_g = lf**system.hausdorff_dim
    coarse_graph = coarse.graph
    # L x is the coarse lattice row over the denominator S / L
    mapped = fine.graph.positions(
        coarse_graph.lattice, coarse_graph.lattice_denom / system.L
    )
    if (mapped < 0).any():
        raise KernelError("a scaled coarse-graph point is not a fine-graph point")
    rng = np.random.default_rng(SCALING_SEED)
    n = coarse_graph.n_vertices
    n_pairs = min(SCALING_PAIRS, n * n)
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
