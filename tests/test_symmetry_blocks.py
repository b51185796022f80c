"""The sparse generator and the symmetry-blocked eigendecomposition against
oracles that share none of their code: a dense generator filled edge by
edge, a dense ``np.linalg.eigh`` of the whole symmetrized generator, the
exact reflections of the vertex points, and spectral decimation."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from fractalheat import (
    build_generator,
    build_vertex_graph,
    kernels,
    sierpinski_gasket,
    unit_interval_system,
)
from fractalheat.exact import Vec2
from fractalheat.geometry import Csr, _bisector_reflection
from fractalheat.kernels import SpectralKernel

from conftest import exact_points

SYSTEMS = {"gasket": sierpinski_gasket, "interval": unit_interval_system}
CASES = [
    ("gasket", M, depth, bc)
    for M in (0, 1, 2)
    for depth in (2, 3, 4)
    for bc in ("neumann", "dirichlet")
] + [
    ("interval", M, depth, bc)
    for M, depth in ((0, 4), (2, 5))
    for bc in ("neumann", "dirichlet")
]
TIMES = (0.1, 1.0, 10.0)


@functools.lru_cache(maxsize=None)
def _blocked(name, M, depth, bc):
    """The kernel under test and the sizes of the ``eigh`` calls it made."""
    graph = build_vertex_graph(SYSTEMS[name](), M, depth)
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = recording
    try:
        if bc == "neumann":
            kern = kernels.spectral_decompose(graph)
        else:
            kern = kernels._dirichlet_kernel(graph)
    finally:
        np.linalg.eigh = eigh
    return kern, tuple(sizes)


def _dense_generator(graph) -> np.ndarray:
    """The walk generator as a dense matrix, filled one edge at a time; the
    diagonal is minus the dense row sum."""
    n = graph.n_vertices
    rate = float(graph.system.L) ** (graph.system.walk_dim * graph.depth)
    q = np.zeros((n, n))
    for u, v in graph.edges:
        q[u, v] = rate / graph.incident[u]
        q[v, u] = rate / graph.incident[v]
    q[np.diag_indices(n)] = -q.sum(axis=1)
    return q


@pytest.mark.parametrize(
    "name, M, depth",
    [("gasket", M, depth) for M in (0, 1, 2) for depth in (2, 3, 4, 5)]
    + [("interval", M, depth) for M, depth in ((0, 4), (2, 5), (1, 6))],
)
def test_sparse_generator_matches_the_dense_one_bitwise(name, M, depth):
    graph = build_vertex_graph(SYSTEMS[name](), M, depth)
    q = build_generator(graph)
    dense = _dense_generator(graph)
    assert np.array_equal(_checked_dense(q), dense)
    # the killed generator's block, and an arbitrary one, keep their bits
    corners = np.ones(graph.n_vertices, dtype=bool)
    corners[graph.corner_indices()] = False
    mixed = np.random.default_rng(depth).random(graph.n_vertices) < 0.5
    for keep in (corners, mixed):
        assert np.array_equal(_checked_dense(q.restrict(keep)), dense[np.ix_(keep, keep)])


def _checked_dense(q) -> np.ndarray:
    """A sparse matrix as a dense array, after checking that its entries
    run in strictly ascending row-major order."""
    assert q.indptr[0] == 0 and q.indptr[-1] == len(q.indices) == len(q.data)
    rows = np.repeat(np.arange(q.n), np.diff(q.indptr))
    assert np.all(np.diff(rows * q.n + q.indices) > 0)
    out = np.zeros((q.n, q.n))
    out[rows, q.indices] = q.data
    return out


def _dense_oracle(kern: SpectralKernel) -> SpectralKernel:
    """The same kernel from one dense ``eigh`` of the whole symmetrized
    generator, killed at the corners when ``kern`` is, as the decomposition
    was computed before it was blocked."""
    graph = kern.graph
    rows = np.arange(graph.n_vertices)
    if not kern.conservative:
        rows = np.setdiff1d(rows, graph.corner_indices())
    q = _dense_generator(graph)[np.ix_(rows, rows)]
    s = np.sqrt(graph.measure[rows])
    sym = q * np.outer(s, 1.0 / s)
    w, v = np.linalg.eigh((sym + sym.T) / 2.0)
    psi = np.zeros((graph.n_vertices, len(w)))
    psi[rows] = v[:, ::-1]
    return SpectralKernel(graph, np.clip(-w[::-1], 0.0, None), psi)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
class TestAgainstDenseEigh:
    def test_spectrum(self, case):
        kern, _ = _blocked(*case)
        oracle = _dense_oracle(kern)
        scale = float(oracle.eigenvalues.max())
        assert np.abs(kern.eigenvalues - oracle.eigenvalues).max() <= 1e-12 * scale
        assert np.all(np.diff(kern.eigenvalues) >= 0)

    @pytest.mark.parametrize("t", TIMES)
    def test_kernel_matrix(self, case, t):
        # Any symmetric eigensolver returns each rate to within a few
        # eps * lambda_max, which moves exp(-t lambda) by t times that: on the
        # killed depth-4 windows at t = 10 the dense oracle itself sits up to
        # 1e-12 of the block max off the matrix exponential.  Hence the
        # t-proportional term next to the 1e-12.
        kern, _ = _blocked(*case)
        oracle = _dense_oracle(kern)
        expected = oracle.matrix(t)
        rate_rounding = 2.0 * t * np.finfo(float).eps * float(oracle.eigenvalues.max())
        tol = (1e-12 + rate_rounding) * np.abs(expected).max()
        assert np.abs(kern.matrix(t) - expected).max() <= tol

    def test_orthonormal(self, case):
        kern, _ = _blocked(*case)
        assert kern.psi.flags.c_contiguous
        gram = kern.psi.T @ kern.psi
        assert np.abs(gram - np.eye(len(kern.eigenvalues))).max() <= 1e-13

    def test_one_block_per_irrep(self, case):
        # D3 on the gasket: trivial, det and the 2-D irrep, whose second copy
        # needs no eigh; Z2 on the interval.  A fall-back to the trivial group
        # (one dense block) fails here.
        kern, sizes = _blocked(*case)
        n = len(kern.eigenvalues)
        if case[0] == "gasket":
            assert len(sizes) == 3
            trivial, det, two_dim = sizes
            assert trivial + det + 2 * two_dim == n
            assert max(sizes) <= n // 3 + 1
        else:
            assert len(sizes) == 2
            assert sum(sizes) == n


def test_broken_symmetry_gives_one_dense_block(monkeypatch):
    # one edge at double rate: no reflection passes the certificate, so the
    # group is trivial and the result is the plain dense decomposition
    graph = build_vertex_graph(sierpinski_gasket(), 1, 2)
    q = _dense_generator(graph)
    u, v = graph.edges[0]
    q[u, u] -= q[u, v]
    q[v, v] -= q[v, u]
    q[u, v] *= 2.0
    q[v, u] *= 2.0
    corners = graph.system.corners(graph.M)
    eigh, sizes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    rows, cols = np.nonzero(q)
    lam, psi = kernels._symmetric_eigh(
        Csr.from_coo(rows, cols, q[rows, cols], len(q)),
        graph.measure, graph.lattice, graph.lattice_denom, corners,
    )
    assert sizes == [graph.n_vertices]
    s = np.sqrt(graph.measure)
    sym = q * np.outer(s, 1.0 / s)
    w, vec = eigh((sym + sym.T) / 2.0)
    assert np.array_equal(lam, -w[::-1])
    assert np.array_equal(psi, vec[:, ::-1])


def _exact_permutations(graph):
    """The vertex permutations of the bisector reflections of pairs of
    corners, from the exact points."""
    points = exact_points(graph)
    index_of = {p: k for k, p in enumerate(points)}
    corners = [points[c] for c in graph.corner_indices()]
    perms = []
    for a, x in enumerate(corners):
        for y in corners[a + 1 :]:
            refl = _bisector_reflection(x, y)
            perms.append(np.array([index_of[refl(p)] for p in points]))
    return perms


@pytest.mark.parametrize("M, depth", [(0, 3), (1, 3), (1, 4), (2, 3)])
@pytest.mark.parametrize("t", TIMES)
def test_folded_kernel_invariant_under_symmetries(gasket, cache, M, depth, t):
    kern = cache.kernel(gasket, M, depth)
    block = kern.matrix(t)
    perms = _exact_permutations(kern.graph)
    assert len(perms) == 3
    for perm in perms:
        assert sorted(perm) == list(range(kern.n))
        moved = block[np.ix_(perm, perm)]
        assert np.abs(moved - block).max() <= 1e-12 * np.abs(block).max()


EXCEPTIONAL = np.array([0.75, 1.25, 1.5])


@pytest.mark.parametrize("M", [0, 1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_spectral_decimation(gasket, cache, M, depth):
    """On the gasket ``Q = 2 * 5^n (P - I)``, so ``z = lambda / (2 * 5^n)`` runs
    over the spectrum of ``I - P``.  Every z at depth n outside {3/4, 5/4, 3/2}
    maps through ``z (5 - 4 z)`` onto the spectrum at depth n - 1, and the
    images cover it twice over, except 0 (once) and 3/2 (never); Fukushima &
    Shima, Potential Anal. 1 (1992)."""

    def spectrum(n):
        kern = cache.kernel(gasket, M, n)
        return kern.eigenvalues / (2.0 * float(gasket.L) ** (gasket.walk_dim * n))

    fine, coarse = spectrum(depth), spectrum(depth - 1)
    regular = np.abs(fine[:, None] - EXCEPTIONAL).min(axis=1) > 1e-9
    images = np.sort(fine[regular] * (5.0 - 4.0 * fine[regular]))
    inner = coarse[(coarse > 1e-9) & (np.abs(coarse - 1.5) > 1e-9)]
    expected = np.sort(np.concatenate([[0.0], inner, inner]))
    assert images.shape == expected.shape
    assert np.abs(images - expected).max() <= 1e-12


def _kdtree_permutations(graph, rows):
    """The permutations as the float route matched them: each reflection's
    image of the float points ``coords[rows]``, looked up in a k-d tree of
    those points within 1e-9; None when a point has no match."""
    from scipy.spatial import cKDTree

    coords = graph.coords[rows]
    tree = cKDTree(coords)
    tol = 1e-9 * max(1.0, float(np.abs(coords).max()))
    points = exact_points(graph)
    corners = [points[c] for c in graph.corner_indices()]
    perms = []
    for a, x in enumerate(corners):
        for y in corners[a + 1 :]:
            refl = _bisector_reflection(x, y)
            shift = np.array(refl(Vec2.ZERO).to_floats())
            lin = np.array([refl(e).to_floats() for e in (Vec2.of(1, 0), Vec2.of(0, 1))]).T
            dist, perm = tree.query(coords @ (lin - shift[:, None]).T + shift,
                                    distance_upper_bound=tol)
            perms.append(perm if np.isfinite(dist).all() else None)
    return perms


def _lattice_permutations(graph, rows):
    corners = graph.system.corners(graph.M)
    _, perms = kernels._reflection_rows(graph.lattice[rows], graph.lattice_denom, corners)
    return [None if (perm < 0).any() else perm for perm in perms]


@pytest.mark.parametrize("name", ["gasket", "interval"])
@pytest.mark.parametrize("M", range(3))
@pytest.mark.parametrize("depth", range(6))
def test_exact_join_matches_the_float_match(name, M, depth):
    # every vertex (the reflected kernel) and every non-corner (the killed one)
    graph = build_vertex_graph(SYSTEMS[name](), M, depth)
    keep = np.ones(graph.n_vertices, dtype=bool)
    keep[graph.corner_indices()] = False
    for rows in (slice(None), keep):
        if not graph.lattice[rows].size:
            continue
        old = _kdtree_permutations(graph, rows)
        new = _lattice_permutations(graph, rows)
        assert len(new) == len(old) == (3 if name == "gasket" else 1)
        for a, b in zip(new, old):
            assert a is not None and b is not None
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "corners",
    [
        [Vec2.of(0, 0), Vec2.of(Fraction(1, 3), 0)],  # images off the lattice
        [Vec2.of(0, 0), Vec2.of(2, 0)],  # on the lattice, outside the graph
    ],
)
def test_reflection_off_the_points_gives_the_trivial_group(corners):
    graph = build_vertex_graph(sierpinski_gasket(), 0, 3)
    n = graph.n_vertices
    diag = np.arange(n) * (n + 1)
    perms, lins = kernels._symmetry_group(
        graph.lattice, graph.lattice_denom, corners, diag, np.ones(n), graph.measure
    )
    assert np.array_equal(perms, np.arange(n)[None, :])
    assert np.array_equal(lins, np.eye(2)[None])
