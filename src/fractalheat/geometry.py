"""Nested-fractal geometry: similitude systems, axiom checks, vertex graphs.

All constructions are exact: coordinates live in Q(sqrt 3)^2 (see
:mod:`fractalheat.exact`), cells carry exact offsets, and the vertex measure
is kept as rationals so graph totals come out exactly ``N**M``.

Conventions
-----------
* ``K<<M>> = L^M K<<0>>`` is the scaled fractal; an ``m``-cell is a translate
  ``K<<m>> + nu`` of it.
* ``build_vertex_graph(system, M, n)`` tiles ``K<<M>>`` by cells at absolute
  scale ``L^-n`` (so there are ``N**(M+n)`` of them); its vertices are the
  cell corners.  The level-``n`` graph of the unit gasket therefore has
  ``(3**(n+1) + 3) / 2`` vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import _SQRT3, LinearMap2, Q3, Vec2, sort_points


class FractalError(ValueError):
    """Raised when a similitude system violates a structural requirement."""


@dataclass(frozen=True)
class Similitude:
    """Contraction x -> scale * U(x) + translation with orthogonal U."""

    scale: Fraction
    isometry: LinearMap2
    translation: Vec2

    def __post_init__(self):
        if not (0 < self.scale < 1):
            raise FractalError(f"similitude scale must be in (0,1), got {self.scale}")
        if not self.isometry.is_orthogonal():
            raise FractalError("similitude isometry part must be orthogonal")

    def __call__(self, p: Vec2) -> Vec2:
        return self.isometry.apply(p).scaled(self.scale) + self.translation

    def fixed_point(self) -> Vec2:
        """Unique solution of (I - scale*U) x = translation."""
        s = Q3.of(self.scale)
        u = self.isometry
        # A = I - s U
        a = LinearMap2(
            Q3.ONE - s * u.m00,
            -(s * u.m01),
            -(s * u.m10),
            Q3.ONE - s * u.m11,
        )
        return a.inverse().apply(self.translation)


@dataclass(frozen=True)
class FractalSystem:
    """An IFS with shared contraction ratio 1/L plus its graph exponents."""

    name: str
    maps: tuple[Similitude, ...]
    L: Fraction
    essential_vertices: tuple[Vec2, ...]
    hausdorff_dim: float
    walk_dim: float
    chemical_exp: float
    osc_attested: bool = True

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def n_essential(self) -> int:
        return len(self.essential_vertices)

    @property
    def spectral_dim(self) -> float:
        return 2.0 * self.hausdorff_dim / self.walk_dim

    @property
    def has_identity_isometries(self) -> bool:
        return all(m.isometry.is_identity() for m in self.maps)

    def fingerprint(self) -> str:
        """Canonical content string, used for cache keys."""
        parts = [self.name, str(self.L), f"{self.walk_dim!r}", f"{self.chemical_exp!r}"]
        for m in self.maps:
            parts.append(
                f"{m.scale}|{m.isometry.m00},{m.isometry.m01},{m.isometry.m10},{m.isometry.m11}"
                f"|{m.translation}"
            )
        return ";".join(parts)


def build_system(
    name: str,
    L: Fraction | int,
    translations: list[Vec2],
    walk_dim: float,
    chemical_exp: float,
    isometries: list[LinearMap2] | None = None,
    osc_attested: bool = True,
    essential_override: list[Vec2] | None = None,
) -> FractalSystem:
    """Assemble and structurally validate a similitude system.

    ``essential_override`` pins the corner set instead of deriving it from
    the fixed points; cells and graphs are built on the declared corners, so
    a deliberately broken system can be validated against the geometry it
    claims to have.

    Raises :class:`FractalError` when the translations do not start at the
    origin or fewer than two essential fixed points exist.
    """
    L = Fraction(L)
    if L <= 1:
        raise FractalError(f"scaling factor L must exceed 1, got {L}")
    n = len(translations)
    if isometries is None:
        isometries = [LinearMap2.identity()] * n
    if len(isometries) != n:
        raise FractalError("one isometry per translation required")
    if translations[0] != Vec2.ZERO:
        raise FractalError("first translation must be the origin (nu_1 = 0)")
    maps = tuple(
        Similitude(Fraction(1, 1) / L, iso, nu)
        for iso, nu in zip(isometries, translations)
    )
    ess = list(essential_override) if essential_override else _essential_fixed_points(maps)
    if len(ess) < 2:
        raise FractalError(
            "fewer than two essential fixed points; not a simple nested fractal"
        )
    if chemical_exp <= 1:
        raise FractalError(f"chemical exponent must exceed 1, got {chemical_exp}")
    d = math.log(n) / math.log(float(L))
    return FractalSystem(
        name=name,
        maps=maps,
        L=L,
        essential_vertices=tuple(ess),
        hausdorff_dim=d,
        walk_dim=walk_dim,
        chemical_exp=chemical_exp,
        osc_attested=osc_attested,
    )


def fixed_points(system: FractalSystem) -> list[Vec2]:
    """Fixed points of the similitudes, in map order."""
    return [m.fixed_point() for m in system.maps]


def _essential_fixed_points(maps: tuple[Similitude, ...]) -> list[Vec2]:
    fps = [m.fixed_point() for m in maps]
    essential: list[Vec2] = []
    for i, x in enumerate(fps):
        if any(e == x for e in essential):
            continue
        witnessed = False
        for j, y in enumerate(fps):
            if y == x:
                continue
            for a in range(len(maps)):
                for b in range(len(maps)):
                    if a != b and maps[a](x) == maps[b](y):
                        witnessed = True
                        break
                if witnessed:
                    break
            if witnessed:
                break
        if witnessed:
            essential.append(x)
    return essential


# ---------------------------------------------------------------------------
# Shipped systems

GASKET_DW = math.log(5.0) / math.log(2.0)


def sierpinski_gasket() -> FractalSystem:
    """Equilateral unit-side gasket: translations (0,0), (1/2,0), (1/4, sqrt3/4)."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    translations = [
        Vec2.ZERO,
        Vec2.of(half, 0),
        Vec2(Q3.of(quarter), Q3.of(0, quarter)),
    ]
    return build_system(
        "sierpinski-gasket",
        2,
        translations,
        walk_dim=GASKET_DW,
        chemical_exp=GASKET_DW,
    )


def unit_interval_system() -> FractalSystem:
    """Two-map system on a segment: attractor [0,1] x {0}, K = 2, d_w = 2."""
    translations = [Vec2.ZERO, Vec2.of(Fraction(1, 2), 0)]
    return build_system(
        "unit-interval", 2, translations, walk_dim=2.0, chemical_exp=2.0
    )


# ---------------------------------------------------------------------------
# Cells


@dataclass(frozen=True)
class CellAddress:
    """The cell ``K<<level>> + offset`` inside some ``K<<M>>``.

    ``word[k]`` is the map index applied at scale ``M - k`` (coarsest letter
    first), so ``offset = sum_k L^(M-k) * nu_word[k]``.
    """

    level: int
    word: tuple[int, ...]
    offset: Vec2


def enumerate_cells(system: FractalSystem, M: int, level: int) -> list[CellAddress]:
    """All ``N**(M-level)`` level-cells tiling ``K<<M>>``, in word order."""
    if level > M:
        raise FractalError(f"cell level {level} exceeds ambient level {M}")
    words: list[tuple[tuple[int, ...], Vec2]] = [((), Vec2.ZERO)]
    for j in range(M, level, -1):  # letters at scales L^M, ..., L^(level+1)
        shifts = [m.translation.scaled(system.L**j) for m in system.maps]
        words = [(w + (a,), off + s) for w, off in words for a, s in enumerate(shifts)]
    return [CellAddress(level, w, off) for w, off in words]


def cell_corners(system: FractalSystem, cell: CellAddress) -> list[Vec2]:
    scale = system.L**cell.level
    return [v.scaled(scale) + cell.offset for v in system.essential_vertices]


def vertices_at_depth(system: FractalSystem, depth: int) -> set[Vec2]:
    """Exact vertex set of all depth-cells of ``K<<0>>`` (depth >= 0)."""
    points: set[Vec2] = set(system.essential_vertices)
    for _ in range(depth):
        points = {m(p) for m in system.maps for p in points}
    return points


# ---------------------------------------------------------------------------
# SNF axiom validation


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SnfReport:
    results: tuple[AxiomResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{r.name:>12}: {status}" + (f"  ({r.detail})" if r.detail else ""))
        return "\n".join(lines)


def _hull(points: list[Vec2]) -> list[Vec2]:
    """Exact convex hull (monotone chain); collinear inputs give a segment."""
    pts = sort_points(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[Vec2] = []
        for p in seq:
            while len(out) >= 2 and (out[-1] - out[-2]).cross(p - out[-2]).sign() <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 2 else pts


def _project(points: list[Vec2], axis: Vec2) -> tuple[Q3, Q3]:
    vals = [axis.dot(p) for p in points]
    lo = hi = vals[0]
    for v in vals[1:]:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi


def _interiors_overlap(hull_a: list[Vec2], hull_b: list[Vec2]) -> bool:
    """Separating-axis test: do the convex hulls share interior (open overlap
    on every axis)?  Touching along points or edges does not count."""
    axes: list[Vec2] = []
    for hull in (hull_a, hull_b):
        m = len(hull)
        for i in range(m):
            e = hull[(i + 1) % m] - hull[i]
            if e == Vec2.ZERO:
                continue
            axes.append(Vec2(-e.y, e.x))  # edge normal
            if m == 2:
                axes.append(e)  # degenerate hulls also separate along the line
    for axis in axes:
        lo_a, hi_a = _project(hull_a, axis)
        lo_b, hi_b = _project(hull_b, axis)
        if hi_a <= lo_b or hi_b <= lo_a:
            return False
    return True


def _segments_share_segment(hull_a: list[Vec2], hull_b: list[Vec2]) -> Vec2 | None:
    """Return an interior witness point if some edge pair overlaps in more
    than one point (collinear overlap); else None."""
    def edges(hull):
        m = len(hull)
        if m == 2:
            return [(hull[0], hull[1])]
        return [(hull[i], hull[(i + 1) % m]) for i in range(m)]

    for p1, p2 in edges(hull_a):
        d1 = p2 - p1
        for q1, q2 in edges(hull_b):
            d2 = q2 - q1
            if d1.cross(d2).sign() != 0 or d1.cross(q1 - p1).sign() != 0:
                continue  # not collinear
            # project onto d1
            t = [d1.dot(p1), d1.dot(p2)]
            u = [d1.dot(q1), d1.dot(q2)]
            lo_t, hi_t = min(t), max(t)
            lo_u, hi_u = min(u), max(u)
            lo, hi = max(lo_t, lo_u), min(hi_t, hi_u)
            if lo < hi:  # overlap of positive length
                # midpoint of the parameter overlap, mapped back to the plane
                mid = (lo + hi) / Q3.of(2)
                denom = d1.norm2()
                s = (mid - d1.dot(p1)) / denom
                return p1 + Vec2(d1.x * s, d1.y * s)
    return None


def _foreign_vertex(vertices, hull: list[Vec2], allowed) -> Vec2 | None:
    for p in vertices:
        if p not in allowed and _point_in_hull(p, hull, strict=False):
            return p
    return None


def _point_in_hull(p: Vec2, hull: list[Vec2], strict: bool) -> bool:
    m = len(hull)
    if m == 1:
        return (not strict) and p == hull[0]
    if m == 2:
        d = hull[1] - hull[0]
        if d.cross(p - hull[0]).sign() != 0:
            return False
        t0, t1 = d.dot(hull[0]), d.dot(hull[1])
        tp = d.dot(p)
        lo, hi = min(t0, t1), max(t0, t1)
        return lo < tp < hi if strict else lo <= tp <= hi
    for i in range(m):
        e = hull[(i + 1) % m] - hull[i]
        s = e.cross(p - hull[i]).sign()
        if s < 0 or (strict and s == 0):
            return False
    return True


def _overlap_witness(hull_a: list[Vec2], hull_b: list[Vec2]) -> Vec2 | None:
    for p in hull_a:
        if _point_in_hull(p, hull_b, strict=True):
            return p
    for q in hull_b:
        if _point_in_hull(q, hull_a, strict=True):
            return q
    # proper edge crossing
    def edges(hull):
        m = len(hull)
        return [(hull[i], hull[(i + 1) % m]) for i in range(m if m > 2 else 1)]

    for p1, p2 in edges(hull_a):
        d1 = p2 - p1
        for q1, q2 in edges(hull_b):
            d2 = q2 - q1
            denom = d1.cross(d2)
            if denom.sign() == 0:
                continue
            s = (q1 - p1).cross(d2) / denom
            t = (q1 - p1).cross(d1) / denom
            if Q3.ZERO < s < Q3.ONE and Q3.ZERO < t < Q3.ONE:
                return p1 + Vec2(d1.x * s, d1.y * s)
    return None


def validate_snf(system: FractalSystem, depth: int = 3) -> SnfReport:
    """Check the nested-fractal axioms at finite resolution, exactly.

    * nesting: pairwise cell intersections match corner-image intersections,
      both on depth-``depth`` vertex sets and geometrically (no hull-interior
      overlap, no shared boundary segments);
    * symmetry: the family of corner-image sets is closed under every
      bisector reflection of essential-vertex pairs;
    * connectivity: the one-step cell graph is connected;
    * open set condition: reported as asserted by configuration.
    """
    if depth < 1:
        raise FractalError("validation depth must be >= 1")
    results: list[AxiomResult] = []
    v0 = list(system.essential_vertices)

    results.append(
        AxiomResult(
            "essential",
            len(v0) >= 2,
            f"K = {len(v0)}",
        )
    )

    # Nesting
    deep = vertices_at_depth(system, depth - 1)
    child_vertices = [frozenset(m(p) for p in deep) for m in system.maps]
    child_corners = [frozenset(m(v) for v in v0) for m in system.maps]
    child_hulls = [_hull(list(c)) for c in child_corners]
    nesting_ok = True
    nesting_detail = ""
    for i in range(system.n_maps):
        for j in range(i + 1, system.n_maps):
            deep_common = child_vertices[i] & child_vertices[j]
            corner_common = child_corners[i] & child_corners[j]
            if deep_common != corner_common:
                nesting_ok = False
                extras = sort_points(deep_common ^ corner_common)
                nesting_detail = (
                    f"cells {i + 1},{j + 1}: vertex intersection differs, "
                    f"witness {extras[0]}"
                )
                break
            if _interiors_overlap(child_hulls[i], child_hulls[j]):
                nesting_ok = False
                w = _overlap_witness(child_hulls[i], child_hulls[j])
                nesting_detail = (
                    f"cells {i + 1},{j + 1}: interiors overlap"
                    + (f", witness {w}" if w is not None else "")
                )
                break
            w = _segments_share_segment(child_hulls[i], child_hulls[j])
            if w is not None:
                nesting_ok = False
                nesting_detail = f"cells {i + 1},{j + 1}: boundary segment shared, witness {w}"
                break
            # a vertex of one cell sitting on the other cell's hull without
            # being a shared corner also breaks nesting (hull edges belong to
            # the fractal, so contact there is fractal contact)
            w = _foreign_vertex(child_vertices[i], child_hulls[j], corner_common)
            w = w or _foreign_vertex(child_vertices[j], child_hulls[i], corner_common)
            if w is not None:
                nesting_ok = False
                nesting_detail = (
                    f"cells {i + 1},{j + 1}: non-corner contact, witness {w}"
                )
                break
        if not nesting_ok:
            break
    results.append(AxiomResult("nesting", nesting_ok, nesting_detail))

    # Symmetry under bisector reflections
    corner_sets = set(child_corners)
    symmetry_ok = True
    symmetry_detail = ""
    for a in range(len(v0)):
        for b in range(a + 1, len(v0)):
            refl = _bisector_reflection(v0[a], v0[b])
            for i, cs in enumerate(child_corners):
                image = frozenset(refl(p) for p in cs)
                if image not in corner_sets:
                    symmetry_ok = False
                    symmetry_detail = (
                        f"reflection across bisector of ({v0[a]}, {v0[b]}) maps "
                        f"cell {i + 1} corners outside the family"
                    )
                    break
            if not symmetry_ok:
                break
        if not symmetry_ok:
            break
    results.append(AxiomResult("symmetry", symmetry_ok, symmetry_detail))

    # Connectivity of the one-step cell graph
    points = sorted({p for cs in child_corners for p in cs}, key=lambda p: (float(p.x), float(p.y)))
    index = {p: k for k, p in enumerate(points)}
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(points))}
    for cs in child_corners:
        idx = [index[p] for p in cs]
        for u in idx:
            for v in idx:
                if u != v:
                    adjacency[u].add(v)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    connected = len(seen) == len(points)
    results.append(
        AxiomResult(
            "connectivity",
            connected,
            "" if connected else f"{len(points) - len(seen)} vertices unreachable",
        )
    )

    results.append(
        AxiomResult(
            "open-set",
            system.osc_attested,
            "asserted by configuration" if system.osc_attested else "not attested",
        )
    )
    return SnfReport(tuple(results))


def _bisector_reflection(x: Vec2, y: Vec2):
    """Exact reflection across the perpendicular bisector of segment [x, y]."""
    u = y - x
    mid = (x + y).scaled(Fraction(1, 2))
    denom = u.norm2()

    def refl(p: Vec2) -> Vec2:
        t = (p - mid).dot(u) / denom
        shift = Vec2(u.x * t * Q3.of(2), u.y * t * Q3.of(2))
        return p - shift

    return refl


# ---------------------------------------------------------------------------
# Vertex graphs


@dataclass(frozen=True)
class GraphCell:
    address: CellAddress
    corner_indices: tuple[int, ...]


@dataclass
class VertexGraph:
    """Level-``depth`` graph approximation of ``K<<M>>`` with vertex measure.

    Vertices are exact points; ``measure_exact`` sums to exactly ``N**M``.
    """

    system: FractalSystem
    M: int
    depth: int
    points: tuple[Vec2, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[GraphCell, ...]
    incident: tuple[int, ...]
    measure_exact: tuple[Fraction, ...]
    point_index: dict[Vec2, int] = field(repr=False)
    coords: np.ndarray = field(repr=False, compare=False)  # float points, n x 2

    def __post_init__(self):
        self.measure = np.array([float(m) for m in self.measure_exact])
        self._adjacency: list[list[int]] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> list[list[int]]:
        if self._adjacency is None:
            adj: list[list[int]] = [[] for _ in self.points]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adjacency = [sorted(nb) for nb in adj]
        return self._adjacency

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(nb) for nb in self.adjacency])

    def total_mass_exact(self) -> Fraction:
        return sum(self.measure_exact, Fraction(0))

    def index_of(self, point: Vec2) -> int:
        return self.point_index[point]

    def corner_indices(self) -> list[int]:
        """Indices of the global corners of ``K<<M>>``."""
        scale = self.system.L**self.M
        return [
            self.point_index[v.scaled(scale)] for v in self.system.essential_vertices
        ]

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return True
        seen = np.zeros(self.n_vertices, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n_vertices

    def distance_matrix(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


def build_vertex_graph(system: FractalSystem, M: int, depth: int) -> VertexGraph:
    """Graph on the corners of all scale ``L^-depth`` cells of ``K<<M>>``.

    Edges join corners of a common cell; each cell spreads its exact mass
    ``N**-depth`` equally over its corners.  Cells come in word order (as
    :func:`enumerate_cells` lists them) and points in order of first
    occurrence among their corners.

    The geometry is done on an integer lattice: every coordinate ``a + b
    sqrt3`` is held as the integers ``(a S, b S)`` over one common
    denominator S of the scaled translations and base corners, so cell
    offsets and corners are int64 sums and the points are deduplicated as
    integer rows.  Each exact point and cell offset is formed once, and
    ``coords`` comes from the integers as ``A/S + (B/S) * sqrt3``, the same
    bits as :meth:`Vec2.to_floats`.
    """
    if depth < 0:
        raise FractalError("depth must be >= 0")
    if -depth > M:
        raise FractalError(f"cell level {-depth} exceeds ambient level {M}")
    if not system.has_identity_isometries:
        raise FractalError(
            "vertex graphs require identity isometry parts (shipped fractals)"
        )
    # letters at scales L^M, ..., L^(1-depth), then the corners of the base cell
    shifts = [
        [m.translation.scaled(system.L**j) for m in system.maps]
        for j in range(M, -depth, -1)
    ]
    base = [v.scaled(system.L ** (-depth)) for v in system.essential_vertices]
    denom, (*letters, base_int) = _common_lattice(shifts + [base])
    offsets = np.zeros((1, 4), dtype=np.int64)
    for shift in letters:  # word order: the first letter varies slowest
        offsets = (offsets[:, None, :] + shift[None, :, :]).reshape(-1, 4)
    corners = (offsets[:, None, :] + base_int[None, :, :]).reshape(-1, 4)
    rows, first, inverse = np.unique(
        corners, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    idx = rank[inverse.ravel()].reshape(len(offsets), len(base))
    lattice = rows[order]
    n = len(lattice)

    incident = np.bincount(idx.ravel(), minlength=n)
    a, b = np.triu_indices(len(base), 1)
    u, v = idx[:, a].ravel(), idx[:, b].ravel()
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))

    fractions = {
        k: Fraction(k, denom)
        for k in np.unique(np.r_[offsets.ravel(), lattice.ravel()]).tolist()
    }

    def exact(r) -> Vec2:
        return Vec2(
            Q3(fractions[r[0]], fractions[r[1]]), Q3(fractions[r[2]], fractions[r[3]])
        )

    points = tuple(exact(r) for r in lattice.tolist())
    words = itertools.product(range(system.n_maps), repeat=M + depth)
    cells = tuple(
        GraphCell(CellAddress(-depth, word, exact(r)), tuple(i))
        for word, r, i in zip(words, offsets.tolist(), idx.tolist())
    )
    cell_mass = Fraction(system.n_maps) ** (-depth)
    masses = {c: Fraction(c) * cell_mass / system.n_essential for c in set(incident.tolist())}
    # columns (x.a, y.a) and (x.b, y.b): the rational and the sqrt3 parts
    coords = lattice[:, 0::2] / denom + (lattice[:, 1::2] / denom) * _SQRT3
    return VertexGraph(
        system=system,
        M=M,
        depth=depth,
        points=points,
        edges=tuple(zip((keys // n).tolist(), (keys % n).tolist())),
        cells=cells,
        incident=tuple(incident.tolist()),
        measure_exact=tuple(masses[c] for c in incident.tolist()),
        point_index={p: k for k, p in enumerate(points)},
        coords=coords,
    )


def _common_lattice(groups: list[list[Vec2]]) -> tuple[int, list[np.ndarray]]:
    """One common denominator S of every coordinate in ``groups`` and, per
    group, the numerators ``(x.a, x.b, y.a, y.b) * S`` as int64 rows.

    Raises :class:`FractalError` when a sum of one row from each group, or
    S itself, could leave the range in which int64 sums and float64
    quotients are exact (2^53)."""
    parts = [[(p.x.a, p.x.b, p.y.a, p.y.b) for p in group] for group in groups]
    denom = math.lcm(*(f.denominator for part in parts for row in part for f in row))
    ints = [[[f.numerator * (denom // f.denominator) for f in row] for row in part]
            for part in parts]
    reach = sum(max(abs(k) for row in part for k in row) for part in ints)
    if max(reach, denom) >= 2**53:
        raise FractalError("graph too fine for the integer lattice of its coordinates")
    return denom, [np.array(part, dtype=np.int64).reshape(-1, 4) for part in ints]


def gasket_vertex_count(depth: int) -> int:
    """Closed-form vertex count of the unit-gasket graph at a given depth."""
    return (3 ** (depth + 1) + 3) // 2
