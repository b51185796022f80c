"""Good labelings, rotation groups, and the folding map onto one complex.

A labeling assigns one of K letters to every M-complex corner inside a
working window ``K<<window>>`` so that each complex carries a rotation
matching its corner labels to the base complex.  The induced projection
(x in complex Delta) -> R_Delta(x - nu_Delta) folds the window onto
``K<<M>>``; composing the free walk with it gives the reflected walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import LinearMap2, Q3, Vec2, barycenter
from .geometry import (
    FractalSystem,
    VertexGraph,
    affine_images,
    enumerate_cells,
    rational_affine,
    _point_in_hull,
    _hull,
)


class LabelingError(ValueError):
    """Raised when no consistent labeling exists or a query leaves the window."""


@dataclass(frozen=True)
class AffineRotation:
    """Rotation about a fixed center, exact."""

    linear: LinearMap2
    center: Vec2

    def apply(self, p: Vec2) -> Vec2:
        return self.linear.apply(p - self.center) + self.center

    def inverse(self) -> "AffineRotation":
        return AffineRotation(self.linear.transpose(), self.center)

    def compose(self, other: "AffineRotation") -> "AffineRotation":
        if other.center != self.center:
            raise ValueError("can only compose rotations about a common center")
        return AffineRotation(self.linear @ other.linear, self.center)

    def is_identity(self) -> bool:
        return self.linear.is_identity()


@dataclass(frozen=True)
class RotationGroup:
    """The K rotations about the barycenter permuting the corners of K<<M>>."""

    M: int
    center: Vec2
    elements: tuple[AffineRotation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def rotation_group(system: FractalSystem, M: int) -> RotationGroup:
    """Find all rotations about the barycenter of ``K<<M>>`` mapping its
    corner set onto itself; there must be exactly K of them."""
    corners = system.corners(M)
    center = barycenter(corners)
    corner_set = set(corners)
    base = corners[0] - center
    if base == Vec2.ZERO:
        raise LabelingError("degenerate corner coincides with barycenter")
    found: list[AffineRotation] = []
    for target in corners:
        rot = _rotation_taking(base, target - center)
        if rot is None:
            continue
        aff = AffineRotation(rot, center)
        if {aff.apply(c) for c in corners} == corner_set and aff not in found:
            found.append(aff)
    if len(found) != len(corners):
        raise LabelingError(
            f"expected exactly {len(corners)} corner rotations, found {len(found)}"
        )
    # identity first, then deterministic by image of the first corner
    found.sort(key=lambda a: (not a.is_identity(), _vec_key(a.apply(corners[0]))))
    return RotationGroup(M=M, center=center, elements=tuple(found))


def _rotation_taking(u: Vec2, v: Vec2) -> LinearMap2 | None:
    """Exact rotation matrix R with R u = v and |u| = |v|, if one exists."""
    n = u.norm2()
    if n != v.norm2():
        return None
    cos = u.dot(v) / n
    sin = u.cross(v) / n
    if cos * cos + sin * sin != Q3.ONE:
        return None
    return LinearMap2.rotation(cos, sin)


def _vec_key(p: Vec2) -> tuple[float, float]:
    return (float(p.x), float(p.y))


@dataclass(frozen=True)
class ComplexInfo:
    word: tuple[int, ...]
    offset: Vec2
    corners: tuple[Vec2, ...]
    rotation: AffineRotation
    rotation_index: int


@dataclass
class LabelMap:
    """A good labeling of all M-complex corners within ``K<<window>>``."""

    system: FractalSystem
    M: int
    window: int
    group: RotationGroup
    complexes: tuple[ComplexInfo, ...]
    labels: dict[Vec2, int]
    base_corner_labels: dict[Vec2, int]

    @property
    def alphabet_size(self) -> int:
        return self.group.order

    def __post_init__(self):
        self._by_word = {c.word: c for c in self.complexes}
        self._hulls = {
            c.word: _hull(list(c.corners)) for c in self.complexes
        }

    # -- projection -------------------------------------------------------

    def project_point(self, x: Vec2) -> Vec2:
        """Fold a window point onto ``K<<M>>``; boundary points agree from
        every containing complex (checked)."""
        images = []
        for c in self.complexes:
            if _point_in_hull(x, self._hulls[c.word], strict=False):
                images.append(self._fold(c, x))
        if not images:
            raise LabelingError(f"point {x} lies outside the labeled window")
        first = images[0]
        for img in images[1:]:
            if img != first:
                raise LabelingError(
                    f"inconsistent folding for {x}: {first} vs {img}"
                )
        return first

    def _fold(self, c: ComplexInfo, x: Vec2) -> Vec2:
        return c.rotation.apply(x - c.offset)

    def preimages_and_rank(
        self, y: Vec2
    ) -> tuple[list[Vec2], dict[Vec2, int] | None]:
        """All folding preimages of ``y`` in the window; when ``y`` is a corner
        of ``K<<M>>`` also the number of complexes meeting at each preimage."""
        base = self._by_word[tuple([0] * (self.window - self.M))]
        if not _point_in_hull(y, self._hulls[base.word], strict=False):
            raise LabelingError(f"target {y} is not in the base complex")
        pre: list[Vec2] = []
        seen = set()
        for c in self.complexes:
            p = c.rotation.inverse().apply(y) + c.offset
            if p not in seen:
                seen.add(p)
                pre.append(p)
        ranks = None
        if y in self.base_corner_labels:
            ranks = {
                p: sum(1 for c in self.complexes if p in c.corners) for p in pre
            }
        return pre, ranks

    # -- graph folding ----------------------------------------------------

    def fold_graph_vertices(
        self, graph: VertexGraph, folded: VertexGraph
    ) -> np.ndarray:
        """Map every window-graph vertex to its folded-graph index.

        Cells and complexes both come in word order, so each complex owns
        one block of cells.  Its fold maps the lattice rows of their corners
        exactly, and one join finds every image in the folded graph.  A
        vertex shared by complexes must get one image from all of them: the
        folding is well defined on shared vertices.
        """
        if graph.M != self.window:
            raise LabelingError(
                f"graph lives on level {graph.M}, labeling window is {self.window}"
            )
        blocks = graph.cells.reshape(len(self.complexes), -1)
        vertices = [np.unique(block) for block in blocks]
        images, denom = affine_images(
            [
                (graph.lattice[v], *rational_affine(lambda x, c=c: self._fold(c, x)))
                for v, c in zip(vertices, self.complexes)
            ],
            graph.lattice_denom,
        )
        found = folded.positions(images, denom)
        if (found < 0).any():
            raise LabelingError("a folded window vertex is not a folded-graph vertex")
        vertices = np.concatenate(vertices)
        mapping = np.empty(graph.n_vertices, dtype=np.int64)
        mapping[vertices] = found
        if not np.array_equal(mapping[vertices], found):
            raise LabelingError("complexes sharing a vertex fold it apart")
        return mapping

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Labeling dump for golden-file comparison."""
        lines = [f"# good labeling  M={self.M}  window={self.window}  K={self.alphabet_size}"]
        for c in self.complexes:
            word = "".join(str(w + 1) for w in c.word) or "-"
            lines.append(f"complex {word} rotation {c.rotation_index}")
        for p in sorted(self.labels, key=_vec_key):
            lines.append(f"vertex {p} -> a{self.labels[p] + 1}")
        return "\n".join(lines) + "\n"


def build_good_labeling(
    system: FractalSystem, M: int, window: int | None = None
) -> LabelMap:
    """Construct a good labeling of the M-complex corners inside
    ``K<<window>>`` by breadth-first propagation from the base complex.

    Complexes are visited in deterministic (word) order; per complex the
    first rotation consistent with all labels assigned so far is taken.
    Raises :class:`LabelingError` naming the offending complex if no rotation
    is consistent.
    """
    if window is None:
        window = M + 2
    if window <= M:
        raise LabelingError(f"window level {window} must exceed M = {M}")
    group = rotation_group(system, M)
    base_corners = system.corners(M)
    corners_by_word: dict[tuple[int, ...], tuple[Vec2, ...]] = {}
    offset_by_word: dict[tuple[int, ...], Vec2] = {}
    for cell in enumerate_cells(system, window, M):
        corners_by_word[cell.word] = tuple(v + cell.offset for v in base_corners)
        offset_by_word[cell.word] = cell.offset
    base_word = tuple([0] * (window - M))
    base_corner_labels = {c: i for i, c in enumerate(base_corners)}

    # adjacency between complexes through shared corners
    touching: dict[Vec2, list[tuple[int, ...]]] = {}
    for word, corners in corners_by_word.items():
        for c in corners:
            touching.setdefault(c, []).append(word)

    labels: dict[Vec2, int] = {}
    chosen: dict[tuple[int, ...], tuple[AffineRotation, int]] = {}

    def try_assign(word: tuple[int, ...]) -> None:
        offset = offset_by_word[word]
        corners = corners_by_word[word]
        for r_index, rot in enumerate(group.elements):
            candidate: dict[Vec2, int] = {}
            ok = True
            for v in corners:
                image = rot.apply(v - offset)
                lab = base_corner_labels.get(image)
                if lab is None:
                    ok = False
                    break
                existing = labels.get(v, candidate.get(v))
                if existing is not None and existing != lab:
                    ok = False
                    break
                candidate[v] = lab
            if ok:
                labels.update(candidate)
                chosen[word] = (rot, r_index)
                return
        raise LabelingError(
            f"no consistent rotation for complex {word}: good labeling fails"
        )

    # BFS from the base complex
    visited = {base_word}
    frontier = [base_word]
    try_assign(base_word)
    while frontier:
        next_words: set[tuple[int, ...]] = set()
        for word in frontier:
            for c in corners_by_word[word]:
                for other in touching[c]:
                    if other not in visited:
                        next_words.add(other)
        frontier = sorted(next_words)
        for word in frontier:
            visited.add(word)
            try_assign(word)
    if len(visited) != len(corners_by_word):
        # disconnected window cannot happen for connected SNFs
        raise LabelingError("window complexes are not connected")

    complexes = tuple(
        ComplexInfo(
            word=word,
            offset=offset_by_word[word],
            corners=corners_by_word[word],
            rotation=chosen[word][0],
            rotation_index=chosen[word][1],
        )
        for word in sorted(corners_by_word)
    )
    return LabelMap(
        system=system,
        M=M,
        window=window,
        group=group,
        complexes=complexes,
        labels=labels,
        base_corner_labels=base_corner_labels,
    )
