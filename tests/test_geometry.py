import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from fractalheat import (
    CellAddress,
    FractalError,
    build_system,
    build_vertex_graph,
    enumerate_cells,
    fixed_points,
    gasket_vertex_count,
    validate_snf,
)
from fractalheat.exact import LinearMap2, Q3, Vec2
from fractalheat.geometry import Csr, Similitude, hop_distances

from conftest import exact_points


def test_gasket_fixed_points(gasket):
    fps = fixed_points(gasket)
    assert fps[0] == Vec2.ZERO
    assert fps[1] == Vec2.of(1, 0)
    assert fps[2] == Vec2(Q3.of(Fraction(1, 2)), Q3.of(0, Fraction(1, 2)))


def _general_fixed_point(scale, translation, u=LinearMap2.identity()):
    """The fixed point of x -> scale U x + translation as the general solve
    forms it: (I - scale U)^-1 translation, inverted through the
    determinant."""
    s = Q3.of(scale)
    a = LinearMap2(Q3.ONE - s * u.m00, -(s * u.m01), -(s * u.m10), Q3.ONE - s * u.m11)
    inv = (a.m00 * a.m11 - a.m01 * a.m10).inverse()
    return LinearMap2(a.m11 * inv, -a.m01 * inv, -a.m10 * inv, a.m00 * inv).apply(translation)


def test_fixed_point_matches_general_solve(gasket, interval):
    maps = [*gasket.maps, *interval.maps]
    maps += [
        Similitude(Fraction(1, 3), Vec2(Q3.of(Fraction(1, 5), Fraction(2, 7)), Q3.of(Fraction(-3, 4)))),
        Similitude(Fraction(5, 8), Vec2(Q3.of(0, Fraction(-1, 9)), Q3.of(Fraction(7, 2), 1))),
    ]
    for m in maps:
        x = m.fixed_point()
        assert x == _general_fixed_point(m.scale, m.translation)
        assert m(x) == x


def test_gasket_essential_vertices_are_all_fixed_points(gasket):
    assert set(gasket.essential_vertices) == set(fixed_points(gasket))
    assert gasket.n_essential == 3


def test_essential_witness_exists(gasket):
    # the first corner is glued to the third: Psi_3(v1) = Psi_1(v3)
    v1, v3 = gasket.essential_vertices[0], gasket.essential_vertices[2]
    assert gasket.maps[2](v1) == gasket.maps[0](v3)


def test_single_map_system_rejected():
    with pytest.raises(FractalError):
        build_system(
            "lonely", 2, [Vec2.ZERO], walk_dim=2.0, chemical_exp=2.0, osc_attested=True
        )


def test_dimensions(gasket, interval):
    import math

    assert abs(gasket.hausdorff_dim - math.log(3) / math.log(2)) < 1e-15
    assert abs(gasket.spectral_dim - 2 * gasket.hausdorff_dim / gasket.walk_dim) < 1e-15
    assert interval.hausdorff_dim == pytest.approx(1.0)
    assert interval.n_essential == 2


class TestValidation:
    def test_gasket_passes(self, gasket):
        report = validate_snf(gasket)
        assert report.ok, report.summary()

    def test_interval_passes(self, interval):
        report = validate_snf(interval)
        assert report.ok
        assert report.result("connectivity").passed

    def test_perturbed_translation_fails_nesting(self, gasket):
        translations = [
            Vec2.ZERO,
            Vec2.of(Fraction(1, 2) - Fraction(1, 100), 0),
            Vec2(Q3.of(Fraction(1, 4)), Q3.of(0, Fraction(1, 4))),
        ]
        broken = build_system(
            "perturbed", 2, translations, walk_dim=2.0, chemical_exp=2.0,
            osc_attested=True, essential_override=list(gasket.essential_vertices),
        )
        report = validate_snf(broken)
        nesting = report.result("nesting")
        assert not nesting.passed
        assert "witness" in nesting.detail

    @pytest.mark.parametrize(
        "kind, detail",
        [
            ("overlapping", "cells 1,2: vertex intersection differs, witness (1/4, 0)"),
            ("sliding", "cells 1,2: boundary segment shared, witness (1/2, 51/200)"),
            ("touching", "cells 1,2: non-corner contact, witness (5/12, 1/12*sqrt3)"),
        ],
    )
    def test_each_nesting_check_names_its_failure(self, gasket, kind, detail):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        systems = {
            # [0, 1/2] and [1/4, 3/4] share vertices that are corners of neither
            "overlapping": (
                [Vec2.ZERO, Vec2.of(quarter, 0), Vec2.of(half, 0)],
                [Vec2.of(0, 0), Vec2.of(1, 0)],
            ),
            # the second square slides 1/100 up the first one's right edge,
            # so the edges overlap with no vertex in common
            "sliding": (
                [Vec2.ZERO, Vec2.of(half, Fraction(1, 100)), Vec2.of(0, half),
                 Vec2.of(half, half)],
                [Vec2.of(0, 0), Vec2.of(1, 0), Vec2.of(0, 1), Vec2.of(1, 1)],
            ),
            # the second triangle's corner sits a third of the way up the
            # first one's right edge
            "touching": (
                [Vec2.ZERO, Vec2(Q3.of(Fraction(5, 12)), Q3.of(0, Fraction(1, 12))),
                 Vec2(Q3.of(quarter), Q3.of(0, quarter))],
                list(gasket.essential_vertices),
            ),
        }
        translations, corners = systems[kind]
        broken = build_system(
            kind, 2, translations, walk_dim=2.0, chemical_exp=2.0,
            osc_attested=True, essential_override=corners,
        )
        nesting = validate_snf(broken).result("nesting")
        assert not nesting.passed
        assert nesting.detail == detail

    def test_separated_translation_fails_connectivity_or_symmetry(self, gasket):
        translations = [
            Vec2.ZERO,
            Vec2.of(Fraction(1, 2) + Fraction(1, 100), 0),
            Vec2(Q3.of(Fraction(1, 4)), Q3.of(0, Fraction(1, 4))),
        ]
        broken = build_system(
            "drifted", 2, translations, walk_dim=2.0, chemical_exp=2.0,
            osc_attested=True, essential_override=list(gasket.essential_vertices),
        )
        report = validate_snf(broken)
        assert [r.name for r in report.results if not r.passed] == ["symmetry", "connectivity"]
        assert report.result("symmetry").detail == (
            "reflection across bisector of ((0, 0), (1, 0)) maps cell 1 corners "
            "outside the family"
        )
        assert report.result("connectivity").detail == "3 vertices unreachable"

    def test_osc_reported_as_asserted(self, gasket):
        report = validate_snf(gasket)
        assert report.result("open-set").detail == "asserted by configuration"


class TestCells:
    def test_level0_cells_of_k1(self, gasket):
        cells = enumerate_cells(gasket, 1, 0)
        offsets = [c.offset for c in cells]
        assert offsets == [
            Vec2.ZERO,
            Vec2.of(1, 0),
            Vec2(Q3.of(Fraction(1, 2)), Q3.of(0, Fraction(1, 2))),
        ]

    def test_identity_cell(self, gasket):
        cells = enumerate_cells(gasket, 2, 2)
        assert len(cells) == 1
        assert cells[0].word == ()
        assert cells[0].offset == Vec2.ZERO

    def test_27_cells_distinct(self, gasket):
        cells = enumerate_cells(gasket, 3, 0)
        assert len(cells) == 27
        assert len({c.offset for c in cells}) == 27

    def test_level_above_ambient_rejected(self, gasket):
        with pytest.raises(FractalError):
            enumerate_cells(gasket, 1, 2)

    @pytest.mark.parametrize(
        "name,M,level",
        [("gasket", 1, 0), ("gasket", 2, -1), ("gasket", 0, -3), ("gasket", 2, 2),
         ("gasket", 3, 1), ("interval", 1, -3), ("interval", 0, -5), ("interval", 2, 0)],
    )
    def test_matches_word_sums(self, request, name, M, level):
        # reference: every word of itertools.product summed on its own
        system = request.getfixturevalue(name)
        scales = [system.L**j for j in range(M, level, -1)]
        expected = []
        for word in itertools.product(range(system.n_maps), repeat=M - level):
            offset = Vec2.ZERO
            for k, letter in enumerate(word):
                offset = offset + system.maps[letter].translation.scaled(scales[k])
            expected.append(CellAddress(level, word, offset))
        assert enumerate_cells(system, M, level) == expected


class TestVertexGraph:
    def test_small_graph_counts(self, gasket):
        g = build_vertex_graph(gasket, 0, 1)
        assert g.n_vertices == 6
        assert g.n_edges == 9

    @pytest.mark.parametrize("depth", range(6))
    def test_count_formula(self, gasket, depth):
        g = build_vertex_graph(gasket, 0, depth)
        assert g.n_vertices == gasket_vertex_count(depth)

    def test_total_mass_exact(self, gasket):
        for M in (0, 1):
            g = build_vertex_graph(gasket, M, 2)
            assert g.total_mass_exact() == Fraction(3) ** M

    def test_degrees(self, gasket):
        g = build_vertex_graph(gasket, 0, 3)
        corners = set(g.corner_indices())
        for idx in range(g.n_vertices):
            expected = 2 if idx in corners else 4
            assert g.degrees[idx] == expected

    def test_deterministic_rebuild(self, gasket):
        a = build_vertex_graph(gasket, 0, 3)
        b = build_vertex_graph(gasket, 0, 3)
        assert np.array_equal(a.lattice, b.lattice)
        assert a.lattice_denom == b.lattice_denom
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.incident, b.incident)

    def test_connected(self, gasket, interval):
        assert build_vertex_graph(gasket, 1, 2).is_connected()
        assert build_vertex_graph(interval, 0, 4).is_connected()

    def test_every_edge_in_one_cell(self, gasket):
        g = build_vertex_graph(gasket, 0, 2)
        edge_cells = {}
        for idx in g.cells.tolist():
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    e = tuple(sorted((idx[a], idx[b])))
                    edge_cells.setdefault(e, 0)
                    edge_cells[e] += 1
        assert set(edge_cells) == set(map(tuple, g.edges.tolist()))
        assert all(count == 1 for count in edge_cells.values())

    def test_interval_graph_is_path(self, interval):
        g = build_vertex_graph(interval, 0, 3)
        assert g.n_vertices == 9
        assert g.n_edges == 8
        assert sorted(g.degrees.tolist()) == [1, 1] + [2] * 7


def _fraction_graph(system, M, depth):
    """The vertex graph as an exact Fraction loop forms it: cells in word
    order, each corner deduplicated by a dict of exact points, edges as a
    sorted set.  The oracle for the integer-lattice build."""
    points, point_index, incident, edges, cells = [], {}, [], set(), []
    base = [v.scaled(system.L ** (-depth)) for v in system.essential_vertices]
    for cell in enumerate_cells(system, M, -depth):
        idx = []
        for corner in base:
            p = corner + cell.offset
            if p not in point_index:
                point_index[p] = len(points)
                points.append(p)
                incident.append(0)
            incident[point_index[p]] += 1
            idx.append(point_index[p])
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                edges.add((min(idx[a], idx[b]), max(idx[a], idx[b])))
        cells.append(idx)
    cell_mass = Fraction(system.n_maps) ** (-depth)
    measure = [Fraction(c) * cell_mass / system.n_essential for c in incident]
    return points, sorted(edges), cells, incident, measure


@pytest.mark.parametrize("name", ["gasket", "interval"])
@pytest.mark.parametrize("M", range(3))
@pytest.mark.parametrize("depth", range(6))
def test_lattice_build_matches_fraction_loop(request, name, M, depth):
    system = request.getfixturevalue(name)
    g = build_vertex_graph(system, M, depth)
    points, edges, cells, incident, measure = _fraction_graph(system, M, depth)
    assert exact_points(g) == points
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [list(e) for e in edges]
    assert g.cells.dtype == np.int64 and g.cells.tolist() == cells
    assert g.incident.dtype == np.int64 and g.incident.tolist() == incident
    assert g.total_mass_exact() == sum(measure) == Fraction(system.n_maps) ** M
    coords = np.array([p.to_floats() for p in points])
    assert g.coords.tobytes() == coords.tobytes() and g.coords.shape == coords.shape
    exact_measure = np.array([float(m) for m in measure])
    assert g.measure.tobytes() == exact_measure.tobytes()


def test_lattice_rejects_coordinates_past_float_range(gasket):
    # L^60 denominators leave the range in which the lattice is exact
    with pytest.raises(FractalError, match="integer lattice"):
        build_vertex_graph(gasket, 0, 60)


@pytest.mark.parametrize("M, depth", [(-1, 0), (-3, 2)])
def test_lattice_rejects_cells_above_ambient_level(gasket, M, depth):
    with pytest.raises(FractalError, match="exceeds ambient level"):
        build_vertex_graph(gasket, M, depth)


@pytest.mark.parametrize("name", ["gasket", "interval"])
@pytest.mark.parametrize("M", range(3))
@pytest.mark.parametrize("depth", range(6))
def test_point_positions_match_index_of(request, name, M, depth):
    # the folded graph's points in its window graph, as ReflectionStudy reads them
    system = request.getfixturevalue(name)
    folded = build_vertex_graph(system, M, depth)
    window = build_vertex_graph(system, M + 1, depth)
    index_of = {p: k for k, p in enumerate(exact_points(window))}
    expected = np.array([index_of[p] for p in exact_points(folded)])
    got = window.positions(folded.lattice, folded.lattice_denom)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    # and no window point outside K<<M>> is found in the folded graph
    inside = np.isin(np.arange(window.n_vertices), expected)
    back = folded.positions(window.lattice, window.lattice_denom)
    assert np.array_equal(back[expected], np.arange(folded.n_vertices))
    assert (back[~inside] == -1).all()


def test_corner_off_the_lattice_raises(gasket):
    # every point moved by (1 + sqrt3) / S: no vertex is a corner any more
    g = build_vertex_graph(gasket, 1, 2)
    moved = dataclasses.replace(g, lattice=g.lattice + 1)
    with pytest.raises(FractalError, match="not a vertex of the graph"):
        moved.corner_indices()


def _csgraph_hops(adjacency) -> np.ndarray:
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import shortest_path

    m = csr_array(
        (adjacency.data, adjacency.indices, adjacency.indptr), shape=(adjacency.n,) * 2
    )
    return shortest_path(m, method="D", unweighted=True)


@pytest.mark.parametrize(
    "name, M, depth",
    [("gasket", M, depth) for M in (0, 1, 2) for depth in (2, 3, 4, 5)]
    + [("interval", 0, 4), ("interval", 2, 5)],
)
def test_hop_distances_match_csgraph_bitwise(request, name, M, depth):
    adjacency = build_vertex_graph(request.getfixturevalue(name), M, depth).adjacency
    hops = hop_distances(adjacency)
    assert hops.dtype == np.float64
    assert hops.tobytes() == _csgraph_hops(adjacency).tobytes()


def test_hop_distances_of_a_disconnected_graph():
    # a path 0-1-2, a pair 3-4 whose rows come out of order, and a lone 5
    edges = np.array([[0, 1], [1, 2], [4, 3]])
    rows, cols = np.r_[edges[:, 0], edges[:, 1]], np.r_[edges[:, 1], edges[:, 0]]
    adjacency = Csr.from_coo(rows, cols, np.ones(len(rows)), 6)
    hops = hop_distances(adjacency)
    assert np.isinf(hops).sum() == 36 - 9 - 4 - 1
    assert hops[0, 2] == 2.0 and hops[4, 3] == 1.0 and hops[5, 5] == 0.0
    assert hops.tobytes() == _csgraph_hops(adjacency).tobytes()
