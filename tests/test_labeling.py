from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from fractalheat import (
    LabelingError,
    build_good_labeling,
    build_vertex_graph,
    rotation_group,
)
from fractalheat.exact import Vec2

GOLDEN = Path(__file__).parent / "golden"


class TestRotationGroup:
    def test_gasket_has_three_rotations(self, gasket):
        grp = rotation_group(gasket, 0)
        assert grp.order == 3
        assert sum(1 for r in grp.elements if r.is_identity()) == 1

    def test_rotations_permute_corners_exactly(self, gasket):
        for M in (0, 1):
            grp = rotation_group(gasket, M)
            corners = {v.scaled(gasket.L**M) for v in gasket.essential_vertices}
            for rot in grp.elements:
                assert {rot.apply(c) for c in corners} == corners

    def test_closure(self, gasket):
        grp = rotation_group(gasket, 0)
        _, r1, r2 = grp.elements
        assert r1.compose(r2).is_identity() or r2.compose(r1).is_identity()
        assert r1.compose(r1).linear == r2.linear or r1.compose(r1).is_identity()

    def test_interval_group_order_two(self, interval):
        grp = rotation_group(interval, 0)
        assert grp.order == 2
        flip = [r for r in grp.elements if not r.is_identity()][0]
        assert flip.apply(Vec2.ZERO) == Vec2.of(1, 0)


class TestGoodLabeling:
    def test_window_two_succeeds(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        assert len(lm.complexes) == 9
        # every complex got a rotation and all its corners are labeled
        for c in lm.complexes:
            assert all(v in lm.labels for v in c.corners)

    def test_base_labels_bijective(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        base_labels = [lm.labels[v] for v in gasket.essential_vertices]
        assert sorted(base_labels) == [0, 1, 2]

    def test_shared_vertices_consistent(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        # recompute each complex's labels from its rotation; shared vertices
        # must agree from every incident complex
        seen = {}
        for c in lm.complexes:
            for v in c.corners:
                img = c.rotation.apply(v - c.offset)
                lab = lm.base_corner_labels[img]
                if v in seen:
                    assert seen[v] == lab, f"vertex {v} double-labeled"
                seen[v] = lab

    def test_window_must_exceed_m(self, gasket):
        with pytest.raises(LabelingError):
            build_good_labeling(gasket, 1, 1)

    def test_interval_labeling(self, interval):
        lm = build_good_labeling(interval, 0, 2)
        assert len(lm.complexes) == 4
        assert len(set(lm.labels.values())) == 2

    def test_golden_dump(self, gasket):
        lm = build_good_labeling(gasket, 0, 1)
        expected = (GOLDEN / "labeling_gasket_M0_W1.txt").read_text()
        assert lm.to_text() == expected


class TestProjection:
    def test_identity_on_base_complex(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        for v in gasket.essential_vertices:
            assert lm.project_point(v) == v
        inner = Vec2.of(Fraction(1, 4), 0)
        assert lm.project_point(inner) == inner

    def test_idempotent(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        x = Vec2.of(Fraction(3, 2), 0)  # inside a neighbor complex
        y = lm.project_point(x)
        assert lm.project_point(y) == y

    def test_outside_window_rejected(self, gasket):
        lm = build_good_labeling(gasket, 0, 1)
        with pytest.raises(LabelingError):
            lm.project_point(Vec2.of(10, 10))

    def test_boundary_vertex_consistent_between_complexes(self, gasket):
        lm = build_good_labeling(gasket, 0, 2)
        junction = Vec2.of(1, 0)  # shared by two 0-complexes in the window
        owners = [
            c for c in lm.complexes if junction in c.corners
        ]
        assert len(owners) == 2
        images = {c.rotation.apply(junction - c.offset) for c in owners}
        assert len(images) == 1

    def test_graph_folding_well_defined(self, gasket, cache):
        lm = build_good_labeling(gasket, 0, 2)
        window_graph = cache.graph(gasket, 2, 3)
        folded_graph = cache.graph(gasket, 0, 3)
        mapping = lm.fold_graph_vertices(window_graph, folded_graph)
        assert mapping.shape == (window_graph.n_vertices,)
        # every folded vertex is hit
        assert set(mapping.tolist()) == set(range(folded_graph.n_vertices))
        # restricted to the base complex the folding is the identity, exactly
        for f_idx, point in enumerate(folded_graph.points):
            assert mapping[window_graph.index_of(point)] == f_idx


class TestPreimages:
    def test_nonvertex_point_has_one_preimage_per_complex(self, gasket):
        lm = build_good_labeling(gasket, 0, 1)
        pre, ranks = lm.preimages_and_rank(Vec2.of(Fraction(1, 8), 0))
        assert len(pre) == 3
        assert ranks is None

    def test_junction_rank_two(self, gasket):
        lm = build_good_labeling(gasket, 0, 1)
        pre, ranks = lm.preimages_and_rank(Vec2.of(1, 0))
        assert ranks is not None
        junctions = [p for p, r in ranks.items() if r == 2]
        corners = [p for p, r in ranks.items() if r == 1]
        assert junctions and corners

    def test_window_corner_rank_one(self, gasket):
        lm = build_good_labeling(gasket, 0, 1)
        pre, ranks = lm.preimages_and_rank(Vec2.ZERO)
        assert ranks[Vec2.ZERO] == 1

    def test_measure_preserving_fold(self, gasket, cache):
        for window in (1, 2):
            lm = build_good_labeling(gasket, 0, window)
            depth = 3
            window_graph = cache.graph(gasket, window, depth)
            folded_graph = cache.graph(gasket, 0, depth)
            mapping = lm.fold_graph_vertices(window_graph, folded_graph)
            acc = defaultdict(Fraction)
            for w_idx, f_idx in enumerate(mapping):
                acc[int(f_idx)] += window_graph.measure_exact[w_idx]
            factor = Fraction(3) ** window
            for f_idx in range(folded_graph.n_vertices):
                assert acc[f_idx] == folded_graph.measure_exact[f_idx] * factor
