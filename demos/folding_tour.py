#!/usr/bin/env python3
"""Good labelings and the folding map onto one complex.

A window K<<2>> is tiled by nine copies of K<<0>>; the labeling assigns each
copy a rotation so that corner letters match everywhere, and the induced
projection folds the window onto the base copy.  Folding the window walk
gives exactly the reflected walk, which we confirm on the vertex measure.
"""

from fractions import Fraction

from fractalheat import (
    build_good_labeling,
    build_vertex_graph,
    rotation_group,
    sierpinski_gasket,
)
from fractalheat.exact import Vec2

gasket = sierpinski_gasket()

grp = rotation_group(gasket, 0)
print(f"rotation group of K<<0>>: {grp.order} elements about {grp.center}")

lm = build_good_labeling(gasket, 0, 2)
print(f"\ngood labeling of window 2: {len(lm.complexes)} complexes")
for c in lm.complexes[:4]:
    print(f"  complex {c.word}: rotation #{c.rotation_index}")

x = Vec2.of(Fraction(3, 2), 0)
print(f"\nfolding {x} -> {lm.project_point(x)}")

y = Vec2.of(Fraction(1, 8), 0)
pre, _ = lm.preimages_and_rank(y)
print(f"{y} has {len(pre)} preimages in the window (one per complex)")

corner = Vec2.of(1, 0)
pre, ranks = lm.preimages_and_rank(corner)
print(f"corner {corner}: preimage ranks {sorted(ranks.values())}")

print("\n== measure-preserving folding (exact) ==")
depth = 3
window_graph = build_vertex_graph(gasket, 2, depth)
folded_graph = build_vertex_graph(gasket, 0, depth)
mapping = lm.fold_graph_vertices(window_graph, folded_graph)
# the measure of a vertex is its count of incident cells over 3 * 3**depth
# in both graphs, so the fold is checked on the integer counts
acc = [0] * folded_graph.n_vertices
for w_idx, f_idx in enumerate(mapping):
    acc[f_idx] += window_graph.incident[w_idx]
exact = acc == [9 * c for c in folded_graph.incident]
print(f"window mass folds onto 9x the base mass, vertex by vertex: {exact}")
