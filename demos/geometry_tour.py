#!/usr/bin/env python3
"""Build the gasket system, check its axioms, and look at exact graphs.

Everything here is exact arithmetic: coordinates live in Q(sqrt 3)^2, so
vertex identification and measure totals come out as equalities, not
approximations.
"""

from fractions import Fraction

from fractalheat import (
    build_system,
    build_vertex_graph,
    enumerate_cells,
    fixed_points,
    gasket_vertex_count,
    sierpinski_gasket,
    validate_snf,
)
from fractalheat.exact import Q3, Vec2

gasket = sierpinski_gasket()

print("== similitude fixed points ==")
for i, p in enumerate(fixed_points(gasket), start=1):
    print(f"  map {i}: {p}")

print("\n== axiom validation ==")
print(validate_snf(gasket).summary())

print("\n== cells of K<<1>> at level 0 ==")
for cell in enumerate_cells(gasket, 1, 0):
    print(f"  word {cell.word} offset {cell.offset}")

print("\n== vertex graphs ==")
for depth in range(6):
    g = build_vertex_graph(gasket, 0, depth)
    assert g.n_vertices == gasket_vertex_count(depth)
    print(
        f"  depth {depth}: {g.n_vertices:5d} vertices, {g.n_edges:5d} edges, "
        f"total mass {g.total_mass_exact()}"
    )

print("\n== a broken system is caught with an exact witness ==")
translations = [
    Vec2.ZERO,
    Vec2.of(Fraction(1, 2) - Fraction(1, 100), 0),
    Vec2(Q3.of(Fraction(1, 4)), Q3.of(0, Fraction(1, 4))),
]
broken = build_system(
    "perturbed", 2, translations, walk_dim=2.0, chemical_exp=2.0,
    osc_attested=True, essential_override=list(gasket.essential_vertices),
)
print(validate_snf(broken).summary())
