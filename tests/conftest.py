from fractions import Fraction

import pytest

from fractalheat import KernelCache, sierpinski_gasket, unit_interval_system
from fractalheat.exact import Q3, Vec2


@pytest.fixture(scope="session")
def gasket():
    return sierpinski_gasket()


@pytest.fixture(scope="session")
def interval():
    return unit_interval_system()


@pytest.fixture(scope="session")
def cache():
    """One in-memory eigendecomposition cache for the whole session."""
    return KernelCache()


def exact_points(graph) -> list[Vec2]:
    """The exact vertex points of ``graph``, read off its lattice rows
    ``(x.a, x.b, y.a, y.b) * S`` as ``Vec2(Q3(x.a, x.b), Q3(y.a, y.b))``."""
    s = graph.lattice_denom
    return [
        Vec2(Q3(Fraction(xa, s), Fraction(xb, s)), Q3(Fraction(ya, s), Fraction(yb, s)))
        for xa, xb, ya, yb in graph.lattice.tolist()
    ]
