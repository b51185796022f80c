import dataclasses
from fractions import Fraction

import pytest

from fractalheat import KernelCache, sierpinski_gasket, unit_interval_system
from fractalheat.config import RunConfig
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


def report_settings(kind: str, **overrides) -> dict:
    """The settings a run passes to the ``kind`` ("stable" or
    "relativistic") bound-report function: the ``RunConfig`` defaults, with
    ``overrides``."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    names = ("n_times", "flat_span", "seed") + (("bracket_tol",) if kind == "stable" else ())
    return {name: defaults[name] for name in names} | overrides
