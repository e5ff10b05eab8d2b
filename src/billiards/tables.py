"""Builders for the tables that ship with the package.

Polytopes: the four 2D alcoves (square, rectangle, and the equilateral,
right-isosceles, and 30-60-90 triangles), a generic non-alcove triangle,
and the rank-3 affine simplex.  Surfaces: the unit cube, the regular
tetrahedron, and the disphenoid with opposite edge lengths (4, 5, 6).
Smooth ovals: unit circle, the (2, 1) ellipse, and a perturbed circle.

Each builder has a JSON twin under ``data/tables``, which is what
:func:`billiards.io.load_table` and the CLI read. The test suite checks that
``dumps_json(table_to_data(build(name)))`` reproduces each file byte for
byte, so file content and code never drift apart.
"""

from __future__ import annotations

import math

from .alcove import standard_alcove
from .geometry import Polytope
from .smooth import Circle, Ellipse, PerturbedCircle
from .surface import SurfaceMesh, make_disphenoid, tetrahedron_mesh

__all__ = [
    "square",
    "rectangle",
    "triangle_A2",
    "triangle_C2",
    "triangle_G2",
    "triangle_nonalcove",
    "simplex_A3",
    "cube",
    "tetra_regular",
    "disphenoid_456",
    "circle",
    "ellipse",
    "perturbed",
    "BUILDERS",
    "build",
]

_SQRT3 = math.sqrt(3.0)


def square() -> Polytope:
    """Unit square; every corner is a right angle, type A1~ x A1~."""
    return Polytope.box((0.0, 0.0), (1.0, 1.0))


def rectangle() -> Polytope:
    """A 2 x 1 box; same corner structure as the square."""
    return Polytope.box((0.0, 0.0), (2.0, 1.0))


def triangle_A2() -> Polytope:
    """Equilateral triangle: all angles pi/3."""
    return Polytope.convex_polygon(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * _SQRT3]]
    )


def triangle_C2() -> Polytope:
    """Right isosceles triangle: angles pi/2, pi/4, pi/4."""
    return Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def triangle_G2() -> Polytope:
    """The 30-60-90 triangle: angles pi/2, pi/3, pi/6."""
    return Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, _SQRT3]])


def triangle_nonalcove() -> Polytope:
    """A generic triangle whose angles sit on no pi/m grid point."""
    return Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])


def simplex_A3() -> Polytope:
    """The rank-3 affine simplex (fundamental alcove of type A3~)."""
    return standard_alcove("A3~")


def cube() -> SurfaceMesh:
    """Unit cube boundary surface: eight corners of cone angle 3*pi/2."""
    return SurfaceMesh.cube(1.0)


def tetra_regular() -> SurfaceMesh:
    """Regular tetrahedron: four cone points of angle pi (orders 2,2,2,2)."""
    return SurfaceMesh.regular_tetrahedron(1.0)


def disphenoid_456() -> SurfaceMesh:
    """Disphenoid with opposite edge lengths 4, 5, 6; all cone angles pi."""
    return tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))


def circle() -> Circle:
    return Circle(1.0)


def ellipse() -> Ellipse:
    return Ellipse(2.0, 1.0)


def perturbed() -> PerturbedCircle:
    return PerturbedCircle(0.05, 3)


BUILDERS = {
    "square": square,
    "rectangle": rectangle,
    "triangle_A2": triangle_A2,
    "triangle_C2": triangle_C2,
    "triangle_G2": triangle_G2,
    "triangle_nonalcove": triangle_nonalcove,
    "simplex_A3": simplex_A3,
    "cube": cube,
    "tetra_regular": tetra_regular,
    "disphenoid_456": disphenoid_456,
    "circle": circle,
    "ellipse": ellipse,
    "perturbed": perturbed,
}


def build(name: str):
    """Instantiate a bundled table by name."""
    from .errors import InputError

    try:
        maker = BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown bundled table {name!r}; choose from "
            f"{', '.join(sorted(BUILDERS))}"
        ) from None
    return maker()
