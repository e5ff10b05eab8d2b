"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError, DegenerateStartError and
NotAnAlcoveError -> 2; CornerAmbiguousError and VertexHitError -> 3;
BudgetExceededError and NoProgressError -> 4. Everything else is an ordinary
crash (1).
"""


class BilliardsError(Exception):
    """Base class for all package-specific errors."""


class InputError(BilliardsError):
    """Malformed user input: bad table data, schema violation, bad arguments."""


class DimensionMismatchError(InputError):
    """Operands live in different ambient dimensions."""


class RedundantHalfspaceError(InputError):
    """A halfspace touches no face of the region it is supposed to bound."""


class UnboundedRegionError(InputError):
    """The halfspace intersection fails the positive-span boundedness test."""


class OutsideTableError(InputError):
    """A state or query point lies strictly outside the table."""


class DegenerateStartError(BilliardsError):
    """Trajectory start sits on the boundary with an outward direction."""


class NoProgressError(BilliardsError):
    """No forward boundary crossing exists; the table data is corrupt."""


class CornerAmbiguousError(BilliardsError):
    """A corner was hit under the strict policy, which refuses to choose."""

    def __init__(self, point, active):
        self.point = point
        self.active = tuple(active)
        super().__init__(f"corner hit at {point} with active facets {self.active}")


class BudgetExceededError(BilliardsError):
    """A bounce or word budget ran out before the run completed."""


class BounceBudgetExceededError(BudgetExceededError):
    pass


class WordBudgetExceededError(BudgetExceededError):
    pass


class NotAnAlcoveError(BilliardsError):
    """Group folding was requested on a region that is not an alcove."""


class NotAcuteError(InputError):
    """Disphenoid construction needs a triangle with three acute angles."""


class OpenSurfaceError(InputError):
    """Surface mesh is not a closed, consistently oriented 2-manifold."""


class VertexHitError(BilliardsError):
    """A surface geodesic ran into a vertex with no defined continuation."""

    def __init__(self, vertex_index, point):
        self.vertex_index = vertex_index
        self.point = point
        super().__init__(f"geodesic hit vertex {vertex_index} at {point}")
