"""Exception types shared across the package.

Every exception exposes a stable ``code`` (its class name) so the CLI can
emit machine-readable diagnostics without string matching.
"""


class CurvCalcError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class UsageError(CurvCalcError):
    """A command line that does not parse."""


class MissingFace(CurvCalcError):
    """A simplex set is not closed under taking faces."""

    def __init__(self, simplex, face):
        self.simplex = tuple(simplex)
        self.face = tuple(face)
        super().__init__(f"simplex {self.simplex} is missing face {self.face}")


class UnknownVertex(CurvCalcError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not in the complex")


class UnknownSimplex(CurvCalcError):
    def __init__(self, simplex):
        self.simplex = simplex
        super().__init__(f"simplex {simplex!r} is not in the complex")


class ForeignCell(CurvCalcError):
    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"cell {cell!r} does not belong to the carrier")


class ParseError(CurvCalcError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class DimensionMismatch(CurvCalcError):
    pass


class CarrierTooHighDimensional(CurvCalcError):
    pass


class DegenerateSimplex(CurvCalcError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"simplex {self.simplex} is affinely degenerate in this embedding")


class ExactUnavailable(CurvCalcError):
    pass


class NonGenericDirection(CurvCalcError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"direction has a height tie on the link of vertex {vertex!r}")


class CarrierMismatch(CurvCalcError):
    pass


class NotComposable(CurvCalcError):
    pass


class PieceNotSubcomplex(CurvCalcError):
    pass


class GridTooCoarse(CurvCalcError):
    pass


class TooManyCuts(CurvCalcError):
    pass


class NegativeWarp(CurvCalcError):
    pass


class NonFiniteCoordinate(CurvCalcError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} has a non-finite coordinate")
