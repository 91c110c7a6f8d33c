"""Per-simplex definitions of the exact Euler sums, as test oracles.

The library computes these sums from integer counts per vertex or per
image cell. Each oracle here is the definition it replaces: one Fraction
term per simplex (or per cell of the support), summed in order, with no
ranking, no common denominators and no arrays.
"""

from fractions import Fraction


def floor_integral_oracle(alpha) -> Fraction:
    """sum over simplices of (-1)^dim * (minimum vertex value)."""
    total = Fraction(0)
    for s in alpha.complex.simplices:
        total += (-1) ** (len(s) - 1) * min(alpha.values[v] for v in s)
    return total


def ceil_integral_oracle(alpha) -> Fraction:
    """sum over simplices of (-1)^dim * (maximum vertex value)."""
    total = Fraction(0)
    for s in alpha.complex.simplices:
        total += (-1) ** (len(s) - 1) * max(alpha.values[v] for v in s)
    return total


def barycenter_sum(alpha) -> Fraction:
    """The tentative integral's definition: sum over simplices of
    (-1)^dim * (mean of the vertex values)."""
    total = Fraction(0)
    for s in alpha.complex.simplices:
        total += (-1) ** (len(s) - 1) * Fraction(sum(alpha.values[v] for v in s), len(s))
    return total


def weight_oracle(complex, v) -> Fraction:
    """sum over simplices containing v of (-1)^dim / (dim + 1)."""
    return sum(
        (Fraction((-1) ** (len(s) - 1), len(s)) for s in complex.simplices if v in s),
        Fraction(0),
    )


def pushforward_oracle(f, s) -> dict:
    """Fiber rule, one cell at a time: the coefficient of an open source
    simplex goes to its image with sign (-1)^(dim cell - dim image).
    Returns the nonzero image coefficients."""
    coefficients: dict = {}
    for cell, value in s.coefficients.items():
        image = tuple(sorted({f.vertex_map[v] for v in cell}))
        sign = (-1) ** (len(cell) - len(image))
        coefficients[image] = coefficients.get(image, Fraction(0)) + sign * value
    return {cell: value for cell, value in coefficients.items() if value}


def euler_integral_oracle(s) -> Fraction:
    """sum over the support of coefficient * (-1)^dim."""
    total = Fraction(0)
    for cell, value in s.coefficients.items():
        total += (-1) ** s.carrier.cell_dim(cell) * value
    return total
