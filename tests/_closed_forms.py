"""Closed forms the tests check the library against."""
import cmath
import math

from mcmullen.family import principal_arg


def critical_points(n: int, a: complex) -> list[complex]:
    """The 2n critical points of z**n + a/z**n + c, the roots of z**(2n) = a:
    |a|**(1/2n) * exp(i*(Arg a + 2*k*pi)/(2n)) for k = 0..2n-1."""
    r = abs(a) ** (1.0 / (2 * n))
    return [r * cmath.exp(1j * (principal_arg(a) + 2 * math.pi * k) / (2 * n))
            for k in range(2 * n)]
