"""Region geometry: polar rectangles, the image ellipse and its halves, the V and W
regions attached to fixed critical points, and the parameter rectangle for real |c| > 1."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, InconsistencyError
from .family import (
    MapParams,
    critical_values_bulk,
    fixed_point_residual,
    principal_arg,
    wrap_angle,
)


@dataclass(frozen=True)
class PolarRect:
    """Annular sector {r_inner < |z| < r_outer, |wrap(Arg z - arg_center)| < arg_halfwidth};
    all four comparisons become non-strict when closed is True."""

    r_inner: float
    r_outer: float
    arg_center: float
    arg_halfwidth: float
    closed: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError(
                f"need 0 < r_inner < r_outer, got ({self.r_inner}, {self.r_outer})"
            )
        if not (0.0 < self.arg_halfwidth <= math.pi):
            raise ValueError(f"arg_halfwidth must be in (0, pi], got {self.arg_halfwidth}")
        object.__setattr__(self, "arg_center", wrap_angle(float(self.arg_center)))


def polar_contains(rect: PolarRect, z: complex) -> bool:
    """Membership in the annular sector, honoring the closed flag."""
    z = complex(z)
    r = abs(z)
    d = abs(wrap_angle(principal_arg(z) - rect.arg_center))
    if rect.closed:
        return rect.r_inner <= r <= rect.r_outer and d <= rect.arg_halfwidth
    return rect.r_inner < r < rect.r_outer and d < rect.arg_halfwidth


def u_prime_rect(p: MapParams, k: int) -> PolarRect:
    """The open polar rectangle around the k-th critical point:
    radii (|a|**(1/n)/2, 2), center (psi + 2*k*pi)/(2n), halfwidth pi/(2n)."""
    if not 0 <= k <= 2 * p.n - 1:
        raise ValueError(f"k must be in 0..{2 * p.n - 1}, got {k}")
    if abs(p.a) >= 4**p.n:  # an exact int comparison: 4.0**n overflows from n = 512
        raise HypothesisError(
            f"|a| = {abs(p.a)} >= 4**n collapses the rectangle (inner radius >= 2)"
        )
    return PolarRect(
        r_inner=abs(p.a) ** (1.0 / p.n) / 2.0,
        r_outer=2.0,
        arg_center=wrap_angle((p.psi + 2.0 * math.pi * k) / (2 * p.n)),
        arg_halfwidth=math.pi / (2 * p.n),
        closed=False,
    )


@dataclass(frozen=True)
class HalfEllipseSpec:
    """An ellipse centered at `center` with its major axis rotated by `rotation`,
    cut by the minor axis: half_sign +1/-1 selects one open half (minor axis included
    in both), 0 the full ellipse. Equal semi-axes (a circle) are accepted: the image
    ellipse rounds to one once |a|/2**n is below half an ulp of 2**n."""

    center: complex
    rotation: float
    semi_major: float
    semi_minor: float
    half_sign: int

    def __post_init__(self) -> None:
        if not (0.0 < self.semi_minor <= self.semi_major):
            raise ValueError(
                f"need 0 < semi_minor <= semi_major, got ({self.semi_minor}, {self.semi_major})"
            )
        if self.half_sign not in (-1, 0, 1):
            raise ValueError(f"half_sign must be -1, 0, or +1, got {self.half_sign}")
        object.__setattr__(self, "center", complex(self.center))


def ellipse_semi_axes(n: int, abs_a):
    """(2**n + |a|/2**n, 2**n - |a|/2**n), elementwise in |a|: the semi-axes of the
    image ellipse. Raises HypothesisError when 2**n overflows binary64 (n >= 1024)."""
    try:
        two_n = 2.0**n
    except OverflowError:
        raise HypothesisError(
            f"n = {n} puts the ellipse semi-axes 2**n +- |a|/2**n beyond binary64"
        ) from None
    ratio = abs_a / two_n
    return two_n + ratio, two_n - ratio


def ellipse_frame(z, center, rotation, semi_major, semi_minor):
    """Points z in the frame of an ellipse, elementwise: (x, y, q, radial), where
    x + iy = (z - center) * exp(-i*rotation), q = (x/semi_major)**2 + (y/semi_minor)**2
    is below 1 strictly inside, and radial = hypot(x, y) * (1/sqrt(q) - 1) is the
    signed distance to the boundary along the ray from the center (semi_minor at the
    center): exact on the boundary, a lower-magnitude proxy elsewhere."""
    zp = (np.asarray(z, dtype=complex) - center) * np.exp(-1j * rotation)
    x, y = zp.real, zp.imag
    with np.errstate(all="ignore"):
        q = (x / semi_major) ** 2 + (y / semi_minor) ** 2
        # In place, so that at most two sample-sized temporaries live at once.
        radial = 1.0 / np.sqrt(q)
        radial -= 1.0
        radial *= np.hypot(x, y)
        radial = np.where(q == 0.0, semi_minor, radial)  # a NaN q gives a NaN margin
    return x, y, q, radial[()]


def ellipse_spec(p: MapParams, half_sign: int = 0) -> HalfEllipseSpec:
    """Image ellipse of the critical rectangles: center c, rotation psi/2,
    ellipse_semi_axes(n, |a|) (so the foci sit at the critical values:
    semi_major**2 - semi_minor**2 = 4|a| before rounding; once |a|/2**n is below
    half an ulp of 2**n both semi-axes round to 2**n). half_sign +1 is the half
    containing c + 2*sqrt(a), -1 the half containing c - 2*sqrt(a)."""
    semi_major, semi_minor = ellipse_semi_axes(p.n, abs(p.a))
    if semi_minor <= 0.0:
        raise HypothesisError(f"|a| = {abs(p.a)} >= 4**n degenerates the minor axis")
    return HalfEllipseSpec(
        center=p.c,
        rotation=p.psi / 2.0,
        semi_major=semi_major,
        semi_minor=semi_minor,
        half_sign=int(half_sign),
    )


def half_ellipse_membership(spec: HalfEllipseSpec, z):
    """(inside, margin) of a point (np.bool_, np.float64) or, elementwise, an array.
    inside is strict ellipse-interior membership, restricted to the selected half
    when half_sign is nonzero; minor-axis points belong to both halves. margin is
    signed, positive inside and negative outside: ellipse_frame's radial margin,
    and for a half also the distance to the minor axis as a second leg."""
    x, _, q, radial = ellipse_frame(z, spec.center, spec.rotation, spec.semi_major, spec.semi_minor)
    if spec.half_sign == 0:
        return q < 1.0, radial
    side = x * spec.half_sign
    inside = (q < 1.0) & (side >= 0.0)
    del x, _, q  # frees the frame before the margins take their memory
    return inside, np.minimum(radial, side)


def l_c_rect(c: complex, eps: float) -> PolarRect:
    """Closed parameter rectangle containing the boundedness locus for |c| > 1 + eps:
    radii ((|c| -+ (1+eps))**2)/4, centered at twice Arg(c), halfwidth 2*asin((1+eps)/|c|)."""
    c = complex(c)
    if eps <= 0:
        raise HypothesisError(f"eps must be positive, got {eps}")
    if abs(c) <= 1.0 + eps:
        raise HypothesisError(f"requires |c| > 1 + eps, got |c| = {abs(c)} with eps = {eps}")
    reach = 1.0 + eps
    return PolarRect(
        r_inner=(abs(c) - reach) ** 2 / 4.0,
        r_outer=(abs(c) + reach) ** 2 / 4.0,
        arg_center=wrap_angle(2.0 * principal_arg(c)),
        arg_halfwidth=2.0 * math.asin(reach / abs(c)),
        closed=True,
    )


def sector_index(n: int, w_j: complex, a_j: complex) -> int:
    """The integer k with Arg(w_j) = (Arg(a_j) + 2*k*pi)/(2n) modulo full turns.
    Exact when a_j = w_j**(2n); raises if no integer fits within 0.25."""
    x = (2 * n * principal_arg(w_j) - principal_arg(a_j)) / (2.0 * math.pi)
    k = round(x)
    if abs(x - k) > 0.25:
        raise InconsistencyError(
            f"sector index {x} is {abs(x - k):.3f} from the nearest integer; "
            f"(w_j, a_j) is not a consistent root pair"
        )
    return k % (2 * n)


@dataclass(frozen=True)
class WRegionSpec:
    """A fixed critical point w_j of the member (n, a_j, c) with a_j = w_j**(2n),
    its sector index k, and the enumeration index j. Anchors the V and W regions."""

    c: complex
    n: int
    j: int
    w_j: complex
    a_j: complex
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "w_j", complex(self.w_j))
        object.__setattr__(self, "a_j", complex(self.a_j))
        p = MapParams(self.n, self.a_j, self.c)  # checks n, a_j and c
        if not 0 <= self.k <= 2 * self.n - 1:
            raise ValueError(f"k must be in 0..{2 * self.n - 1}, got {self.k}")
        residual, bound = fixed_point_residual(p, self.w_j)
        if not residual <= bound:
            raise ValueError(
                f"w_j is not fixed by the member (n={self.n}, a_j={self.a_j}, c={self.c}): "
                f"residual {residual:.3e} exceeds {bound:.3e}"
            )
        expected = wrap_angle((principal_arg(self.a_j) + 2.0 * math.pi * self.k) / (2 * self.n))
        if abs(wrap_angle(principal_arg(self.w_j) - expected)) > 1e-10:
            raise ValueError(
                f"k = {self.k} does not match Arg(w_j) = {principal_arg(self.w_j)}"
            )


def v_rect(w: WRegionSpec) -> PolarRect:
    """Closed polar rectangle in the dynamical plane around w_j:
    radii (1/2, 2), center Arg(w_j), halfwidth pi/(2n)."""
    return PolarRect(
        r_inner=0.5,
        r_outer=2.0,
        arg_center=principal_arg(w.w_j),
        arg_halfwidth=math.pi / (2 * w.n),
        closed=True,
    )


def w_region_contains(w: WRegionSpec, a: complex) -> bool:
    """Membership of a parameter a in the closed region W: true iff either critical
    value c +- 2*sqrt(a) lies in the closed V rectangle (W is the image of V under
    z -> ((z - c)/2)**2, so membership is tested by pushing a forward through both
    critical-value branches). a = 0 is trivially outside (the values collapse to c)."""
    a = complex(a)
    if a == 0:
        return False
    rect = v_rect(w)
    return any(polar_contains(rect, v) for v in critical_values_bulk(a, w.c))
