"""Escape-time rendering of parameter slices and dynamical planes.

Parameter slices color each pixel by iterating BOTH critical values c +- 2*sqrt(a)
of the resolved map and averaging the two orbit colors channel-wise: an orbit that
never escapes contributes bounded_color, an escaping orbit contributes its base color
scaled linearly by how fast it escaped. Dynamical slices iterate the pixel's point
itself and shade escapes in grayscale.

Guarantees:
  - rows are rendered in fixed 16-row bands, one orbit-kernel block per band and
    orbit; the blocks share the kernel's working set, which changes no orbit's
    result, so the output is a pure function of the inputs (n, slice, viewport,
    config);
  - a pixel equals bounded_color exactly when both orbits are classified bounded
    (an escaped orbit's channel with a nonzero base is at least 1, never the bounded 0);
  - the escape threshold is the per-pixel escape radius max(4, |c|, |a|), which
    varies across a slice.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import check_memory_budget
from .family import (
    MapParams,
    check_exponent,
    check_max_iter,
    check_modulus,
    check_slope,
    critical_blocks,
    critical_values,
    escape_radius,
    escape_radius_bulk,
    iterate_orbit,
    iterate_orbit_blocks,
)

logger = logging.getLogger(__name__)

RGB8 = tuple[int, int, int]

# Rows are processed in fixed-size bands, which bound the orbit kernel's temporaries
# to O(width * _ROW_BAND) elements per call.
_ROW_BAND = 16

# Estimated peak bytes of a render: per pixel, the uint8 grid, the encoded PPM
# and the CLI's bounded count (the render command's traced peak grows by about
# 3.1 B per pixel, measured from 800x400 to 800x1600 wide views); per point of
# one band, the orbit kernel's blocks and pool and the shading blocks; and the
# orbit pool's own part, which holds up to about 4096 orbits and their window
# masks whatever the width. With tracemalloc, render_slice plus encode_ppm
# peaked at 0.24 to 0.56 of the estimate on 200x200 and 1600x400 deep zooms and
# wide views at max_iter 1000 (less 6 B per pixel, 140 to 510 B per band
# point), and at most 0.63 on deep zooms 1 to 256 pixels wide and 200 high,
# which exceed the estimate without the pool's part.
_PIXEL_BYTES = 16
_BAND_POINT_BYTES = 512
_POOL_BYTES = 2**20


def _check_size(width, height) -> None:
    """Raise ValueError unless width and height are ints >= 1 (not bools)."""
    for size in (width, height):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"width and height must be integers >= 1, got {width!r} x {height!r}")


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned complex-plane window mapped onto a width x height pixel grid.
    Pixel (col, row) samples the CENTER of its cell; row 0 is the top of the image
    (maximum imaginary part)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("viewport requires re_min < re_max and im_min < im_max")
        _check_size(self.width, self.height)
        # A finite pixel size also means finite bounds (inf - x is inf).
        if not (0.0 < self.pixel_dx < math.inf and 0.0 < self.pixel_dy < math.inf):
            raise ValueError(
                "viewport bounds and pixel size must be finite and positive, got "
                f"pixel size {self.pixel_dx!r} x {self.pixel_dy!r}"
            )

    @property
    def pixel_dx(self) -> float:
        return (self.re_max - self.re_min) / self.width

    @property
    def pixel_dy(self) -> float:
        return (self.im_max - self.im_min) / self.height

    def point_at(self, col: int, row: int) -> complex:
        """Complex coordinate of the center of pixel (col, row)."""
        re = self.re_min + (col + 0.5) * self.pixel_dx
        im = self.im_max - (row + 0.5) * self.pixel_dy
        return complex(re, im)

    def pixel_of(self, z: complex) -> tuple[int, int] | None:
        """(col, row) of the pixel whose cell contains z, or None if outside."""
        col = math.floor((z.real - self.re_min) / self.pixel_dx)
        row = math.floor((self.im_max - z.imag) / self.pixel_dy)
        if 0 <= col < self.width and 0 <= row < self.height:
            return (col, row)
        return None

    def row_points(self, row: int) -> np.ndarray:
        """Pixel centers of one row as a complex array of length `width`."""
        return _band_points(self, row, row + 1)


@dataclass(frozen=True)
class FixedC:
    """Parameter slice: c held fixed, the pixel point is a."""

    c: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", check_modulus("c", self.c))


@dataclass(frozen=True)
class FixedA:
    """Parameter slice: a held fixed (a != 0), the pixel point is c."""

    a: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", check_modulus("a", self.a))
        if self.a == 0:
            raise ValueError("FixedA requires a != 0")


@dataclass(frozen=True)
class Diagonal:
    """Parameter slice c = t*a: the pixel point is a, with t != 0 fixed."""

    t: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", check_slope(self.t))


@dataclass(frozen=True)
class Dynamical:
    """Dynamical-plane slice: the map is fixed and the pixel point is iterated."""

    params: MapParams


SliceSpec = Union[FixedC, FixedA, Diagonal, Dynamical]


@dataclass(frozen=True)
class RenderConfig:
    """The escape-time iteration budget. The colors are fixed class constants:
    color_plus/color_minus are the base colors of the two critical orbits (upper
    sign / lower sign); bounded_color marks non-escape."""

    max_iter: int = 256
    color_plus: ClassVar[RGB8] = (255, 0, 0)
    color_minus: ClassVar[RGB8] = (0, 0, 255)
    bounded_color: ClassVar[RGB8] = (0, 0, 0)

    def __post_init__(self) -> None:
        check_max_iter(self.max_iter)


@dataclass(frozen=True, eq=False)
class Image:
    """RGB8 pixel grid: `pixels` is a read-only (height, width, 3) uint8 array,
    row 0 at the top. Anything else raises ValueError; nothing is converted."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        _check_size(self.width, self.height)
        px = self.pixels
        if not (isinstance(px, np.ndarray) and px.dtype == np.uint8 and not px.flags.writeable
                and px.shape == (self.height, self.width, 3)):
            raise ValueError(f"pixels must be a read-only ({self.height}, {self.width}, 3) "
                             "uint8 array")

    def at(self, col: int, row: int) -> RGB8:
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise IndexError(f"pixel ({col}, {row}) outside {self.width}x{self.height}")
        r, g, b = self.pixels[row, col].tolist()
        return (r, g, b)


def _round_half_away(x: float) -> int:
    """Round a nonnegative value half away from zero."""
    return int(math.floor(x + 0.5))


def _intensity(m: int, max_iter: int) -> float:
    """Linear escape-rate shading clamped to [0, 1]; an escape at m = 0 counts as one step."""
    return min(1.0, max(m, 1) / max_iter)


def _orbit_color(base: RGB8, escaped: bool, m: int, cfg: RenderConfig) -> RGB8:
    if not escaped:
        return cfg.bounded_color
    inten = _intensity(m, cfg.max_iter)
    # A nonzero base channel stays >= 1: 255*m/max_iter rounds to 0 for max_iter > 510.
    scaled = (max(min(ch, 1), _round_half_away(ch * inten)) for ch in base)
    return tuple(scaled)  # type: ignore[return-value]


def _slice_params(slc: SliceSpec, point):
    """(a, c) of a slice at a point or, elementwise, an array of points; a held
    parameter, or both of a dynamical slice's, is filled to the point's shape.
    Points at a = 0 lie outside the family and are left to the caller. A diagonal
    c = t*a may overflow to inf or nan without a warning; the orbit kernel
    refuses the threshold it gives."""
    if isinstance(slc, FixedC):
        return point, np.full(np.shape(point), slc.c)
    if isinstance(slc, FixedA):
        return np.full(np.shape(point), slc.a), point
    if isinstance(slc, Diagonal):
        with np.errstate(over="ignore", invalid="ignore"):
            return point, slc.t * point
    if isinstance(slc, Dynamical):
        return np.full(np.shape(point), slc.params.a), np.full(np.shape(point), slc.params.c)
    raise TypeError(f"not a slice: {slc!r}")


def classify_pixel(n: int, slc: SliceSpec, point: complex, cfg: RenderConfig) -> RGB8:
    """Color of one pixel. Parameter slices: iterate both critical values of the
    resolved map with the per-pixel escape radius as threshold and average the two
    orbit colors channel-wise, rounding half away from zero; a = 0 pixels get
    bounded_color. Dynamical slices: iterate the point; escapes shade to grayscale."""
    point = complex(point)
    if isinstance(slc, Dynamical):
        p = slc.params
        res = iterate_orbit(p, point, cfg.max_iter, escape_radius(p))
        return _orbit_color((255, 255, 255), res.escaped, res.iterations, cfg)

    a, c = _slice_params(slc, point)
    if a == 0:
        return cfg.bounded_color
    p = MapParams(n, a, c)
    thr = escape_radius(p)
    v_plus, v_minus = critical_values(p)
    res_p = iterate_orbit(p, v_plus, cfg.max_iter, thr)
    res_m = iterate_orbit(p, v_minus, cfg.max_iter, thr)
    col_p = _orbit_color(cfg.color_plus, res_p.escaped, res_p.iterations, cfg)
    col_m = _orbit_color(cfg.color_minus, res_m.escaped, res_m.iterations, cfg)
    return tuple(
        _round_half_away((cp + cm) / 2.0) for cp, cm in zip(col_p, col_m)
    )  # type: ignore[return-value]


def _palette(cfg: RenderConfig, k: int, top: int) -> np.ndarray:
    """One color channel by its orbit's kernel count, for k orbits a pixel that
    color disjoint channels: row m (0..top) is the channel mean (v + k // 2) // k
    of an escape at m, v = max(1, round(255 * _intensity(m, max_iter))), and the
    last row (the kernel's -1) is 0, bounded. Row m does not depend on top."""
    inten = np.minimum(1.0, np.maximum(np.arange(top + 1), 1) / cfg.max_iter)
    v = np.maximum(1.0, np.floor(inten * 255 + 0.5))
    return np.append((v + k // 2) // k, 0).astype(np.uint8)  # v + 1 would wrap in uint8


def _band_points(vp: Viewport, row0: int, row1: int) -> np.ndarray:
    """Pixel centers of rows row0 to row1 - 1, row by row, as one flat complex
    array: the column formula gives the real parts and the row formula the
    imaginary parts, added in one broadcast."""
    re = vp.re_min + (np.arange(vp.width) + 0.5) * vp.pixel_dx
    im = vp.im_max - (np.arange(row0, row1) + 0.5) * vp.pixel_dy
    return (re + 1j * im[:, None]).ravel()


def render_bytes(vp: Viewport) -> int:
    """Estimated peak bytes of rendering, encoding and counting vp's pixels."""
    return (vp.width * (vp.height * _PIXEL_BYTES + min(vp.height, _ROW_BAND) * _BAND_POINT_BYTES)
            + _POOL_BYTES)


def render_slice(n: int, slc: SliceSpec, vp: Viewport, cfg: RenderConfig) -> Image:
    """Classify every pixel center of the viewport. Rows are processed in fixed
    16-row bands, one kernel block per band and orbit, so the output is a pure
    function of the inputs. The blocks share one working set of the orbit kernel
    (iterate_orbit_blocks), and each block is shaded into its own channels as
    soon as it is done. A dynamical slice takes n from its map and ignores the
    argument. A viewport whose render_bytes exceed the memory budget raises
    ValueError before any allocation."""
    dynamical = isinstance(slc, Dynamical)
    if dynamical:
        n = slc.params.n
    check_exponent(n)
    check_memory_budget(render_bytes(vp), f"a {vp.width}x{vp.height} render")
    # a parameter slice's orbits each color the one channel of their base color
    # and put 0 in the others (green stays 0); a dynamical one colors all three
    k = 1 if dynamical else 2
    channels = [slice(0, 3)] if dynamical else [
        slice(i, i + 1) for i in (cfg.color_plus.index(255), cfg.color_minus.index(255))]
    zero_a: dict[int, np.ndarray] = {}  # block key -> mask of its a = 0 pixels, if any
    zero_total = 0

    def blocks():
        nonlocal zero_total
        for band, r0 in enumerate(range(0, vp.height, _ROW_BAND)):
            pts = _band_points(vp, r0, min(r0 + _ROW_BAND, vp.height))
            a, c = _slice_params(slc, pts)
            if dynamical:
                yield a, c, pts, escape_radius_bulk(a, c)
                continue
            zero = a == 0
            if zero.any():
                zero_a[2 * band] = zero_a[2 * band + 1] = zero
                zero_total += int(np.count_nonzero(zero))
                a = np.where(zero, 1.0 + 0.0j, a)
            yield from critical_blocks(a, c)

    grid = np.zeros((vp.height, vp.width, 3), dtype=np.uint8)
    top, palette = 0, _palette(cfg, k, 0)
    for key, iters in iterate_orbit_blocks(n, blocks(), cfg.max_iter):
        band, j = divmod(key, k)
        zero = zero_a.pop(key, None)
        if zero is not None:
            iters[zero] = -1  # bounded_color
        if iters.max() > top:  # grow the palette as the counts need
            top = min(cfg.max_iter, max(int(iters.max()), 2 * top))
            palette = _palette(cfg, k, top)
        rows = slice(band * _ROW_BAND, (band + 1) * _ROW_BAND)
        grid[rows, :, channels[j]] = np.take(palette, iters).reshape(-1, vp.width, 1)
    if zero_total:
        logger.info("render: %d pixel(s) at a = 0 rendered as bounded_color", zero_total)
    grid.flags.writeable = False
    return Image(vp.width, vp.height, grid)


def _ppm_header(img: Image) -> bytes:
    """The ASCII header of img's binary PPM (P6, maxval 255)."""
    return f"P6\n{img.width} {img.height}\n255\n".encode("ascii")


def encode_ppm(img: Image) -> bytes:
    """Binary PPM (P6, maxval 255): ASCII header then row-major RGB byte triples."""
    return b"".join((_ppm_header(img), np.ascontiguousarray(img.pixels).data))  # one copy
