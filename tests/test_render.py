"""Escape-time rendering: viewport math, pixel classification, deterministic images."""
import contextlib
import hashlib
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmullen import family
from mcmullen.errors import MEMORY_BUDGET_BYTES
from mcmullen.family import MapParams, escape_radius, iterate_orbits_bulk, pow_int
from mcmullen.render import (
    Diagonal,
    Dynamical,
    FixedA,
    FixedC,
    Image,
    RenderConfig,
    Viewport,
    classify_pixel,
    encode_ppm,
    render_slice,
)
from mcmullen.render import (
    _band_points,
    _color_block,
    _intensity,
    _palette,
    _round_half_away,
    _slice_params,
    render_bytes,
)
from mcmullen.solvers import fixed_critical_params
from test_family import SLOW_128, critical_orbit_args, reference_orbits_bulk


@contextlib.contextmanager
def _records(logger):
    """The log records `logger` emits at INFO and above inside the block."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


CENTER_VIEW = Viewport(-16.0, -3.0, -6.5, 6.5, 120, 120)
# Above 510 iterations 255*m/max_iter rounds to 0 for small m; 256 is the default.
LARGE_MAX_ITERS = (256, 511, 1000, 4096)


class TestViewport:
    def test_validation(self):
        with pytest.raises(ValueError):
            Viewport(2.0, -2.0, -1.0, 1.0, 10, 10)  # reversed re
        with pytest.raises(ValueError):
            Viewport(-2.0, 2.0, 1.0, -1.0, 10, 10)  # reversed im
        with pytest.raises(ValueError):
            Viewport(-2.0, 2.0, -1.0, 1.0, 0, 10)
        for bounds in ((0.0, math.inf, -5.0, 5.0), (-math.inf, 0.0, -5.0, 5.0),
                       (0.0, 1.0, math.nan, 1.0),
                       (0.0, 1e308, -1e308, 1e308),  # pixel_dy overflows
                       (0.0, 5e-324, 0.0, 1.0)):  # pixel_dx underflows to 0
            with pytest.raises(ValueError):
                Viewport(*bounds, 8, 8)

    def test_point_at_pixel_centers(self):
        vp = Viewport(-2.0, 2.0, -1.0, 1.0, 4, 2)
        assert vp.pixel_dx == 1.0 and vp.pixel_dy == 1.0
        assert vp.point_at(0, 0) == -1.5 + 0.5j  # top-left pixel center
        assert vp.point_at(3, 1) == 1.5 - 0.5j  # bottom-right
        # row 0 is the TOP of the imaginary range
        assert vp.point_at(0, 0).imag > vp.point_at(0, 1).imag

    def test_pixel_of_round_trip(self):
        vp = Viewport(-2.0, 2.0, -1.0, 1.0, 64, 32)
        for col, row in ((0, 0), (63, 31), (10, 20), (32, 0)):
            assert vp.pixel_of(vp.point_at(col, row)) == (col, row)
        assert vp.pixel_of(5 + 0j) is None
        assert vp.pixel_of(0 - 3j) is None

    def test_row_points(self):
        vp = Viewport(-2.0, 2.0, -1.0, 1.0, 8, 4)
        pts = vp.row_points(2)
        assert pts.shape == (8,)
        for col in range(8):
            assert pts[col] == vp.point_at(col, 2)

    @pytest.mark.parametrize("bounds", [
        (-1.0, 1.0, -1.0, 1.0),  # odd sizes put a pixel center on re = 0 and on im = 0
        (-16.0, -3.0, -6.5, 6.5),
        (0.1, 0.7, -3e-3, 5e-3),
        (-0.0, 1e-320, -1e-320, 0.0),  # subnormal pixel sizes, signed-zero bounds
    ])
    def test_band_points_are_row_points(self, bounds):
        # a band's broadcast centers are its rows' centers, and each row is the
        # column formula plus 1j times the row formula evaluated for that row as
        # a Python float; compared as bit patterns, so signed zeros count
        for width, height in ((1, 1), (1, 17), (2, 15), (3, 3), (5, 5), (7, 33), (64, 40)):
            vp = Viewport(*bounds, width, height)
            cols = np.arange(width)
            for r0 in range(0, height, 16):
                r1 = min(r0 + 16, height)
                rows = [vp.row_points(r) for r in range(r0, r1)]
                for r, pts in zip(range(r0, r1), rows):
                    im = vp.im_max - (r + 0.5) * vp.pixel_dy
                    want = vp.re_min + (cols + 0.5) * vp.pixel_dx + 1j * im
                    np.testing.assert_array_equal(pts.view(np.uint64), want.view(np.uint64))
                np.testing.assert_array_equal(_band_points(vp, r0, r1).view(np.uint64),
                                              np.concatenate(rows).view(np.uint64))
        vp = Viewport(-1.0, 1.0, -1.0, 1.0, 5, 5)
        assert vp.row_points(2)[2] == 0 and (_band_points(vp, 0, 5).view(float) == 0).sum() == 10
        # the row formula gives -0.0 here (-0.0 minus an underflowed 0.0), and the
        # center's imaginary part is +0.0, as 1j * im plus a real part makes it
        vp = Viewport(-0.0, 5e-324, -5e-324, -0.0, 1, 1)
        assert math.copysign(1.0, vp.im_max - 0.5 * vp.pixel_dy) == -1.0
        assert _band_points(vp, 0, 1).view(np.uint64).tolist() == [0, 0]


class TestSliceSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedA(0j)
        with pytest.raises(ValueError):
            Diagonal(0j)
        FixedC(0j)  # c = 0 is a legal slice; only a = 0 pixels are outside
        for bad in (complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)):
            for spec in (FixedC, FixedA, Diagonal):
                with pytest.raises(ValueError):
                    spec(bad)

    def test_slice_params_on_a_point_and_an_array(self):
        pts = np.array([[1 + 2j, -3j, 0j]])
        for point in (1 + 2j, pts):
            want_shape = np.shape(point)
            for slc, (a, c) in (
                (FixedC(5j), (point, 5j)),
                (FixedA(2 + 0j), (2 + 0j, point)),
                (Diagonal(3 - 1j), (point, (3 - 1j) * point)),
                (Dynamical(MapParams(3, 1 + 0j, 2j)), (1 + 0j, 2j)),
            ):
                got_a, got_c = _slice_params(slc, point)
                assert np.shape(got_a) == np.shape(got_c) == want_shape, slc
                assert np.array_equal(got_a, np.broadcast_to(a, want_shape)), slc
                assert np.array_equal(got_c, np.broadcast_to(c, want_shape)), slc
        for not_a_slice in (MapParams(3, 1 + 0j, 0j), 5j, None):
            with pytest.raises(TypeError):
                _slice_params(not_a_slice, 1j)

    def test_render_config_defaults(self):
        cfg = RenderConfig()
        assert cfg.max_iter == 256
        assert cfg.color_plus == (255, 0, 0)
        assert cfg.color_minus == (0, 0, 255)
        assert cfg.bounded_color == (0, 0, 0)
        with pytest.raises(TypeError):  # the colors are fixed, not settable
            RenderConfig(color_plus=(255, 0, 0))
        with pytest.raises(ValueError):
            RenderConfig(max_iter=0)


class TestRounding:
    def test_round_half_away(self):
        assert _round_half_away(0.5) == 1
        assert _round_half_away(0.49) == 0
        assert _round_half_away(1.5) == 2
        assert _round_half_away(254.5) == 255

    def test_intensity_floor_and_clamp(self):
        assert _intensity(1, 256) == pytest.approx(1 / 256)
        assert _intensity(0, 256) == pytest.approx(1 / 256)  # floor keeps escapes visible
        assert _intensity(300, 256) == 1.0
        # the floor guarantees an escaped channel survives rounding: mean of
        # round(255/256) = 1 with a bounded 0 gives 0.5, which rounds up to 1
        assert _round_half_away(255 * _intensity(1, 256)) == 1


class TestClassifyPixel:
    def test_center_pixels_show_one_bounded_orbit(self):
        for s, max_iter in itertools.product(fixed_critical_params(4, 6j), LARGE_MAX_ITERS):
            cfg = RenderConfig(max_iter=max_iter)
            px = classify_pixel(4, FixedC(6j), s.a_j, cfg)
            parity_channel = 0 if s.k % 2 == 0 else 2  # red for plus, blue for minus
            other_channel = 2 - parity_channel
            assert px[parity_channel] == 0, (s.j, px)  # that orbit is bounded
            assert px[other_channel] >= 1, (s.j, px)  # the other escapes immediately
            assert px[1] == 0
            assert px != cfg.bounded_color  # never pure black at a center

    def test_zero_parameter_pixel(self):
        cfg = RenderConfig()
        assert classify_pixel(4, FixedC(6j), 0j, cfg) == cfg.bounded_color
        assert classify_pixel(3, Diagonal(1 + 0j), 0j, cfg) == cfg.bounded_color

    def test_far_pixels_escape_fast_in_both_channels(self):
        for point, max_iter in itertools.product((1000 + 1000j, 100 + 0j), LARGE_MAX_ITERS):
            px = classify_pixel(4, FixedC(6j), point, RenderConfig(max_iter=max_iter))
            assert px[0] >= 1 and px[2] >= 1, (point, max_iter, px)  # both escape at m = 1

    def test_dynamical_grayscale(self):
        p = MapParams(4, -13.122875503987459 + 2.008554506696609j, 6j)
        for max_iter in LARGE_MAX_ITERS:
            cfg = RenderConfig(max_iter=max_iter)
            z = -0.5528513714578666 - 1.2661645078316732j
            assert classify_pixel(0, Dynamical(p), z, cfg) == cfg.bounded_color
            escaped = classify_pixel(0, Dynamical(p), 100 + 0j, cfg)  # escapes at m = 1
            assert escaped[0] == escaped[1] == escaped[2] >= 1, (max_iter, escaped)

    def test_fixed_a_slice(self):
        cfg = RenderConfig()
        px = classify_pixel(3, FixedA(1 + 0j), 100 + 0j, cfg)  # huge c: both escape
        assert px[0] >= 1 and px[2] >= 1


README_A = -13.122875503987459 + 2.008554506696609j  # a center of FixedC(6j) at n = 4

# Every slice kind through the slice resolver: (n, slice, view).
CLASSIFIER_CASES = (
    (4, FixedC(6j), CENTER_VIEW),
    (8, Diagonal(2 + 0j), Viewport(-1.0, 1.0, -1.0, 1.0, 60, 60)),
    (3, FixedA(1 + 0j), Viewport(-3.0, 3.0, -3.0, 3.0, 60, 60)),
    # the README dynamical plane
    (4, Dynamical(MapParams(4, README_A, 6j)), Viewport(-2.0, 2.0, -2.0, 2.0, 60, 60)),
)


class TestRenderSlice:
    def test_matches_scalar_classifier(self):
        for (n, slc, vp), max_iter in itertools.product(CLASSIFIER_CASES, (256, 1000)):
            cfg = RenderConfig(max_iter=max_iter)
            img = render_slice(n, slc, vp, cfg)
            want = [
                [classify_pixel(n, slc, vp.point_at(col, row), cfg) for col in range(vp.width)]
                for row in range(vp.height)
            ]
            bad = np.argwhere((img.pixels != np.array(want)).any(axis=-1))
            assert bad.size == 0, (slc, max_iter, bad[:10].tolist())

    def test_repeat_render_identical_bytes(self):
        cfg = RenderConfig(max_iter=64)
        imgs = [render_slice(4, FixedC(6j), CENTER_VIEW, cfg) for _ in range(2)]
        blobs = {encode_ppm(im) for im in imgs}
        assert len(blobs) == 1

    def test_escapes_never_painted_bounded_at_large_max_iter(self):
        vp = Viewport(90.0, 110.0, -10.0, 10.0, 24, 20)  # every orbit escapes at once
        for max_iter in LARGE_MAX_ITERS[1:]:
            cfg = RenderConfig(max_iter=max_iter)
            img = render_slice(4, FixedC(6j), vp, cfg)
            assert not (img.pixels == cfg.bounded_color).all(axis=-1).any(), max_iter
            for col, row in ((0, 0), (23, 19), (12, 10)):
                want = classify_pixel(4, FixedC(6j), vp.point_at(col, row), cfg)
                assert img.at(col, row) == want

    def test_dynamical_render(self):
        p = MapParams(3, 1 + 0j, 0.25 + 0j)
        vp = Viewport(-2.0, 2.0, -2.0, 2.0, 32, 32)
        img = render_slice(0, Dynamical(p), vp, RenderConfig(max_iter=64))
        # grayscale everywhere
        for row in range(0, 32, 5):
            for col in range(0, 32, 5):
                r, g, b = img.at(col, row)
                assert r == g == b

    def test_n_validation_for_parameter_slices(self):
        vp = Viewport(-1.0, 1.0, -1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            render_slice(2, FixedC(0j), vp, RenderConfig())
        # a Dynamical slice carries its own n; the argument is ignored
        render_slice(0, Dynamical(MapParams(3, 1 + 0j, 0j)), vp, RenderConfig(max_iter=8))

    def test_memory_budget(self):
        # the benchmark's sizes fit; a huge view is refused before any allocation
        for side in (200, 400, 600, 800):
            assert render_bytes(Viewport(-1.0, 1.0, -1.0, 1.0, side, side)) < MEMORY_BUDGET_BYTES
        for w, h in ((10**5, 10**5), (10**9, 1)):
            vp = Viewport(-1.0, 1.0, -1.0, 1.0, w, h)
            assert render_bytes(vp) > MEMORY_BUDGET_BYTES
            with pytest.raises(ValueError, match="memory budget"):
                render_slice(4, FixedC(6j), vp, RenderConfig())

    def test_zero_parameter_pixels_logged(self, caplog):
        vp = Viewport(-1.0, 1.0, -1.0, 1.0, 5, 5)  # center pixel lands exactly on 0
        cfg = RenderConfig(max_iter=16)
        with caplog.at_level(logging.INFO, logger="mcmullen.render"):
            img = render_slice(3, FixedC(0.5 + 0j), vp, cfg)
        assert img.at(2, 2) == cfg.bounded_color
        assert any("a = 0" in rec.getMessage() for rec in caplog.records)


class TestImageAndEncoding:
    def test_image_validation(self):
        def grid(values, dtype=np.uint8, writeable=False):
            px = np.array(values, dtype=dtype).reshape(2, 2, -1)
            px.flags.writeable = writeable
            return px

        tuples = ((0, 0, 0), (1, 2, 3), (4, 5, 6), (7, 8, 9))
        px = grid(tuples)
        img = Image(2, 2, px)
        assert img.pixels is px  # held as given, never converted
        assert img.at(1, 0) == (1, 2, 3)
        assert img.at(0, 1) == (4, 5, 6)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1  # read-only
        bad_inputs = (
            tuples,  # not an array
            np.array(tuples, dtype=np.uint8),  # flat and writable
            grid(tuples, writeable=True),  # writable
            grid(tuples, dtype=np.int64),  # wrong dtype
            grid(tuples, dtype=np.uint16),
            grid(np.zeros(8)),  # not RGB triples
            grid(tuples).reshape(1, 4, 3),  # wrong shape for 2x2
        )
        for pixels in bad_inputs:
            with pytest.raises(ValueError):
                Image(2, 2, pixels)
        for width, height in ((0, 2), (2, 0)):
            empty = np.empty((height, width, 3), dtype=np.uint8)
            empty.flags.writeable = False
            with pytest.raises(ValueError):
                Image(width, height, empty)

    def test_ppm_layout(self):
        px = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [9, 9, 9]], dtype=np.uint8)
        px.flags.writeable = False
        img = Image(2, 2, px.reshape(2, 2, 3))
        blob = encode_ppm(img)
        assert blob == b"P6\n2 2\n255\n" + bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 9, 9])

    def test_ppm_size_arithmetic(self):
        vp = Viewport(-1.0, 1.0, -1.0, 1.0, 17, 13)
        img = render_slice(3, FixedC(0.5 + 0j), vp, RenderConfig(max_iter=8))
        blob = encode_ppm(img)
        assert len(blob) == len(b"P6\n17 13\n255\n") + 17 * 13 * 3
        assert blob == b"P6\n17 13\n255\n" + img.pixels.tobytes()
        assert not img.pixels.flags.writeable


def band_by_band(n, slc, vp, cfg):
    """The image render_slice gives, computed one 16-row band and one kernel call at
    a time, each call checked against the gather/scatter oracle, and shaded by
    _color_block with the float channel mean; also the count of a = 0 pixels."""
    bands, zeros = [], 0
    for r0 in range(0, vp.height, 16):
        pts = np.concatenate([vp.row_points(r) for r in range(r0, min(r0 + 16, vp.height))])
        if isinstance(slc, Dynamical):
            p = slc.params
            calls = [((255, 255, 255), (p.n, p.a, p.c, pts, cfg.max_iter, escape_radius(p)))]
            zero = np.zeros(pts.size, dtype=bool)
        else:
            a, c = _slice_params(slc, pts)
            zero = a == 0
            a = np.where(zero, 1.0 + 0.0j, a)
            plus, minus = critical_orbit_args(n, a, c, cfg.max_iter)
            calls = [(cfg.color_plus, plus), (cfg.color_minus, minus)]
        colors = []
        for base, args in calls:
            esc, iters = iterate_orbits_bulk(*args)
            want = reference_orbits_bulk(*args)
            np.testing.assert_array_equal(esc, want[0])
            np.testing.assert_array_equal(iters, want[1])
            colors.append(_color_block(esc, iters, base, cfg))
        block = colors[0] if len(colors) == 1 else np.floor((colors[0] + colors[1]) / 2.0 + 0.5)
        block[zero] = cfg.bounded_color
        bands.append(block)
        zeros += int(np.count_nonzero(zero))
    return np.concatenate(bands).reshape(vp.height, vp.width, 3), zeros


def square(center, half):
    return (center.real - half, center.real + half, center.imag - half, center.imag + half)


# (n, slice, view bounds): zooms where orbits stay bounded and are retired at
# an exact repeat, wide views, views centered on a = 0 or on the dynamical pole
# z = 0.
POOLED_CASES = (
    (4, FixedC(6j), square(README_A, 0.1)),
    (4, FixedC(6j), (-16.0, -3.0, -6.5, 6.5)),
    (3, FixedC(0.5 + 0j), (-1.0, 1.0, -1.0, 1.0)),
    (4, FixedA(README_A), square(6j, 0.05)),
    (8, Diagonal(2 + 0j), (-2.0, 2.0, -2.0, 2.0)),
    (3, Diagonal(1 + 0j), (-1.0, 1.0, -1.0, 1.0)),
    (4, Dynamical(MapParams(4, README_A, 6j)), (-2.0, 2.0, -2.0, 2.0)),
    (4, Dynamical(MapParams(4, README_A, 6j)), (-1.0, 1.0, -1.0, 1.0)),
)


class TestPooledRender:
    """render_slice feeds every band to one kernel working set; its pixels equal
    the band-by-band render exactly."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(POOLED_CASES),
        width=st.integers(1, 24),
        height=st.integers(1, 60),
        max_iter=st.sampled_from([1, 2, 3, 40, 127, 128, 300]),
    )
    def test_matches_band_by_band(self, case, width, height, max_iter):
        n, slc, bounds = case
        vp, cfg = Viewport(*bounds, width, height), RenderConfig(max_iter=max_iter)
        want, zeros = band_by_band(n, slc, vp, cfg)
        logger = logging.getLogger("mcmullen.render")
        with _records(logger) as records:
            img = render_slice(n, slc, vp, cfg)
        np.testing.assert_array_equal(img.pixels, want)
        logged = [r.getMessage() for r in records if "a = 0" in r.getMessage()]
        assert logged == ([f"render: {zeros} pixel(s) at a = 0 rendered as bounded_color"]
                          if zeros else [])

    def test_zero_parameter_and_pole_pixels(self):
        # 5x5 on [-1, 1]**2 puts the center pixel exactly on 0: a = 0 for the
        # parameter slices, the pole z0 = 0 (an escape at 0) for the dynamical one
        vp = Viewport(-1.0, 1.0, -1.0, 1.0, 5, 5)
        assert vp.point_at(2, 2) == 0
        for n, slc, _ in POOLED_CASES[2:3] + POOLED_CASES[5:6] + POOLED_CASES[7:]:
            for max_iter in (1, 2, 300):
                cfg = RenderConfig(max_iter=max_iter)
                img = render_slice(n, slc, vp, cfg)
                np.testing.assert_array_equal(img.pixels, band_by_band(n, slc, vp, cfg)[0])
                assert img.at(2, 2) == classify_pixel(n, slc, 0j, cfg)

    def test_escape_at_step_128_is_shaded(self):
        # this strip of the dynamical plane has escapes at the last of 128 steps,
        # escapes before it and bounded orbits
        p = MapParams(SLOW_128["n"], SLOW_128["a"], SLOW_128["c"])
        vp, cfg = Viewport(0.52, 0.54, -1e-4, 1e-4, 24, 2), RenderConfig(max_iter=128)
        pts = np.concatenate([vp.row_points(r) for r in range(vp.height)])
        esc, iters = iterate_orbits_bulk(p.n, p.a, p.c, pts, 128, escape_radius(p))
        assert (esc & (iters == 128)).any() and (esc & (iters < 128)).any() and not esc.all()
        img = render_slice(0, Dynamical(p), vp, cfg)
        np.testing.assert_array_equal(img.pixels, band_by_band(0, Dynamical(p), vp, cfg)[0])

    def test_golden_bytes(self):
        # sha256 of encode_ppm: a 64x64, max_iter 1000 zoom around the first
        # center of n = 4, c = 6i, and the README's dynamical plane at 64x64,
        # taken before the orbit pool stepped in windows; the wide fixed-c view
        # of n = 4, c = 6i and the diagonal view of n = 8, t = 2 at 96x96, where
        # most orbits leave at their first step, taken before the image
        # assembly went to np.take palettes and broadcast band points. The
        # kernel's schedule and the assembly may change; these bytes may not.
        a0 = fixed_critical_params(4, 6j)[0].a_j
        renders = {
            "4269ded86355f32c67448add6405a7529149bc0eecc6c0daea1e3d68df214287": render_slice(
                4, FixedC(6j), Viewport(*square(a0, 0.1), 64, 64), RenderConfig(max_iter=1000)),
            "aec546ece5fd828e9bc884b109da2e1178e42bd3ce1b3daff6b853729a3b7cbe": render_slice(
                4, Dynamical(MapParams(4, README_A, 6j)), Viewport(-2.0, 2.0, -2.0, 2.0, 64, 64),
                RenderConfig()),
            "e60de199d4e424a4cf2430077af01c62268c9e3fcf9782a10c4b17cc4da4defc": render_slice(
                4, FixedC(6j), Viewport(-5.0, 5.0, -5.0, 5.0, 96, 96), RenderConfig()),
            "7edea5670fbdf6a33dda5dc52a5accae7c46ed0ad1a07d52e9693528651eff9f": render_slice(
                8, Diagonal(2 + 0j), Viewport(-2.0, 2.0, -2.0, 2.0, 96, 96), RenderConfig()),
        }
        for digest, img in renders.items():
            assert hashlib.sha256(encode_ppm(img)).hexdigest() == digest

    @pytest.mark.parametrize("bounds, size", [
        (square(README_A, 0.1), (200, 200)),
        (square(README_A, 0.1), (1600, 400)),
        (square(README_A, 0.1), (20, 1000)),
        ((-5.0, 5.0, -5.0, 5.0), (200, 200)),
        ((-5.0, 5.0, -5.0, 5.0), (1600, 400)),
    ])
    def test_peak_within_render_bytes(self, bounds, size):
        # deep zooms (the pool full, bounded orbits to max_iter), a narrow one
        # (the pool's part, not the band's, dominates) and wide views (most
        # orbits leave at their first step): render_slice plus encode_ppm stays
        # within the estimate
        vp = Viewport(*bounds, *size)
        tracemalloc.start()
        try:
            encode_ppm(render_slice(4, FixedC(6j), vp, RenderConfig(max_iter=1000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= render_bytes(vp)

    @pytest.mark.parametrize("max_iter", [1, 255, 511, 1000])
    def test_palette_is_color_block(self, max_iter):
        cfg = RenderConfig(max_iter=max_iter)
        m = np.arange(max_iter + 1)
        for base in (cfg.color_plus, cfg.color_minus, (255, 255, 255)):
            pal = _palette(base, cfg, max_iter)
            np.testing.assert_array_equal(pal[:-1], _color_block(m >= 0, m, base, cfg))
            assert pal[-1].tolist() == list(cfg.bounded_color)  # the kernel's -1
            for top in (0, max_iter // 2):  # a smaller palette is a prefix
                np.testing.assert_array_equal(_palette(base, cfg, top)[:-1], pal[:top + 1])

    def test_integer_channel_mean(self):
        # (sum + k // 2) // k is floor(sum / k + 0.5) for one channel (k = 1) and
        # for every pair of channels (k = 2)
        p, m = np.meshgrid(np.arange(256, dtype=np.uint16), np.arange(256, dtype=np.uint16))
        for pix in ([p], [p, m]):
            k = len(pix)
            np.testing.assert_array_equal((sum(pix) + k // 2) // k,
                                          np.floor(sum(pix) / k + 0.5))

    def test_loop_steps_pooled_for_the_same_arithmetic(self, monkeypatch):
        # One 200x200, max_iter 1000 zoom around a fixed-critical center, pooled
        # and in band-by-band kernel calls. With one-step windows both compute
        # exactly the steps each orbit takes until it leaves, E. With windows of
        # W steps an orbit that leaves inside a window computes at most W - 1
        # steps more, up to the window's end, and only orbits that reach the
        # pool can leave inside one; so each schedule computes from E to
        # E + (W - 1) * P orbit steps, P the orbits that reach the pool. With no
        # first iterate at 0 (a pole dated 1), those are the orbits with counts
        # of 2 or more (here every lower-sign one, 40,000). These counts hold
        # with no retirement at all, which a lag of W switches off, as no
        # window is longer than it. Measured: 21,759,364 (E), and 21,884,552
        # pooled and 21,878,836 band by band at W = 16 (windows that end early
        # once half the pool failed differ between the two), against a bound
        # of E + 600,000; 5,061 loop steps pooled (band by band: 13,013); the
        # loop bound is the one-step schedule's 5,037 plus 10%. With exact and
        # proved retirement the pooled render computes 3,807,581 orbit steps
        # (81,875 of them in the proofs, which form each centre once but step
        # every chain of a call while any is open) in 2,167 pow_int calls.
        vp = Viewport(*square(README_A, 0.1), 200, 200)
        cfg = RenderConfig(max_iter=1000)
        calls = []
        for r0 in range(0, 200, 16):
            pts = np.concatenate([vp.row_points(r) for r in range(r0, min(r0 + 16, 200))])
            calls += critical_orbit_args(4, pts, np.full(pts.size, 6j), 1000)
        for n, a, c, z0, _, _ in calls:
            zn = pow_int(z0, n)
            assert (zn + a / zn + c != 0).all()
        counts = [0, 0]

        def counting(z, n):
            counts[0] += 1
            counts[1] += np.size(z)
            return pow_int(z, n)

        def run(window):
            monkeypatch.setattr(family, "_WINDOW", window)
            counts[:] = [0, 0]
            render_slice(4, FixedC(6j), vp, cfg)
            pooled = counts.copy()
            counts[:] = [0, 0]
            reach = sum(int(np.count_nonzero(iterate_orbits_bulk(*args)[1] >= 2))
                        for args in calls)
            return pooled, counts.copy(), reach

        monkeypatch.setattr(family, "pow_int", counting)
        window = family._WINDOW
        render_slice(4, FixedC(6j), vp, cfg)
        assert counts == [2167, 3807581]
        monkeypatch.setattr(family, "_LAG", window)  # retire nothing
        one_pooled, one_banded, reach = run(1)
        exact = one_pooled[1]
        assert one_banded[1] == exact and reach == 200 * 200
        pooled, banded, _ = run(window)
        for steps in (pooled[1], banded[1]):
            assert exact <= steps <= exact + (window - 1) * reach
        assert pooled[0] <= 5540 < banded[0]
