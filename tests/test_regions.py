"""Region geometry: polar rectangles, image ellipses, V/W regions, sector indices."""
import cmath
import dataclasses
import math

import numpy as np
import pytest

from mcmullen import verify
from mcmullen.errors import HypothesisError, InconsistencyError
from mcmullen.family import (
    MapParams,
    critical_values,
    eval_map,
    principal_arg,
    wrap_angle,
)
from mcmullen.regions import (
    HalfEllipseSpec,
    PolarRect,
    WRegionSpec,
    ellipse_semi_axes,
    ellipse_spec,
    half_ellipse_membership,
    l_c_rect,
    polar_contains,
    sector_index,
    u_prime_rect,
    v_rect,
    w_region_contains,
)
from mcmullen.solvers import fixed_critical_params
from mcmullen.verify import verify_image_ellipse

from _closed_forms import critical_points


def polar_depth(rect: PolarRect, z: complex) -> float:
    """Signed depth of z in a polar rectangle: positive inside, 0 on the boundary,
    negative outside, with the angular leg scaled by |z|."""
    r = abs(z)
    d = abs(wrap_angle(principal_arg(z) - rect.arg_center))
    return min(r - rect.r_inner, rect.r_outer - r, (rect.arg_halfwidth - d) * r)


def oracle_half_ellipse(spec: HalfEllipseSpec, z: complex) -> tuple[bool, float]:
    """Pure-Python (contains, margin), written independently of the array code."""
    zp = (complex(z) - spec.center) * cmath.exp(-1j * spec.rotation)
    x, y = zp.real, zp.imag
    q = (x / spec.semi_major) ** 2 + (y / spec.semi_minor) ** 2
    radial = spec.semi_minor if q == 0.0 else math.hypot(x, y) * (1.0 / math.sqrt(q) - 1.0)
    if spec.half_sign == 0:
        return q < 1.0, radial
    side = x * spec.half_sign
    return q < 1.0 and side >= 0.0, min(radial, side)


class TestPolarRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolarRect(2.0, 1.0, 0.0, 0.1, False)  # inner >= outer
        with pytest.raises(ValueError):
            PolarRect(0.0, 1.0, 0.0, 0.1, False)  # inner must be positive
        with pytest.raises(ValueError):
            PolarRect(0.5, 1.0, 0.0, 4.0, False)  # halfwidth > pi

    def test_open_vs_closed_membership(self):
        rect_open = PolarRect(1.0, 2.0, 0.0, 0.5, False)
        rect_closed = PolarRect(1.0, 2.0, 0.0, 0.5, True)
        on_outer = 2.0 + 0j
        on_edge = 1.5 * cmath.exp(0.5j)
        inside = 1.5 + 0j
        outside = 2.5 + 0j
        assert polar_contains(rect_open, inside)
        assert not polar_contains(rect_open, on_outer)
        assert not polar_contains(rect_open, on_edge)
        assert not polar_contains(rect_open, outside)
        assert polar_contains(rect_closed, on_outer)
        assert polar_contains(rect_closed, on_edge)
        assert not polar_contains(rect_closed, outside)

    def test_wraps_across_cut(self):
        # sector centered at pi spans the Arg cut
        rect = PolarRect(1.0, 2.0, math.pi, 0.3, True)
        assert polar_contains(rect, 1.5 * cmath.exp(1j * (math.pi - 0.2)))
        assert polar_contains(rect, 1.5 * cmath.exp(1j * (-math.pi + 0.2)))
        assert not polar_contains(rect, 1.5 * cmath.exp(1j * (math.pi - 0.5)))


class TestUPrimeRect:
    def test_frozen_shape(self):
        r = u_prime_rect(MapParams(4, 6j, 0j), 0)
        assert r.r_inner == pytest.approx(0.7825422900366437, rel=1e-14)  # 6**(1/4)/2
        assert r.r_outer == 2.0
        assert r.arg_center == pytest.approx(math.pi / 16, rel=1e-14)
        assert r.arg_halfwidth == pytest.approx(math.pi / 8, rel=1e-14)
        assert not r.closed

    def test_contains_its_critical_point(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if a == 0:
                continue
            p = MapParams(n, a, 0j)
            pts = critical_points(n, a)
            for k in range(2 * n):
                rect = u_prime_rect(p, k)
                assert polar_contains(rect, pts[k]), (n, a, k)
                # the sector of index k contains no other critical point
                for k2 in range(2 * n):
                    if k2 != k:
                        assert not polar_contains(rect, pts[k2])

    def test_k_range_and_degenerate(self):
        p = MapParams(3, 1 + 0j, 0j)
        with pytest.raises(ValueError):
            u_prime_rect(p, -1)
        with pytest.raises(ValueError):
            u_prime_rect(p, 6)
        with pytest.raises(HypothesisError):
            u_prime_rect(MapParams(3, 64.0 + 0j, 0j), 0)  # |a| = 4**3
        # exact for every n, also where 4.0**n overflows (n >= 512)
        with pytest.raises(HypothesisError):
            u_prime_rect(MapParams(511, 2.0**1022 + 0j, 0j), 0)  # |a| = 4**511
        assert u_prime_rect(MapParams(600, 1e300 + 0j, 0j), 0).r_outer == 2.0


class TestEllipse:
    def test_frozen_axes(self):
        e = ellipse_spec(MapParams(4, 6j, 6j))
        assert e.semi_major == 16.375  # 2**4 + 6/2**4, exact in binary
        assert e.semi_minor == 15.625
        assert e.center == 6j
        assert e.rotation == pytest.approx(math.pi / 4, rel=1e-14)
        major, minor = ellipse_semi_axes(4, np.array([6.0, 0.0]))  # elementwise in |a|
        assert major.tolist() == [16.375, 16.0] and minor.tolist() == [15.625, 16.0]
        assert ellipse_semi_axes(1023, 1.0) == (2.0**1023, 2.0**1023)

    def test_equal_semi_axes_accepted(self, monkeypatch):
        # at n = 30, |a|/2**n is below half an ulp of 2**n: both semi-axes round to
        # 2**n, and the ellipse is that circle
        p = MapParams(30, 1 + 0j, 0j)
        e = ellipse_spec(p)
        assert e.semi_major == e.semi_minor == 2.0**30
        assert ellipse_spec(MapParams(20, 1 + 0j, 0j)).semi_minor < 2.0**20
        assert verify_image_ellipse(p, 0, samples=250).passed
        # the negative control still fails there: the 2**(n-1) variant of the axes
        major, minor = ellipse_semi_axes(29, 1.0)
        wrong = dataclasses.replace(e, semi_major=major, semi_minor=minor)
        monkeypatch.setattr(verify, "ellipse_spec", lambda p, half_sign=0: wrong)
        r = verify_image_ellipse(p, 0, samples=250)
        assert not r.passed
        assert r.failures == 520  # both arcs and 20 ray samples; deterministic sampling

    def test_focal_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if a == 0:
                continue
            e = ellipse_spec(MapParams(n, a, 0j))
            # foci at distance 2*sqrt(|a|) from center = the critical values
            assert e.semi_major**2 - e.semi_minor**2 == pytest.approx(4 * abs(a), rel=1e-12)

    def test_critical_values_are_foci(self):
        p = MapParams(5, 2 - 3j, 1 + 1j)
        e = ellipse_spec(p)
        vp, vm = critical_values(p)
        for v in (vp, vm):
            zp = (v - e.center) * cmath.exp(-1j * e.rotation)
            # foci lie on the major axis at +-sqrt(A**2 - B**2) = +-2 sqrt(|a|)
            assert abs(zp.imag) < 1e-12
            assert abs(abs(zp.real) - math.sqrt(e.semi_major**2 - e.semi_minor**2)) < 1e-12

    def test_half_selection(self):
        p = MapParams(4, 2 + 1j, 0.5 - 0.5j)
        vp, vm = critical_values(p)
        plus_half = ellipse_spec(p, +1)
        minus_half = ellipse_spec(p, -1)

        def contains(spec, z):
            return half_ellipse_membership(spec, z)[0]

        assert contains(plus_half, vp)
        assert not contains(plus_half, vm)
        assert contains(minus_half, vm)
        assert not contains(minus_half, vp)
        full = ellipse_spec(p, 0)
        assert contains(full, vp) and contains(full, vm)
        # center is on the minor axis: belongs to both halves
        assert contains(plus_half, p.c) and contains(minus_half, p.c)

    def test_margin_on_boundary(self):
        e = HalfEllipseSpec(1 + 1j, 0.3, 2.0, 1.0, 0)
        for t in np.linspace(0, 2 * math.pi, 37):
            on = cmath.exp(1j * e.rotation) * complex(2.0 * math.cos(t), 1.0 * math.sin(t))
            assert half_ellipse_membership(e, e.center + on)[1] == pytest.approx(0.0, abs=1e-12)
            # membership is strict: a hair outside fails, a hair inside passes
            assert not half_ellipse_membership(e, e.center + on * (1 + 1e-9))[0]
            assert half_ellipse_membership(e, e.center + on * (1 - 1e-9))[0]
        inside, margin = half_ellipse_membership(e, e.center)
        assert inside and margin == 1.0  # semi_minor at the center
        assert isinstance(margin, float)  # a point gives a scalar

    def test_array_inputs_match_scalar_oracle(self):
        rng = np.random.default_rng(47)
        for half_sign in (-1, 0, 1):
            e = HalfEllipseSpec(1 - 2j, 0.7, 3.0, 1.5, half_sign)
            z = e.center + rng.uniform(-4, 4, (30, 40)) + 1j * rng.uniform(-4, 4, (30, 40))
            z[0, :5] = [e.center, e.center + 1.5j * cmath.exp(0.7j), e.center + 10,
                        complex(math.nan, 0), complex(math.inf, 1)]
            inside, margin = half_ellipse_membership(e, z)
            assert inside.shape == margin.shape == z.shape
            # the center: semi_minor from the ellipse, 0 from the minor axis of a half
            assert inside[0, 0] and margin[0, 0] == (1.5 if half_sign == 0 else 0.0)
            # a NaN point is outside with a NaN margin, an infinite one infinitely far
            assert not inside[0, 3] and math.isnan(margin[0, 3])
            assert not inside[0, 4] and margin[0, 4] == -math.inf
            for (i, j), w in np.ndenumerate(z):
                want_in, want_margin = oracle_half_ellipse(e, w)
                # a point alone (scalar NumPy arithmetic) or in an array (SIMD loops)
                alone = half_ellipse_membership(e, w)
                for got_in, got_margin in ((inside[i, j], margin[i, j]), alone):
                    assert got_margin == pytest.approx(want_margin, rel=1e-12, abs=1e-12,
                                                       nan_ok=True)
                    if abs(want_margin) > 1e-12:  # off the boundary, rounding cannot flip it
                        assert got_in == want_in, w
            assert inside.any() and not inside.all()

    def test_validation(self):
        with pytest.raises(ValueError):
            HalfEllipseSpec(0j, 0.0, 1.0, 2.0, 0)  # minor > major
        with pytest.raises(ValueError):
            HalfEllipseSpec(0j, 0.0, 2.0, 1.0, 2)
        with pytest.raises(HypothesisError):
            ellipse_spec(MapParams(3, 64 + 0j, 0j))
        for n in (1024, 2000):  # 2**n overflows binary64
            with pytest.raises(HypothesisError, match="binary64"):
                ellipse_semi_axes(n, 1.0)
            with pytest.raises(HypothesisError, match="binary64"):
                ellipse_spec(MapParams(n, 1 + 0j, 0j))

    def test_map_sends_uprime_into_parity_half(self):
        # geometric glue: the k-th rectangle maps into the half-ellipse of the
        # critical value selected by the parity of k
        rng = np.random.default_rng(43)
        for _ in range(12):
            n = int(rng.integers(3, 7))
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(a) < 0.05:
                continue
            p = MapParams(n, a, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            for k in range(2 * n):
                rect = u_prime_rect(p, k)
                half = ellipse_spec(p, +1 if k % 2 == 0 else -1)
                for _ in range(40):
                    rr = rng.uniform(rect.r_inner * (1 + 1e-9), rect.r_outer * (1 - 1e-9))
                    th = rect.arg_center + rect.arg_halfwidth * rng.uniform(-1 + 1e-9, 1 - 1e-9)
                    z = rr * cmath.exp(1j * th)
                    assert polar_contains(rect, z)
                    assert half_ellipse_membership(half, eval_map(p, z))[0], (n, a, p.c, k)


class TestLcRect:
    def test_frozen_values(self):
        l = l_c_rect(-2 + 0j, 0.1)
        assert l.r_inner == pytest.approx(0.2025, rel=1e-12)  # (2 - 1.1)**2 / 4
        assert l.r_outer == pytest.approx(2.4025, rel=1e-12)  # (2 + 1.1)**2 / 4
        assert l.arg_center == pytest.approx(0.0, abs=1e-12)  # wrap(2 * Arg(-2)) = 0
        assert l.arg_halfwidth == pytest.approx(2 * math.asin(0.55), rel=1e-14)
        assert l.closed

    def test_hypothesis_gates(self):
        with pytest.raises(HypothesisError):
            l_c_rect(-2 + 0j, 0.0)
        with pytest.raises(HypothesisError):
            l_c_rect(-1.05 + 0j, 0.1)  # |c| <= 1 + eps

    def test_critical_value_reach(self):
        # any a in the rectangle keeps one critical value within 1+eps of the map
        # geometry used downstream; spot-check the defining inequality
        # | |c| - 2 sqrt(|a|) | <= 1 + eps on the radial bounds
        c, eps = -2 + 0j, 0.1
        l = l_c_rect(c, eps)
        for r in (l.r_inner, l.r_outer):
            assert abs(abs(c) - 2 * math.sqrt(r)) == pytest.approx(1 + eps, rel=1e-12)


class TestSectorIndex:
    def test_matches_critical_point_enumeration(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if a == 0:
                continue
            for k, xi in enumerate(critical_points(n, a)):
                assert sector_index(n, xi, a) == k

    def test_rejects_inconsistent_pair(self):
        # choose angles so (2n Arg w - Arg a)/2pi sits exactly half way between integers
        w = cmath.exp(0.5j)
        a = cmath.exp(1j * (3.0 - math.pi))
        with pytest.raises(InconsistencyError):
            sector_index(3, w, a)


@pytest.fixture(scope="module")
def real_spec():
    specs = fixed_critical_params(5, 6 + 0j)
    return [s for s in specs if abs(s.w_j.imag) < 1e-30][0]


class TestWRegion:
    def test_frozen_real_spec(self, real_spec):
        assert real_spec.j == 4 and real_spec.k == 5
        assert real_spec.w_j.real == pytest.approx(-1.2953997832657647, rel=1e-12)
        assert real_spec.a_j.real == pytest.approx(13.305714499418555, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WRegionSpec(6 + 0j, 5, 0, -1.29 + 0j, 13.3 + 0j, 5)  # not actually fixed
        with pytest.raises(ValueError):
            WRegionSpec(0j, 2, 0, 1 + 0j, 1 + 0j, 0)  # n < 3

    def test_k_of_j_consistency(self):
        # the sector index recomputed from each solved center's (w_j, a_j) pair
        for c in (6 + 0j, 6j, 2 - 5j):
            for s in fixed_critical_params(4, c):
                assert sector_index(s.n, s.w_j, s.a_j) == s.k

    def test_v_rect_shape(self, real_spec):
        vr = v_rect(real_spec)
        assert (vr.r_inner, vr.r_outer) == (0.5, 2.0)
        assert vr.arg_center == pytest.approx(math.pi, rel=1e-14)
        assert vr.arg_halfwidth == pytest.approx(math.pi / 10, rel=1e-14)
        assert vr.closed
        assert polar_contains(vr, real_spec.w_j)

    def test_membership_frozen(self, real_spec):
        assert w_region_contains(real_spec, 16 + 0j)  # v_- = -2 on the closed edge
        assert not w_region_contains(real_spec, 4 + 0j)  # v = 2 sits in the wrong sector
        assert not w_region_contains(real_spec, 0j)

    def test_membership_matches_pullback(self, real_spec):
        # points built as ((v - c)/2)**2 with v inside the V rectangle are members;
        # v pushed radially outside is not (for this j no other value re-enters)
        rng = np.random.default_rng(53)
        vr = v_rect(real_spec)
        c = real_spec.c
        for _ in range(200):
            r = rng.uniform(0.5 + 1e-6, 2 - 1e-6)
            th = vr.arg_center + vr.arg_halfwidth * rng.uniform(-1 + 1e-6, 1 - 1e-6)
            v = r * cmath.exp(1j * th)
            a_in = ((v - c) / 2) ** 2
            assert w_region_contains(real_spec, a_in)
            v_out = 2.6 * cmath.exp(1j * th)
            a_out = ((v_out - c) / 2) ** 2
            assert not w_region_contains(real_spec, a_out)

    def test_boundary_curves_pull_back_onto_v_boundary(self, real_spec):
        # every boundary point, pushed back through the critical values, lands at
        # distance ~0 from the V-rectangle boundary (exact membership on the curve
        # itself is a one-ulp knife edge, so assert geometry, not the closed flag)
        vr = v_rect(real_spec)
        c = real_spec.c

        def boundary_point(seg, t):
            """((v - c)/2)**2 for v on the V boundary: the circle of radius 1/2
            (segment 1) or 2 (segment 2) at angle t, or the ray at the upper (3)
            or lower (4) angular edge at radius t."""
            if seg in (1, 2):
                v = (0.5 if seg == 1 else 2.0) * cmath.exp(1j * t)
            else:
                edge = vr.arg_center + (1 if seg == 3 else -1) * vr.arg_halfwidth
                v = t * cmath.exp(1j * edge)
            half = (v - c) / 2
            return half * half

        # segments 1 and 2 sweep full circles (the drawing curves); only the arc
        # inside the V angular window lies on the region boundary, so restrict to it
        for seg, lo, hi in (
            (1, vr.arg_center - vr.arg_halfwidth, vr.arg_center + vr.arg_halfwidth),
            (2, vr.arg_center - vr.arg_halfwidth, vr.arg_center + vr.arg_halfwidth),
            (3, 0.5, 2),
            (4, 0.5, 2),
        ):
            for t in np.linspace(lo, hi, 25):
                b = boundary_point(seg, float(t))
                root = cmath.sqrt(b)
                margins = [polar_depth(vr, c + 2 * root), polar_depth(vr, c - 2 * root)]
                v_dist = min(abs(m) for m in margins)
                assert v_dist < 1e-9, (seg, t, v_dist)
                # a hair inside the rectangle, the pulled-in parameter is a member
                v = min((c + 2 * root, c - 2 * root), key=lambda q: abs(polar_depth(vr, q)))
                r_in = min(max(abs(v), 0.5 * (1 + 1e-9)), 2 * (1 - 1e-9))
                ang = vr.arg_center + wrap_angle(principal_arg(v) - vr.arg_center) * (1 - 1e-9)
                ang = vr.arg_center + max(
                    -vr.arg_halfwidth * (1 - 1e-9),
                    min(vr.arg_halfwidth * (1 - 1e-9), wrap_angle(ang - vr.arg_center)),
                )
                v_in = r_in * cmath.exp(1j * ang)
                assert w_region_contains(real_spec, ((v_in - c) / 2) ** 2), (seg, t)
        # outside the angular window the circle curves leave the region entirely
        assert not w_region_contains(real_spec, boundary_point(2, 0.0))
        assert not w_region_contains(real_spec, boundary_point(1, 1.0))
