"""Spine curve: the locus where one critical value has unit modulus on the c = t*a line."""
import math

import numpy as np
import pytest

from mcmullen.spine import (
    SpineSpec,
    spine_distance,
    spine_distances,
    spine_point,
    spine_points,
    spine_radii,
)


class TestSpineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpineSpec(0j, 64)
        with pytest.raises(ValueError):
            SpineSpec(1 + 0j, 8)  # too few samples
        with pytest.raises(ValueError):
            spine_point(SpineSpec(1 + 0j, 64), 1.0, 2)  # branch must be +-1


class TestSpinePoints:
    def test_frozen_points_t2(self):
        s = SpineSpec(2 + 0j, 64)
        assert spine_point(s, math.pi, 1) == pytest.approx(0.5j, abs=1e-15)
        assert spine_point(s, math.pi, -1) == pytest.approx(-0.5j, abs=1e-15)
        assert spine_point(s, 0.0, 1) == pytest.approx(1.8660254037844386, abs=1e-15)
        assert spine_point(s, 0.0, -1) == pytest.approx(0.1339745962155614, abs=1e-15)

    def test_frozen_point_complex_t(self):
        s = SpineSpec(1 + 0.5j, 64)
        assert spine_point(s, 1.0, 1) == pytest.approx(
            3.4563032632904997 - 1.849952399876038j, abs=1e-12
        )

    def test_defining_identity(self):
        # every spine point satisfies |t*a + 2*sqrt(a)| = 1 or |t*a - 2*sqrt(a)| = 1
        for t in (0.8 + 0j, 1 + 0j, 2 + 0j, 1 + 0.5j):
            s = SpineSpec(t, 128)
            for theta in np.linspace(0, 2 * math.pi, 57):
                for branch in (1, -1):
                    a = spine_point(s, float(theta), branch)
                    dev = min(
                        abs(abs(t * a + 2 * np.sqrt(complex(a))) - 1),
                        abs(abs(t * a - 2 * np.sqrt(complex(a))) - 1),
                    )
                    assert dev < 1e-10, (t, theta, branch, dev)

    def test_points_array_layout(self):
        s = SpineSpec(2 + 0j, 32)
        theta, plus, minus = spine_points(s)
        assert theta.shape == plus.shape == minus.shape == (32,)
        assert theta[0] == 0.0
        assert theta[-1] == pytest.approx(2 * math.pi * 31 / 32, rel=1e-14)
        np.testing.assert_array_equal(theta, np.sort(theta))
        # arrays agree with the scalar evaluator
        for i in (0, 7, 19, 31):
            assert plus[i] == pytest.approx(spine_point(s, float(theta[i]), 1), abs=1e-14)
            assert minus[i] == pytest.approx(spine_point(s, float(theta[i]), -1), abs=1e-14)


class TestSpineRadii:
    def test_t1_closed_form(self):
        lo, hi = spine_radii(1 + 0j)
        assert lo == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
        assert hi == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-12)

    def test_t2_frozen(self):
        lo, hi = spine_radii(2 + 0j)
        assert lo == pytest.approx(0.1339745962155614, abs=1e-14)
        assert hi == pytest.approx(1.8660254037844386, abs=1e-14)

    def test_radii_bound_the_curve(self):
        for t in (0.8 + 0j, 1 + 0j, 2 + 0j):
            lo, hi = spine_radii(t)
            _, plus, minus = spine_points(SpineSpec(t, 512))
            mods = np.abs(np.concatenate([plus, minus]))
            assert mods.min() >= lo - 1e-9
            assert mods.max() <= hi + 1e-9
            # and the bounds are attained
            assert mods.min() == pytest.approx(lo, abs=1e-4)
            assert mods.max() == pytest.approx(hi, abs=1e-4)


class TestSpineDistance:
    def test_frozen_distances(self):
        assert spine_distance(SpineSpec(1 + 0j, 4096), 0j) == pytest.approx(
            0.1715728752538097, abs=1e-9
        )
        assert spine_distance(SpineSpec(2 + 0j, 4096), 100 + 0j) == pytest.approx(
            98.13397459621557, abs=1e-6
        )

    def test_distance_zero_on_curve(self):
        # distance to the sampled polyline: bounded by the sample spacing, and
        # refined by denser sampling
        coarse, fine = SpineSpec(1 + 0j, 4096), SpineSpec(1 + 0j, 32768)
        spacing = 2 * math.pi * spine_radii(1 + 0j)[1] / 4096
        for theta in (0.0, 1.0, 2.5, math.pi):
            a = spine_point(coarse, theta, 1)
            d_coarse = spine_distance(coarse, a)
            assert d_coarse < spacing
            assert spine_distance(fine, a) <= d_coarse

    def test_vectorized_matches_scalar(self):
        s = SpineSpec(0.8 + 0j, 2048)
        rng = np.random.default_rng(61)
        pts = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        d = spine_distances(s, pts)
        assert d.shape == (50,)
        for i in range(0, 50, 7):
            assert d[i] == pytest.approx(spine_distance(s, complex(pts[i])), rel=1e-12)

    def test_matches_brute_force(self):
        s = SpineSpec(1 + 0.5j, 1024)
        _, plus, minus = spine_points(s)
        curve = np.concatenate([plus, minus])
        rng = np.random.default_rng(67)
        pts = rng.uniform(-3, 6, 40) + 1j * rng.uniform(-4, 4, 40)
        want = np.abs(pts[:, None] - curve[None, :]).min(axis=1)
        np.testing.assert_allclose(spine_distances(s, pts), want, rtol=1e-14)

    def test_origin_allowed(self):
        # distance from the puncture a = 0 is well-defined (the curve avoids 0)
        assert spine_distance(SpineSpec(1 + 0j, 1024), 0j) > 0.17
