"""Spine curve: the locus where one critical value has unit modulus on the c = t*a line."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmullen import spine
from mcmullen.errors import MEMORY_BUDGET_BYTES
from mcmullen.family import _MIN_SCALED_SLOPE
from mcmullen.solvers import diagonal_fixed_params
from mcmullen.spine import (
    SpineSpec,
    spine_distances,
    spine_point,
    spine_points,
    spine_radii,
    spine_within,
)


class TestSpineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpineSpec(0j, 64)
        with pytest.raises(ValueError):
            SpineSpec(1 + 0j, 8)  # too few samples
        with pytest.raises(ValueError):
            spine_point(SpineSpec(1 + 0j, 64), 1.0, 2)  # branch must be +-1

    def test_samples_memory_budget(self):
        # the largest lattice within the 1 GiB budget is accepted (a spec allocates
        # nothing); one more sample, or a size NumPy itself would refuse, is not
        largest = MEMORY_BUDGET_BYTES // spine._SAMPLE_BYTES
        assert SpineSpec(2 + 0j, largest).samples == largest
        for samples in (largest + 1, 10**11):
            with pytest.raises(ValueError, match=f"samples {samples} .* memory budget"):
                SpineSpec(2 + 0j, samples)

    @pytest.mark.parametrize("t", [1e-200, 1e-160j, 1e-154 + 0j,
                                   np.nextafter(_MIN_SCALED_SLOPE, 0.0)])
    def test_tiny_slope_refused(self, t):
        # the outer radius 2/|t|**2 + 1/|t| + (2/|t|**2)*sqrt(1 + |t|) overflows,
        # and so do the diagonal centers' a = w**(2n), about 4/|t|**2
        for call in (lambda: SpineSpec(t), lambda: spine_radii(t),
                     lambda: diagonal_fixed_params(3, t)):
            with pytest.raises(ValueError, match=r"t = .* is too small"):
                call()

    @pytest.mark.parametrize("t", [1e200 + 1e200j, -1e300 + 1e8j, 1e300 - 1e300j])
    def test_slope_whose_scale_is_nan_refused(self, t):
        # t*t is nan + inf j or inf - inf j, so 2/t**2 and every spine point is nan
        assert cmath.isnan(2.0 / (t * t))
        for call in (lambda: SpineSpec(t), lambda: spine_radii(t),
                     lambda: diagonal_fixed_params(3, t)):
            with pytest.raises(ValueError, match=r"t = .* is too large: 2/t\*\*2 is nan"):
                call()

    def test_largest_slopes_sample_finitely(self):
        # t*t is inf + 0j or inf j here, and 2/t**2 is 0
        for t in (1e300 + 0j, 1e154 + 1e154j, -1.7e308j):
            _, plus, minus = spine_points(SpineSpec(t, 64))
            assert np.isfinite(plus).all() and np.isfinite(minus).all()

    def test_smallest_slopes_sample_finitely(self):
        # just above the limit the radii and every sample are finite
        for t in (_MIN_SCALED_SLOPE, 1.5e-154, -1.5e-154j, 1.1e-154 + 1.1e-154j):
            assert all(math.isfinite(r) for r in spine_radii(t))
            _, plus, minus = spine_points(SpineSpec(t, 64))
            assert np.isfinite(plus).all() and np.isfinite(minus).all()


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
        assert spine_distances(SpineSpec(1 + 0j, 4096), [0j])[0] == pytest.approx(
            0.1715728752538097, abs=1e-9
        )
        assert spine_distances(SpineSpec(2 + 0j, 4096), [100 + 0j])[0] == pytest.approx(
            98.13397459621557, abs=1e-6
        )

    def test_distance_zero_on_curve(self):
        # distance to the sampled polyline: bounded by the sample spacing, and
        # refined by denser sampling
        coarse, fine = SpineSpec(1 + 0j, 4096), SpineSpec(1 + 0j, 32768)
        spacing = 2 * math.pi * spine_radii(1 + 0j)[1] / 4096
        for theta in (0.0, 1.0, 2.5, math.pi):
            a = spine_point(coarse, theta, 1)
            d_coarse = spine_distances(coarse, [a])[0]
            assert d_coarse < spacing
            assert spine_distances(fine, [a])[0] <= d_coarse

    def test_vectorized_matches_scalar(self):
        s = SpineSpec(0.8 + 0j, 2048)
        rng = np.random.default_rng(61)
        pts = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        d = spine_distances(s, pts)
        assert d.shape == (50,)
        for i in range(0, 50, 7):
            assert d[i] == pytest.approx(spine_distances(s, [complex(pts[i])])[0], rel=1e-12)

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
        assert spine_distances(SpineSpec(1 + 0j, 1024), [0j])[0] > 0.17


def _polar_lattice(t, eps, grid):
    """The polar lattice verify_spine_locus samples around the spine."""
    lo, hi = spine_radii(t)
    radii = np.linspace(max(lo - eps, 1e-9 * max(1.0, hi)), hi + eps, grid)
    theta = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    return (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()


def _assert_matches_oracle(s, a, eps):
    want = spine_distances(s, a) <= eps
    got = spine_within(s, a, eps)
    assert got.dtype == bool and got.shape == want.shape
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, (s, eps, a[bad[:5]])
    # the same spec again, on two uneven pieces of a: the index it kept
    # answers as the one it built
    cut = max(1, a.size // 3)
    again = np.concatenate([spine_within(s, a[:cut], eps), spine_within(s, a[cut:], eps)])
    assert again.tobytes() == got.tobytes(), (s, eps)
    fresh = SpineSpec(s.t, s.samples)  # the kept index is no field
    assert (s, hash(s), repr(s)) == (fresh, hash(fresh), repr(fresh))


class TestSpineWithin:
    # Slopes from tiny to huge, real, imaginary and complex; |t| = 1 and |t| = 3 put
    # a double point on the curve, where a critical value has a critical point.
    @pytest.mark.parametrize("t", [
        3e-6, 1e-3j, 0.1, 1, 1j, cmath.exp(0.3j), -1, 2 * cmath.exp(0.02j), 3, -3j,
        0.7 - 0.7j, 1e2, -1e4j,
    ])
    @pytest.mark.parametrize("eps", [1e-3, 0.05, 0.25, 10.0])
    def test_lattice_matches_oracle(self, t, eps):
        _assert_matches_oracle(SpineSpec(complex(t)), _polar_lattice(complex(t), eps, 100), eps)

    def test_tiny_slope_wide_eps(self):
        # Without its rounding slacks the clearing bound misclassifies a point of this
        # lattice: the samples' rounding scales with the outer radius, about 2e11.
        _assert_matches_oracle(SpineSpec(3e-6 + 0j), _polar_lattice(3e-6 + 0j, 10.0, 200), 10.0)

    @pytest.mark.parametrize("samples", [16, 17, 1000, 8191])
    def test_any_sample_count(self, samples):
        # 2 * samples need not fill the last block of the exact stage
        t = 2 * cmath.exp(0.02j)
        s = SpineSpec(t, samples)
        rng = np.random.default_rng(samples)
        _, plus, _ = spine_points(s)
        jitter = rng.uniform(-0.3, 0.3, plus.size) + 1j * rng.uniform(-0.3, 0.3, plus.size)
        for eps in (1e-3, 0.05, 0.25):
            _assert_matches_oracle(s, _polar_lattice(t, eps, 60), eps)
            _assert_matches_oracle(s, plus + jitter, eps)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        log_mod=st.floats(-3.0, 3.0),
        arg=st.floats(-math.pi, math.pi),
        eps=st.floats(1e-3, 10.0),
        samples=st.integers(16, 2048),
        box=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=200),
    )
    def test_property_matches_oracle(self, log_mod, arg, eps, samples, box):
        t = 10.0**log_mod * cmath.exp(1j * arg)
        s = SpineSpec(t, samples)
        half = spine_radii(t)[1] + 2 * eps
        a = half * np.array([complex(x, y) for x, y in box])
        # and points scattered within a few eps of the curve, where the answer turns
        _, plus, minus = spine_points(s)
        curve = np.concatenate([plus, minus])
        rng = np.random.default_rng(samples)
        near = curve[rng.integers(0, curve.size, 200)]
        offset = rng.uniform(0, 1, 200) * np.exp(2j * math.pi * rng.uniform(0, 1, 200))
        near = near + 2 * eps * offset
        _assert_matches_oracle(s, np.concatenate([a, near]), eps)

    @pytest.mark.parametrize("t", [3e-3, 1 + 0.5j, 2 * cmath.exp(0.02j), -1e3j])
    def test_eps_at_the_oracle_distance(self, t):
        # eps equal to a query's own distance is within, the next float below is not:
        # the comparison is exact, not a squared or rounded stand-in
        s = SpineSpec(complex(t), 1024)
        _, plus, minus = spine_points(s)
        rng = np.random.default_rng(71)
        near = np.concatenate([plus[::16], minus[::16]])
        a = near + 0.2 * abs(near) * np.exp(2j * math.pi * rng.uniform(0, 1, near.size))
        for q, d in zip(a, spine_distances(s, a)):
            assert spine_within(s, np.array([q]), d)[0], (q, d)
            assert not spine_within(s, np.array([q]), np.nextafter(d, 0.0))[0], (q, d)

    def test_near_the_slope_limit(self, monkeypatch):
        # at |t| = 1.5e-154 the samples reach about 1e308 and the mean of a
        # block of 64 of them can overflow; a block's centre is one of its own
        # samples, so every block stays in the exact stage, with no warning
        s = SpineSpec(1.5e-154 + 0j, 4096)
        _, plus, minus = spine_points(s)
        curve = np.concatenate([plus, minus])
        rng = np.random.default_rng(154)
        near = curve[::3] + 0.5 * rng.uniform(0, 1, curve[::3].size) * np.exp(
            2j * math.pi * rng.uniform(0, 1, curve[::3].size))
        _assert_matches_oracle(s, near, 0.25)
        blocks = curve.reshape(-1, spine._BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            overflowed = np.flatnonzero(~np.isfinite(blocks.mean(axis=1)))
        assert overflowed.size > 0
        # with stage 2 finding nothing, stage 3 alone finds a query placed on a
        # sample of such a block
        monkeypatch.setattr(spine, "_witnessed", lambda t, q, *_: np.zeros(q.size, dtype=bool))
        q = blocks[overflowed, 5]
        assert spine_within(s, q, 0.25).all()

    def test_eps_near_the_float_limit(self):
        # 2r overflows in the clearing bound; that only leaves the queries to
        # the exact stages, with no warning
        _assert_matches_oracle(SpineSpec(2 + 0j, 64), np.array([0.5j, 1e150, 1e300]), 1e308)

    def test_far_query_at_a_huge_slope(self):
        # at |t| = 1e300 the spine lies within about 1e-300 of 0, and a query at
        # t overflows the clearing bound and then t*q in the witness stage;
        # the samples decide it, with no warning
        for t in (1e300, -1.7e308):
            _assert_matches_oracle(SpineSpec(complex(t), 64), np.array([0j, complex(t)]), 0.2)

    def test_stage_counts_on_the_bench_lattice(self, monkeypatch):
        # at t = 2, eps 0.25 and grid 300, stage 1 clears 50,660 of the 90,000
        # queries and stage 2 witnesses 34,510 of the rest: a change to the
        # clearing bound shows as a count, not only as time
        counts = {}

        def counted(stage, decide):
            def wrapped(*args):
                found = decide(*args)
                counts[stage] = counts.get(stage, 0) + int(np.count_nonzero(found))
                return found
            return wrapped

        for stage in ("_cleared", "_witnessed"):
            monkeypatch.setattr(spine, stage, counted(stage, getattr(spine, stage)))
        a = _polar_lattice(2 + 0j, 0.25, 300)
        spine_within(SpineSpec(2 + 0j), a, 0.25)
        assert (a.size, counts) == (90_000, {"_cleared": 50_660, "_witnessed": 34_510})

    def test_memory_independent_of_query_count(self):
        s = SpineSpec(2 * cmath.exp(0.02j))
        a = _polar_lattice(s.t, 0.25, 300)
        assert a.size == 90_000
        tracemalloc.start()
        try:
            spine_within(s, a, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 90 kB result plus chunked temporaries; all 90,000 queries at once
        # would need about 1.4 MB per complex temporary
        assert peak < 4_000_000, peak

    def test_rejects_non_finite_or_non_positive_eps(self):
        s = SpineSpec(2 + 0j, 64)
        for eps in (math.nan, math.inf, -math.inf, 0.0, -0.25):
            with pytest.raises(ValueError, match="finite and positive"):
                spine_within(s, np.array([0.5j]), eps)

    def test_rejects_non_finite_parameters(self):
        # as the k-d tree of spine_distances does
        with pytest.raises(ValueError):
            spine_within(SpineSpec(2 + 0j, 64), np.array([0.5j, complex(math.nan, 0)]), 0.25)
