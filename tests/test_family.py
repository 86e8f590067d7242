"""Core map family: branch conventions, critical data, orbit iteration."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmullen import family
from mcmullen.errors import PoleError
from mcmullen.family import (
    MapParams,
    OrbitResult,
    critical_orbits_bulk,
    critical_values,
    critical_values_bulk,
    escape_radius,
    escape_radius_bulk,
    eval_map,
    fixed_point_residual,
    inner_radius,
    iterate_orbit,
    iterate_orbit_blocks,
    iterate_orbits_bulk,
    np_principal_sqrt,
    pow_int,
    principal_arg,
    principal_root,
    principal_sqrt,
    safe_abs,
    wrap_angle,
)
from mcmullen.family import _within
from mcmullen.regions import WRegionSpec
from mcmullen.render import Diagonal, FixedC, RenderConfig, Viewport, render_slice
from mcmullen.solvers import diagonal_fixed_params, fixed_critical_params
from mcmullen.spine import SpineSpec, spine_radii
from mcmullen.verify import verify_spine_locus, verify_vminus_sign

from _closed_forms import critical_points

RNG = np.random.default_rng(20260816)


def random_params(rng, count):
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if a == 0:
            a = 1.0 + 0j
        c = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        out.append(MapParams(n, a, c))
    return out


def involute(p, z):
    """The involution h(z) = principal_root(a, n)/z of the map: R(h(z)) = R(z)."""
    return principal_root(p.a, p.n) / z


class TestAngleAndBranches:
    def test_wrap_angle_interval(self):
        for theta in np.linspace(-25, 25, 401):
            w = wrap_angle(float(theta))
            assert -math.pi < w <= math.pi
            # same angle modulo 2*pi
            assert abs(cmath.exp(1j * w) - cmath.exp(1j * theta)) < 1e-12

    def test_wrap_angle_boundary(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    def test_principal_arg_negative_real_axis(self):
        assert principal_arg(complex(-4.0, 0.0)) == math.pi
        assert principal_arg(complex(-4.0, -0.0)) == math.pi  # -0.0 normalized up
        assert principal_arg(1j) == math.pi / 2
        assert principal_arg(1.0) == 0.0

    def test_principal_sqrt_branch(self):
        for z in [complex(-9, 0), complex(-9, -0.0), 4 + 0j, -1 + 1e-300j]:
            r = principal_sqrt(z)
            assert -math.pi / 2 < principal_arg(r) <= math.pi / 2
            assert abs(r * r - complex(z.real, 0.0 if z.imag == 0 else z.imag)) < 1e-12
        assert principal_sqrt(complex(-4, -0.0)) == 2j  # not -2j

    def test_principal_root_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if z == 0:
                continue
            for m in (2, 3, 5, 8):
                r = principal_root(z, m)
                assert abs(pow_int(r, m) - z) < 1e-10 * max(1.0, abs(z))
                assert abs(principal_arg(r)) <= math.pi / m + 1e-12
        assert principal_root(0j, 5) == 0j

    def test_pow_int_matches_operator(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50)
        for n in (1, 2, 3, 7, 12):
            want = zs**n
            got_arr = pow_int(zs, n)
            np.testing.assert_allclose(got_arr, want, rtol=1e-12, atol=1e-12)
            for z in zs[:10]:
                s = pow_int(complex(z), n)
                idx = np.nonzero(zs == z)[0][0]
                # scalar and array paths share the operation order; only compiler
                # fused-multiply differences of ~1 ulp may remain
                assert abs(s - got_arr[idx]) <= 1e-14 * max(1.0, abs(s))

    def test_safe_abs_saturates(self):
        big = complex(1.4e308, 1.4e308)  # finite components, |z| > float max
        with pytest.raises(OverflowError):
            abs(big)  # the stdlib behavior safe_abs exists to absorb
        assert safe_abs(big) == math.inf
        assert safe_abs(3 + 4j) == 5.0


class TestMapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MapParams(2, 1 + 0j, 0j)
        with pytest.raises(ValueError):
            MapParams(3, 0j, 0j)
        p = MapParams(3, 1 + 0j, 0.5 + 0j)
        assert (p.n, p.a, p.c) == (3, 1 + 0j, 0.5 + 0j)

    @pytest.mark.parametrize("name", ["a", "c"])
    def test_overflowing_modulus_refused(self, name):
        # finite components whose modulus overflows binary64; the largest finite
        # modulus is still accepted
        big, fine = complex(1.5e308, 1.5e308), complex(1.7e308, 0.0)
        with pytest.raises(ValueError, match=f"{name} = .* overflows binary64"):
            MapParams(3, **{"a": 1 + 0j, "c": 0j, name: big})
        assert getattr(MapParams(3, **{"a": 1 + 0j, "c": 0j, name: fine}), name) == fine

    def test_frozen(self):
        p = MapParams(3, 1 + 0j, 0j)
        with pytest.raises(AttributeError):
            p.n = 4

    @pytest.mark.parametrize("n", [2, -3, True, 3.0, None])
    def test_one_exponent_check(self, n):
        # every entry point refuses n with the one check and its one message
        calls = (
            lambda: MapParams(n, 1 + 0j, 0j),
            lambda: WRegionSpec(c=-1 + 0j, n=n, j=0, w_j=1 + 0j, a_j=1 + 0j, k=0),
            lambda: render_slice(n, FixedC(6j), Viewport(-1, 1, -1, 1, 2, 2), RenderConfig()),
            lambda: fixed_critical_params(n, 6 + 0j),
            lambda: diagonal_fixed_params(n, 1 + 0j),
            lambda: verify_spine_locus(n, 2 + 0j, 0.25, grid=32),
            lambda: verify_vminus_sign(n, 1.0, 0.3),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"n must be an integer >= 3"):
                call()

    @pytest.mark.parametrize("t", [0j, complex(math.nan, 0), complex(0, math.inf)])
    def test_one_slope_check(self, t):
        for call in (
            lambda: Diagonal(t),
            lambda: SpineSpec(t),
            lambda: spine_radii(t),
            lambda: diagonal_fixed_params(3, t),
        ):
            with pytest.raises(ValueError, match="t must be finite and nonzero"):
                call()


class TestMapEvaluation:
    def test_eval_matches_formula(self):
        rng = np.random.default_rng(3)
        for p in random_params(rng, 40):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if z == 0:
                continue
            want = z**p.n + p.a / z**p.n + p.c
            assert abs(eval_map(p, z) - want) < 1e-9 * max(1.0, abs(want))

    def test_eval_pole(self):
        with pytest.raises(PoleError):
            eval_map(MapParams(3, 1 + 0j, 0j), 0j)

    def test_fixed_point_bound_scales_with_the_terms(self):
        p = MapParams(3, 2 + 0j, 0.5 + 0j)
        w = 0.125 + 0j  # w**3 = 2**-9 and a/w**3 = 2**10, both exact
        residual, bound = fixed_point_residual(p, w)
        assert residual == abs(eval_map(p, w) - w)
        assert bound == 1e-8 * (2.0**-9 + 2.0**10 + 0.5 + 0.125)
        # small terms keep the absolute floor 1e-8
        assert fixed_point_residual(MapParams(3, 1e-3 + 0j, 0.1 + 0j), 0.5 + 0j)[1] == 1e-8
        # a residual that is not finite never passes: w**n underflows to 0, or
        # w**n overflows, which would make the term sum infinite too
        for w in (1e-200 + 0j, 1e200 + 0j):
            residual, bound = fixed_point_residual(p, w)
            assert not math.isfinite(residual) and bound == 0.0
        with pytest.raises(PoleError):
            fixed_point_residual(p, 0j)

    def test_critical_points_count_and_equation(self):
        rng = np.random.default_rng(5)
        for p in random_params(rng, 25):
            pts = critical_points(p.n, p.a)
            assert len(pts) == 2 * p.n
            # critical equation: z**(2n) = a; all on the circle |a|**(1/2n)
            for xi in pts:
                assert abs(pow_int(xi, 2 * p.n) - p.a) < 1e-9 * max(1.0, abs(p.a))
                assert abs(abs(xi) - abs(p.a) ** (1 / (2 * p.n))) < 1e-12
            # angles are (psi + 2k pi)/2n, k = 0..2n-1, in index order
            psi = principal_arg(p.a)
            for k, xi in enumerate(pts):
                want = wrap_angle((psi + 2 * math.pi * k) / (2 * p.n))
                assert abs(wrap_angle(principal_arg(xi) - want)) < 1e-12

    def test_critical_values_formula_and_mapping(self):
        rng = np.random.default_rng(9)
        for p in random_params(rng, 25):
            vp, vm = critical_values(p)
            s = principal_sqrt(p.a)
            assert abs(vp - (p.c + 2 * s)) < 1e-12 * max(1.0, abs(vp))
            assert abs(vm - (p.c - 2 * s)) < 1e-12 * max(1.0, abs(vm))
            # each critical point maps to one of the two critical values;
            # parity of the index decides which (even -> v_plus, odd -> v_minus)
            for k, xi in enumerate(critical_points(p.n, p.a)):
                img = eval_map(p, xi)
                want = vp if k % 2 == 0 else vm
                assert abs(img - want) < 1e-8 * max(1.0, abs(want))

    def test_frozen_critical_point_value(self):
        # oracle: principal 8th root of |6i| at angle (pi/2)/8 (computed independently)
        p = MapParams(4, 6j, 0j)
        xi0 = critical_points(p.n, p.a)[0]
        assert xi0 == pytest.approx(1.226995148778515 + 0.24406450980689007j, abs=1e-12)

    def test_radii(self):
        p = MapParams(4, 6j, 6j)
        assert escape_radius(p) == 6.0  # max(4, |c|, |a|)
        assert inner_radius(p) == pytest.approx(6 ** (1 / 4) / 6.0, rel=1e-14)
        p2 = MapParams(3, 0.5 + 0j, 0.25 + 0j)
        assert escape_radius(p2) == 4.0
        assert inner_radius(p2) == pytest.approx(0.5 ** (1 / 3) / 4.0, rel=1e-14)


class TestInvolution:
    def test_involute_commutes_with_map(self):
        rng = np.random.default_rng(17)
        for p in random_params(rng, 50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 1e-3:
                continue
            lhs = eval_map(p, involute(p, z))
            rhs = eval_map(p, z)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_involute_permutes_critical_points(self):
        # h maps the critical point with index k to the one with index -k mod 2n,
        # fixing exactly the two principal-axis points k = 0 and k = n
        rng = np.random.default_rng(19)
        for p in random_params(rng, 30):
            pts = critical_points(p.n, p.a)
            for k, xi in enumerate(pts):
                img = involute(p, xi)
                want = pts[(-k) % (2 * p.n)]
                assert abs(img - want) < 1e-12 * max(1.0, abs(want))
            assert abs(involute(p, pts[0]) - pts[0]) < 1e-12 * max(1.0, abs(pts[0]))
            assert abs(involute(p, pts[p.n]) - pts[p.n]) < 1e-12 * max(1.0, abs(pts[p.n]))


class TestOrbits:
    def test_bounded_orbit(self):
        # parameter where a critical point is fixed: its orbit must stay bounded
        p = MapParams(4, -13.122875503987459 + 2.008554506696609j, 6j)
        w = -0.5528513714578666 - 1.2661645078316732j  # fixed critical point
        assert abs(eval_map(p, w) - w) < 1e-12
        res = iterate_orbit(p, w, 64, escape_radius(p))
        assert not res.escaped
        assert res.iterations == 64

    def test_escaped_orbit_counts_applications(self):
        p = MapParams(3, 1 + 0j, 0j)
        res = iterate_orbit(p, 10 + 0j, 100, 4.0)
        assert res.escaped and res.iterations == 1
        assert res.final_modulus > 4.0

    def test_pole_start_escapes_at_zero(self):
        p = MapParams(3, 1 + 0j, 0j)
        res = iterate_orbit(p, 0j, 10, 4.0)
        assert res == OrbitResult(True, 0, math.inf)

    def test_nonfinite_start(self):
        p = MapParams(3, 1 + 0j, 0j)
        res = iterate_orbit(p, complex(math.inf, 0), 10, 4.0)
        assert res == OrbitResult(True, 0, math.inf)

    def test_max_iter_validation(self):
        # orbits that leave at step 1 (z0 = 10) or at once (the pole z0 = 0), so
        # the largest budget costs nothing; one past it, a huge int, 0, a bool
        # and a float are refused by every entry point with one message
        limit = 2**31 - 1
        p = MapParams(3, 1 + 0j, 0j)
        assert iterate_orbit(p, 10 + 0j, limit, 4.0).iterations == 1
        esc, iters = iterate_orbits_bulk(3, 1 + 0j, 0j, [10 + 0j, 0j], limit, 4.0)
        assert esc.all() and iters.tolist() == [1, 0]
        block = (np.ones(2, complex), np.zeros(2, complex), np.array([10, 0j]), np.full(2, 4.0))
        assert [(k, it.tolist()) for k, it in iterate_orbit_blocks(3, [block], limit)] == [
            (0, [1, 0])]
        assert RenderConfig(max_iter=limit).max_iter == limit
        for bad in (limit + 1, 10**20, 0, True, 2.5):
            for call in (lambda: family.check_max_iter(bad),
                         lambda: RenderConfig(max_iter=bad),
                         lambda: iterate_orbit(p, 10 + 0j, bad, 4.0),
                         lambda: iterate_orbits_bulk(3, 1 + 0j, 0j, 10 + 0j, bad, 4.0),
                         lambda: list(iterate_orbit_blocks(3, [block], bad))):
                with pytest.raises(ValueError, match="max_iter must be an integer from 1 to "
                                                     "2147483647"):
                    call()

    def test_huge_modulus_does_not_crash(self):
        # components near 1e308: plain abs() raises OverflowError; orbit must not
        p = MapParams(8, 1 + 0j, 0j)
        res = iterate_orbit(p, complex(1e40, 1e40), 8, 4.0)
        assert res.escaped and res.iterations == 1

    def test_scalar_and_bulk_agree(self):
        rng = np.random.default_rng(23)
        n = 4
        a = rng.uniform(-15, 5, 300) + 1j * rng.uniform(-8, 8, 300)
        a[a == 0] = 1.0
        c = np.full(300, 6j)
        z0 = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
        thr = np.maximum(4.0, np.maximum(np.abs(a), np.abs(c)))
        esc, iters = iterate_orbits_bulk(n, a, c, z0, 50, thr)
        for i in range(300):
            want = iterate_orbit(MapParams(n, complex(a[i]), 6j), complex(z0[i]), 50, float(thr[i]))
            assert esc[i] == want.escaped, i
            assert iters[i] == want.iterations, i

    def test_bulk_pole_and_nonfinite_entries(self):
        esc, iters = iterate_orbits_bulk(
            3, [1 + 0j, 1 + 0j], [0j, 0j], [0j, complex(math.nan, 0)], 10, [4.0, 4.0]
        )
        assert esc.tolist() == [True, True]
        assert iters.tolist() == [0, 0]

    def test_bulk_broadcasting(self):
        # scalar a/c against a grid of z0
        z0 = np.array([[0.1 + 0j, 10 + 0j], [1 + 1j, 0j]])
        esc, iters = iterate_orbits_bulk(3, 1 + 0j, 0j, z0, 20, 4.0)
        assert esc.shape == (2, 2) and iters.shape == (2, 2)
        assert bool(esc[0, 1]) and iters[0, 1] == 1
        assert bool(esc[1, 1]) and iters[1, 1] == 0  # pole at start


def reference_orbits_bulk(n, a, c, z0, max_iter, threshold):
    """Plain gather/scatter form of iterate_orbits_bulk, kept as its oracle: every
    live orbit takes every step and the documented test, with no working set or
    cycle retirement."""
    a, c, z0, thr = np.broadcast_arrays(
        np.asarray(a, dtype=complex),
        np.asarray(c, dtype=complex),
        np.asarray(z0, dtype=complex),
        np.asarray(threshold, dtype=float),
    )
    shape = z0.shape
    a = a.ravel()
    c = c.ravel()
    thr = thr.ravel()
    z = z0.ravel().astype(complex, copy=True)

    iters = np.zeros(z.size, dtype=np.int64)
    escaped = np.zeros(z.size, dtype=bool)
    finite0 = np.isfinite(z.real) & np.isfinite(z.imag)
    escaped[~finite0] = True
    active = np.flatnonzero(finite0)

    for step in range(1, max_iter + 1):
        if active.size == 0:
            break
        za = z[active]
        pole = za == 0
        if pole.any():
            hit = active[pole]
            escaped[hit] = True
            iters[hit] = step - 1
            active = active[~pole]
            za = z[active]
            if active.size == 0:
                break
        with np.errstate(all="ignore"):
            zn = pow_int(za, n)
            znew = zn + a[active] / zn + c[active]
        z[active] = znew
        bad = ~(np.isfinite(znew.real) & np.isfinite(znew.imag))
        with np.errstate(all="ignore"):
            out = bad | (np.abs(znew) > thr[active])
        if out.any():
            hit = active[out]
            escaped[hit] = True
            iters[hit] = step
            active = active[~out]

    iters[~escaped] = max_iter
    return escaped.reshape(shape), iters.reshape(shape)


def assert_matches_reference(*args):
    """iterate_orbits_bulk(*args) equals the oracle exactly; returns its result."""
    esc, iters = iterate_orbits_bulk(*args)
    want_esc, want_iters = reference_orbits_bulk(*args)
    assert esc.dtype == want_esc.dtype and iters.dtype == want_iters.dtype
    np.testing.assert_array_equal(esc, want_esc)
    np.testing.assert_array_equal(iters, want_iters)
    return esc, iters


def lattice(center, half, size):
    """size x size pixel-center lattice of the square of half-width `half`, flattened."""
    t = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    return (center + half * (t[None, :] + 1j * t[:, None])).ravel()


def critical_orbit_args(n, a, c, max_iter):
    """The two argument tuples critical_orbits_bulk passes to iterate_orbits_bulk."""
    thr = np.maximum(4.0, np.maximum(np.abs(c), np.abs(a)))
    root = np_principal_sqrt(a)
    return [(n, a, c, c + 2.0 * root, max_iter, thr), (n, a, c, c - 2.0 * root, max_iter, thr)]


# Starting at z0 = 1 with a = -1, the first step gives z**n + a/z**n = 1 - 1 = 0
# exactly, so z1 = c exactly: c places the first iterate anywhere, bit for bit.
Z1_IS_C = dict(n=3, a=-1 + 0j, z0=1 + 0j)

# Just past the parabolic parameter c = 2/(3*sqrt(3)) of z**3 + c, a real orbit
# creeps up through the bottleneck: from z0 = 0.5 with a tiny a, |z| first
# exceeds 0.75 at step 128 (|z_127| is about 0.729, |z_128| about 0.773).
SLOW_128 = dict(n=3, a=1e-30 + 0j, c=2 / (3 * math.sqrt(3)) + 3e-4 + 0j, z0=0.5 + 0j, thr=0.75)


# Finite escape thresholds at the ends of binary64 and on both sides of zero.
FINITE_THRESHOLDS = [5.0, 13.3, 5e-324, 1e-160, 2.0**-481, 2.0**-479, 2.0**499, 2.0**501,
                     1e154, 1e300, -5.0, 0.0]


class TestBulkKernelOracle:
    """iterate_orbits_bulk against the plain reference kernel: (escaped, iters)
    exactly equal, on the paper's zooms and on every edge of the decision rule."""

    @pytest.fixture(scope="class")
    def center_args(self):
        args = []
        for spec in fixed_critical_params(4, 6j):
            a = lattice(spec.a_j, 0.1, 64)
            args += critical_orbit_args(4, a, np.full(a.shape, 6j), 1000)
        return args

    def test_center_zooms_both_critical_orbits(self, center_args):
        bounded = 0
        for args in center_args:
            esc, _ = assert_matches_reference(*args)
            bounded += int(np.count_nonzero(~esc))
        assert bounded > 1000  # the zooms hold bounded orbits, which retirement serves

    def test_critical_orbits_bulk_is_two_kernel_calls(self, center_args):
        n, a, c, _, max_iter, _ = center_args[0]
        plus, minus = critical_orbits_bulk(n, a, c, max_iter)
        for got, args in zip((plus, minus), center_args[:2]):
            want = reference_orbits_bulk(*args)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_readme_dynamical_plane(self):
        p = MapParams(4, -13.122875503987459 + 2.008554506696609j, 6j)
        z0 = lattice(0j, 2.0, 64)
        esc, _ = assert_matches_reference(p.n, p.a, p.c, z0, 1000, escape_radius(p))
        assert 0 < np.count_nonzero(~esc) < z0.size

    def test_pole_and_non_finite_inputs(self):
        nan, inf = math.nan, math.inf
        z0 = np.array([0j, complex(nan, 0), complex(inf, 0), complex(0, -inf),
                       complex(inf, nan), 1 + 0j, 0.5 + 0.5j, 1 + 0j])
        a = np.array([1, 1, 1, 1, 1, -1, complex(nan, 0), complex(inf, 1)])
        c = np.array([0, 0, 0, 0, 0, 0, 0, 0j])
        for max_iter in (1, 2, 5):
            esc, iters = assert_matches_reference(3, a, c, z0, max_iter, 4.0)
            assert esc[:5].all() and not iters[:5].any()  # pole and non-finite starts
            # z1 = 0 exactly: the pole met at step 2 dates the escape at 1; with
            # one step allowed the orbit is bounded
            assert (bool(esc[5]), int(iters[5])) == (max_iter > 1, 1)
            assert bool(esc[6]) and iters[6] == 1  # non-finite a
            assert bool(esc[7]) and iters[7] == 1

    def test_threshold_is_exact_at_the_boundary(self):
        # |3 + 4i| is exactly 5: on the threshold it stays, one ulp below it escapes
        n, a, z0 = Z1_IS_C["n"], Z1_IS_C["a"], Z1_IS_C["z0"]
        for thr, want in ((5.0, (False, 1)), (np.nextafter(5.0, 0.0), (True, 1))):
            esc, iters = assert_matches_reference(n, a, 3 + 4j, z0, 1, thr)
            assert (bool(esc), int(iters)) == want
            res = iterate_orbit(MapParams(n, a, 3 + 4j), z0, 1, float(thr))
            assert (res.escaped, res.iterations) == want

    @pytest.mark.parametrize("scale", [0.3, 2.0**166, 1e51])
    def test_second_iterates_within_ulps_of_the_threshold(self, scale):
        # From step 2 on the pool decides. z1 = c from the lattice, z2 = R(c) as
        # the kernel computes it, and thresholds from |z2| * (1 - 400u) to
        # |z2| * (1 + 8u), on both sides of the comparison. |z1| stays far below
        # them. The scales put thr near 10, near 2**499 and near 1e154.
        rng = np.random.default_rng(int(np.log2(scale)) + 2000)
        c = scale * rng.uniform(1.0, 2.0, 4000) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4000))
        n, a, z0 = Z1_IS_C["n"], Z1_IS_C["a"], Z1_IS_C["z0"]
        zn = pow_int(c, n)
        z2 = zn + a / zn + c
        thr = np.abs(z2) * (1.0 + rng.integers(-400, 9, c.size) * 2.0**-53)
        assert (np.abs(c) < thr / 2).all()
        esc, iters = assert_matches_reference(n, a, c, z0, 3, thr)
        assert (esc & (iters == 2)).any() and (iters > 2).any()

    @staticmethod
    def near_threshold_values(thr):
        """Moduli within 400 ulps of |thr| at many angles (exactly 45 degrees too),
        plus zero, tiny, huge, overflowing and non-finite values."""
        rng = np.random.default_rng(7)
        r = abs(thr) if thr != 0 else 1.0
        angle = np.concatenate([np.full(64, math.pi / 4), rng.uniform(0, 2 * math.pi, 4000)])
        k = rng.integers(-400, 9, angle.size)
        with np.errstate(all="ignore"):
            z = r * (1.0 + k * 2.0**-53) * np.exp(1j * angle)
        return np.concatenate([z, [0j, 1e-300j, 5e-324 + 0j, complex(1e300, 1e300),
                                   complex(1.5e308, 1.5e308), complex(math.inf, 0),
                                   complex(math.nan, 1), complex(math.inf, math.nan)]])

    @pytest.mark.parametrize("thr", FINITE_THRESHOLDS)
    def test_one_comparison_is_the_rule(self, thr):
        # The kernel's whole escape decision, |z| <= thr, is the negation of
        # "non-finite or |z| > thr" for every finite thr: negative, zero,
        # subnormal (5e-324), with a subnormal square (1e-160) and huge.
        z = self.near_threshold_values(thr)
        thr_arr = np.full(z.size, thr)
        with np.errstate(all="ignore"):
            escapes = ~np.isfinite(z) | (np.abs(z) > thr_arr)
            np.testing.assert_array_equal(~_within(z, thr_arr), escapes)
        assert escapes.any()

    @pytest.mark.parametrize("thr", FINITE_THRESHOLDS)
    def test_kernel_at_finite_threshold(self, thr):
        # z1 = c exactly: first iterates on and around the threshold, and halves of
        # them, whose second iterates overflow, hit the pole or escape in the pool.
        z1 = self.near_threshold_values(thr)
        with np.errstate(invalid="ignore"):
            c = np.concatenate([z1, z1 / 2])
        n, a, z0 = Z1_IS_C["n"], Z1_IS_C["a"], Z1_IS_C["z0"]
        esc, _ = assert_matches_reference(n, a, c, z0, 3, thr)
        assert esc.any()

    @pytest.mark.parametrize("thr", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_refused(self, thr):
        p = MapParams(3, 1 + 0j, 0j)
        with pytest.raises(ValueError, match="threshold must be finite"):
            iterate_orbit(p, 0.5 + 0j, 10, thr)
        with pytest.raises(ValueError, match="threshold must be finite"):
            iterate_orbits_bulk(3, 1 + 0j, 0j, [0.5 + 0j, 2 + 0j], 10, [4.0, thr])
        good = (np.ones(2, complex), np.zeros(2, complex), np.full(2, 0.5 + 0j), np.full(2, 4.0))
        bad = good[:3] + (np.array([4.0, thr]),)
        with pytest.raises(ValueError, match="threshold must be finite"):
            list(iterate_orbit_blocks(3, [good, bad], 10))

    def test_permuted_and_chunked_inputs(self, center_args):
        # Retirement assumes an orbit's arithmetic does not depend on its position
        # in the working set; permuting or splitting the input must change nothing.
        rng = np.random.default_rng(29)
        for args in center_args[:2]:
            n, a, c, z0, max_iter, thr = args
            esc, iters = iterate_orbits_bulk(*args)
            perm = rng.permutation(z0.size)
            p_esc, p_iters = iterate_orbits_bulk(n, a[perm], c[perm], z0[perm], max_iter, thr[perm])
            np.testing.assert_array_equal(p_esc, esc[perm])
            np.testing.assert_array_equal(p_iters, iters[perm])
            cuts = [0, 1, 8, 31, 500, 1777, z0.size]
            parts = [iterate_orbits_bulk(n, a[i:j], c[i:j], z0[i:j], max_iter, thr[i:j])
                     for i, j in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(np.concatenate([e for e, _ in parts]), esc)
            np.testing.assert_array_equal(np.concatenate([m for _, m in parts]), iters)


def pooled_orbits(n, blocks, max_iter):
    """iterate_orbit_blocks as {key: (escaped, iters)} in iterate_orbits_bulk's form;
    each key must be yielded exactly once."""
    got = {}
    for k, iters in iterate_orbit_blocks(n, blocks, max_iter):
        assert k not in got
        iters = iters.astype(np.int64)
        escaped = iters >= 0
        iters[~escaped] = max_iter
        got[k] = (escaped, iters)
    assert sorted(got) == list(range(len(got)))
    return got


def edge_rows():
    """Rows (a, c, z0, thr) for n = 4: both critical orbits of a 24x24 zoom around a
    fixed-critical center (bounded orbits, some retired by Brent, and escapes at
    many steps), then every edge of the decision rule."""
    a = lattice(fixed_critical_params(4, 6j)[0].a_j, 0.1, 24)
    plus, minus = critical_orbit_args(4, a, np.full(a.shape, 6j), 1)
    cols = [np.concatenate([plus[i], minus[i]]) for i in (1, 2, 3, 5)]
    nan, inf = math.nan, math.inf
    edges = [
        (1, 0, 0, 4.0),  # pole start
        (1, 0, complex(nan, 0), 4.0),  # non-finite starts
        (1, 0, complex(inf, 0), 4.0),
        (1, 0, complex(0, -inf), 4.0),
        (-1, 0, 1, 4.0),  # z1 = 0 exactly: the pole met at step 2 dates the escape at 1
        (-1, 3 + 4j, 1, 5.0),  # |z1| = 5 on the threshold stays ...
        (-1, 3 + 4j, 1, np.nextafter(5.0, 0.0)),  # ... and one ulp below it escapes
        (complex(nan, 0), 0, 0.5 + 0.5j, 4.0),  # non-finite a
        (complex(inf, 1), 0, 1, 4.0),
        tuple(SLOW_128[k] for k in ("a", "c", "z0", "thr")),  # escapes at step 128
    ]
    dtypes = (complex, complex, complex, float)
    return [np.concatenate([col, np.array(e, dtype=dt)])
            for col, e, dt in zip(cols, zip(*edges), dtypes)]


EDGE_ROWS = edge_rows()


class TestPooledKernel:
    """iterate_orbit_blocks: blocks sharing one working set get exactly the results
    each block gets alone, from the gather/scatter oracle and iterate_orbits_bulk."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        max_iter=st.sampled_from([1, 2, 3, 17, 120, 127, 128]),
        picks=st.lists(st.lists(st.integers(0, EDGE_ROWS[0].size - 1), max_size=40),
                       min_size=1, max_size=20),
    )
    def test_blocks_of_mixed_lengths_match_the_oracle(self, max_iter, picks):
        blocks = [tuple(col[np.array(ix, dtype=np.intp)] for col in EDGE_ROWS) for ix in picks]
        got = pooled_orbits(4, blocks, max_iter)
        assert len(got) == len(blocks)
        for k, (a, c, z0, thr) in enumerate(blocks):
            want = reference_orbits_bulk(4, a, c, z0, max_iter, thr)
            np.testing.assert_array_equal(got[k][0], want[0])
            np.testing.assert_array_equal(got[k][1], want[1])

    @pytest.mark.parametrize("max_iter", [127, 128])
    def test_escape_at_step_128(self, max_iter):
        # 128 is the first count past int8: an escape at the last of 128 steps must
        # read 128, in a block of its own and pooled after a zoom block
        n, a, c, z0, thr = (SLOW_128[k] for k in ("n", "a", "c", "z0", "thr"))
        want = (max_iter == 128, max_iter)
        esc, iters = assert_matches_reference(n, a, c, z0, max_iter, thr)
        assert (bool(esc), int(iters)) == want
        res = iterate_orbit(MapParams(n, a, c), z0, max_iter, thr)
        assert (res.escaped, res.iterations) == want
        zoom = tuple(col[:200] for col in EDGE_ROWS)
        one = tuple(np.array([v], dtype=type(v)) for v in (a, c, z0, thr))
        got = pooled_orbits(n, [zoom, one], max_iter)
        assert (bool(got[1][0][0]), int(got[1][1][0])) == want

    def test_edge_rows_in_every_block(self):
        # each edge row in its own block, in a block with zoom rows, and in a block
        # of its own again after the zoom blocks, at max_iter 1, 2 and 5
        edges = np.arange(EDGE_ROWS[0].size - 10, EDGE_ROWS[0].size)
        zoom = np.arange(0, EDGE_ROWS[0].size - 10, 7)
        picks = [[i] for i in edges] + [np.concatenate([zoom, edges]), zoom] + [[i] for i in edges]
        blocks = [tuple(col[np.asarray(ix)] for col in EDGE_ROWS) for ix in picks]
        for max_iter in (1, 2, 5):
            got = pooled_orbits(4, blocks, max_iter)
            for k, (a, c, z0, thr) in enumerate(blocks):
                esc, iters = iterate_orbits_bulk(4, a, c, z0, max_iter, thr)
                np.testing.assert_array_equal(got[k][0], esc)
                np.testing.assert_array_equal(got[k][1], iters)

    def test_brent_retires_in_every_block_alike(self, monkeypatch):
        # Uneven blocks of a zoom's critical orbits at max_iter 400: the pooled run
        # computes exactly the orbit steps of the blocks run one by one, in fewer
        # loop steps, and bounded orbits are retired early in several blocks.
        a = lattice(fixed_critical_params(4, 6j)[1].a_j, 0.1, 40)
        cuts = [0, 13, 200, 201, 650, 900, 1301, a.size]
        blocks = []
        for _, a_, c, z0, _, thr in critical_orbit_args(4, a, np.full(a.shape, 6j), 400):
            blocks += [(a_[i:j], c[i:j], z0[i:j], thr[i:j]) for i, j in zip(cuts, cuts[1:])]
        counts = [0, 0]

        def counting(z, n):
            counts[0] += 1
            counts[1] += np.size(z)
            return pow_int(z, n)

        monkeypatch.setattr(family, "pow_int", counting)
        got = pooled_orbits(4, blocks, 400)
        pooled = counts.copy()
        retired = 0
        banded = [0, 0]
        for k, (a_, c, z0, thr) in enumerate(blocks):
            counts[:] = [0, 0]
            esc, iters = iterate_orbits_bulk(4, a_, c, z0, 400, thr)
            np.testing.assert_array_equal(got[k][0], esc)
            np.testing.assert_array_equal(got[k][1], iters)
            retired += counts[1] < iters.sum()  # no poles here: fewer steps than logical
            banded = [banded[0] + counts[0], banded[1] + counts[1]]
        assert pooled[1] == banded[1]
        assert pooled[0] < banded[0] / 2
        assert retired >= 4

    def test_reads_blocks_lazily_within_the_open_cap(self):
        # Blocks are read only when the pool runs low and fewer than _OPEN_MAX are
        # open, for blocks larger and smaller than the admission level: with 36
        # small blocks, the first result comes before the last block is read.
        zoom = lattice(fixed_critical_params(4, 6j)[0].a_j, 0.1, 100)
        for size, count in ((family._POOL_MIN + 1, 3), (20, 3 * family._OPEN_MAX)):
            pulled = []

            def blocks():
                for k in range(count):
                    pulled.append(k)
                    a = zoom[k * size:(k + 1) * size]
                    v_minus = critical_values_bulk(a, 6j)[1]
                    yield a, np.full(a.size, 6j), v_minus, escape_radius_bulk(a, 6j)

            done = 0
            for _ in iterate_orbit_blocks(4, blocks(), 300):
                assert len(pulled) - done <= family._OPEN_MAX
                done += 1
            assert done == count == len(pulled)

    def test_a_fixed_point_at_step_1_is_retired_at_step_2(self, monkeypatch):
        # z0 = 1, a = -1, c = 1: z1 = 1 - 1 + 1 = 1 is a fixed point, so z2 equals
        # the step-1 reference and the orbit leaves as bounded after two steps
        computed = []
        monkeypatch.setattr(family, "pow_int", lambda z, n: computed.append(z.size) or pow_int(z, n))
        esc, iters = iterate_orbits_bulk(4, -1 + 0j, 1 + 0j, 1 + 0j, 1000, 4.0)
        assert (bool(esc), int(iters)) == (False, 1000)
        assert computed == [1, 1]

    def test_no_step_after_the_last_orbit_leaves(self, monkeypatch):
        # z0 = 1, a = -1, c = 1.2: z1 = 1.2, |z2| = 2.79 and |z3| = 60.6 > 4, so
        # the orbit escapes at step 3 and the kernel takes exactly three steps
        computed = []
        monkeypatch.setattr(family, "pow_int", lambda z, n: computed.append(z.size) or pow_int(z, n))
        esc, iters = iterate_orbits_bulk(4, -1 + 0j, 1.2 + 0j, 1 + 0j, 1000, 4.0)
        assert (bool(esc), int(iters)) == (True, 3)
        assert computed == [1, 1, 1]

    def test_a_block_closes_once_its_orbits_have_left(self):
        # One orbit of a zoom that stays bounded and is not retired in 300 steps,
        # then 30 one-orbit blocks that escape at step 2 (z1 = c = 3, thr 4): each
        # of those is yielded as soon as its orbit has left, long before the first.
        a = np.array([-13.068708837320791 + 1.9127211733632754j])
        slow = (a, np.array([6j]), np.array([-0.5276934248638624 - 1.2493651928929417j]),
                escape_radius_bulk(a, 6j))
        fast = tuple(np.array([x]) for x in (-1 + 0j, 3 + 0j, 1 + 0j, 4.0))
        got = list(iterate_orbit_blocks(4, [slow] + [fast] * 30, 300))
        assert [k for k, _ in got] == list(range(1, 31)) + [0]
        assert [int(it[0]) for _, it in got] == [2] * 30 + [-1]

    def test_no_blocks_and_empty_blocks(self):
        assert list(iterate_orbit_blocks(4, [], 10)) == []
        empty = (np.empty(0, complex),) * 3 + (np.empty(0),)
        got = list(iterate_orbit_blocks(4, [empty, empty], 10))
        assert [k for k, _ in got] == [0, 1] and all(it.size == 0 for _, it in got)
        with pytest.raises(ValueError):
            list(iterate_orbit_blocks(4, [empty], 0))
