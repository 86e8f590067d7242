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
    critical_blocks,
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


def where_principal_sqrt(a):
    """np_principal_sqrt as first written: the principal root after np.where
    replaces a zero imaginary part by +0.0."""
    a = np.asarray(a, dtype=complex)
    return np.sqrt(np.where(a.imag == 0.0, a.real + 0.0j, a))


def bits(x):
    """The binary64 bits of the real and imaginary parts of complex x."""
    return np.asarray(x, dtype=complex).reshape(-1).view(np.uint64)


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

    def test_np_principal_sqrt_bits(self):
        # every sign of zero, infinity and nan in each part, subnormals, the
        # largest binary64, negative reals with -0.0 imaginary parts, and random
        # values: np_principal_sqrt and the critical values built on it equal,
        # bit for bit, the np.where form, element by element and for scalars
        parts = np.array([0.0, -0.0, 1.0, -1.0, -4.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                          math.inf, -math.inf, math.nan])
        grid = np.empty(parts.size ** 2, dtype=complex)
        grid.real, grid.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        rng = np.random.default_rng(5)
        negative = -rng.exponential(size=200) - 0.0j
        negative.imag = -0.0
        scaled = rng.normal(size=400) + 1j * rng.normal(size=400)
        scaled *= 10.0 ** rng.integers(-300, 300, 400)
        for a in (grid, negative, scaled, -scaled):
            want = where_principal_sqrt(a)
            np.testing.assert_array_equal(bits(np_principal_sqrt(a)), bits(want))
            for x, w in zip(a[::7].tolist(), want[::7]):
                assert bits(np_principal_sqrt(x)).tolist() == bits(w).tolist()
            c = rng.normal(size=a.size) + 1j * rng.normal(size=a.size)
            c[:parts.size] = grid[:parts.size]
            with np.errstate(invalid="ignore", over="ignore"):  # inf and nan parts
                got, want = critical_values_bulk(a, c), (c + 2.0 * want, c - 2.0 * want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(bits(g), bits(w))

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

    @pytest.mark.parametrize("n", [1, 2, -3, True, 3.0, None])
    def test_one_exponent_check(self, n):
        # every entry point refuses n with the one check and its one message
        block = (np.ones(1, complex), np.full(1, 0.1 + 0j), np.full(1, 0.5 + 0j), np.full(1, 4.0))
        calls = (
            lambda: iterate_orbits_bulk(n, 1, 0.1, 0.5, 10, 4.0),
            lambda: list(iterate_orbit_blocks(n, [block], 10)),
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
    """The iterate_orbits_bulk argument tuples of both critical orbits, written out."""
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

    def test_critical_blocks_are_the_kernel_arguments(self, center_args):
        # each block (a, c, z0, threshold) is the written-out argument tuple, bit
        # for bit, on a point and on the arrays of a zoom
        for a, c in ((center_args[0][1], center_args[0][2]), (-13.1 + 2.0j, 6j)):
            got = critical_blocks(a, c)
            want = critical_orbit_args(4, a, c, 1000)
            assert len(got) == 2
            for block, args in zip(got, want):
                assert len(block) == 4
                for x, y in zip(block, args[1:4] + args[5:]):
                    np.testing.assert_array_equal(x, y)

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
            np.testing.assert_array_equal(~_within(np.abs(z), thr_arr), escapes)
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
    fixed-critical center (bounded orbits, some retired at an exact repeat, and
    escapes at many steps), then every edge of the decision rule."""
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


def leave_steps(n, a, c, z0, thr, max_iter):
    """How and at which step each orbit leaves under a one-step schedule, as
    (kind, step): "escape" at the step whose value fails |z| <= thr, "pole" at
    the step after a z == 0 (the count is one less), "retire" at the step whose
    value repeats exactly an earlier one (z at the last power-of-two step
    before it, which finds every exact cycle), and "bounded" at max_iter.
    reference_orbits_bulk gives only counts; the rows of window_edge_rows are
    picked by kind."""
    kind = np.full(z0.size, "bounded", dtype=object)
    step = np.full(z0.size, max_iter)
    z = z0.astype(complex)
    live = np.isfinite(z)
    kind[~live], step[~live] = "escape", 0
    ref = None
    with np.errstate(all="ignore"):
        for m in range(1, max_iter + 1):
            pole = live & (z == 0)
            zn = pow_int(z, n)
            z = zn + a / zn + c
            out = live & ~(np.abs(z) <= thr)
            kind[out], step[out] = np.where(pole[out], "pole", "escape"), m
            live &= ~out
            if ref is not None:
                same = live & (z == ref)
                kind[same], step[same] = "retire", m
                live &= ~same
            if m & (m - 1) == 0:
                ref = z.copy()
    return kind, step


def window_edge_rows(max_step):
    """Rows (a, c, z0, thr), n = 4, one for each kind and leaving step: an escape
    at every step 1..max_step, a pole at every step 1..max_step (a z == 0 at
    every step 0..max_step - 1) and a retirement at every step 2..max_step.
    With a = 1e-300 the map is z**4 + c in binary64 wherever |z| is not tiny:
    - from z0 = 2, 1 and 0 an orbit of z**4 - 1 escapes at 1, meets 0 at 1 and
      starts at 0; from z0 in (0, 1) it falls into the superattracting cycle
      0, -1 and meets 0 exactly, the later the nearer z0 is to 1 or to the
      repelling fixed point 1.2207..., above which it escapes, the later the
      nearer;
    - critical orbits z0 = c escape slowly just outside the cusp of the main
      cardioid at c = 0.75 / 4**(1/3), and repeat exactly inside it
      (period 1) and in the period windows of -1.45 < c < -0.9, at every
      period and entry step the test needs.
    The rows of z**4 - 1 come again with threshold 0.9, below the escape
    radius: there an orbit that failed can come back within the threshold and
    meet 0 later in the window, which must not move its count."""
    fixed = 1.2207440846057596
    d = np.logspace(-1, -15, 3000)
    cusp = 0.75 / 4 ** (1 / 3)
    minus_one = np.concatenate([[2.0, 1.0, 0.0], 1 - d, d[::-1] * 0.5, fixed - d, fixed + d])
    real_c = np.concatenate([cusp + np.logspace(-1, -8, 2000), np.linspace(0.0, cusp, 3000),
                             np.linspace(-1.45, -0.9, 60000)])
    c = np.concatenate([np.full(minus_one.size, -1.0), real_c]).astype(complex)
    z0 = np.concatenate([minus_one, real_c]).astype(complex)
    a, thr = np.full(c.size, 1e-300 + 0j), np.full(c.size, 4.0)
    kind, step = leave_steps(4, a, c, z0, thr, max_step)
    pick = []
    for k, lo in (("escape", 1), ("pole", 1), ("retire", 2)):
        for m in range(lo, max_step + 1):
            hit = np.flatnonzero((kind == k) & (step == m))
            assert hit.size, (k, m)
            pick.append(hit[0])
    low = [i for i in pick if c[i] == -1]
    thr = np.concatenate([thr[pick], np.full(len(low), 0.9)])
    pick += low
    return a[pick], c[pick], z0[pick], thr


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

    @pytest.mark.parametrize("window", [3, family._WINDOW])
    def test_window_edges_match_the_oracle(self, monkeypatch, window):
        # Orbits escape, meet z == 0 and are retired at every step up to 2W + 1,
        # so at every offset of every window of a block alone: a z == 0 at a
        # window's last step is the next window's start state, whose pole is
        # dated across the boundary, and one at any other step lies mid-window.
        # Shuffled into 20 blocks of uneven sizes, more than _OPEN_MAX, later
        # blocks join while others are mid-schedule. At max_iter W - 1, W,
        # W + 1 and 2W + 1, every count, block by block alone and pooled,
        # equals the oracle's.
        monkeypatch.setattr(family, "_WINDOW", window)
        rows = window_edge_rows(2 * window + 1)
        rng = np.random.default_rng(window)
        order = rng.permutation(rows[0].size)
        cuts = np.sort(rng.choice(np.arange(1, order.size), 19, replace=False))
        blocks = [tuple(col[ix] for col in rows) for ix in np.split(order, cuts)]
        births = []
        admit = family._Pool.admit

        def spy(pool, k, block):
            births.append(pool.steps)
            return admit(pool, k, block)

        monkeypatch.setattr(family._Pool, "admit", spy)
        for max_iter in (window - 1, window, window + 1, 2 * window + 1):
            births.clear()
            got = pooled_orbits(4, blocks, max_iter)
            assert len(set(births)) > 1  # not all blocks join at once
            for k, (a, c, z0, thr) in enumerate(blocks):
                want = reference_orbits_bulk(4, a, c, z0, max_iter, thr)
                for esc, iters in (got[k], iterate_orbits_bulk(4, a, c, z0, max_iter, thr)):
                    np.testing.assert_array_equal(esc, want[0])
                    np.testing.assert_array_equal(iters, want[1])

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

    def test_exact_repeats_retire_in_every_block_alike(self, monkeypatch):
        # Uneven blocks of a zoom's critical orbits at max_iter 400: the pooled run
        # computes exactly the orbit steps of the blocks run one by one, in fewer
        # loop steps, and bounded orbits are retired early in several blocks.
        # Retirement runs at window ends, which depend on the schedule: every
        # block here joins at pool step 0 and no window ends early, so its
        # windows are the ones it has alone, and the trigger nominates nothing,
        # so only exact repeats retire.
        monkeypatch.setattr(family, "_TOL", -1.0)
        monkeypatch.setattr(family, "_STOPS", ())
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

    def test_admission_dates_alone_and_pooled(self):
        # z0 = 1e100 is finite and nonzero, and its first iterate overflows: an
        # escape at step 1. z0 = 0 is a pole and a non-finite z0 escapes before
        # the first step: both at 0. From z0 = 1, a = -1, c = 0 the first iterate
        # is 0 exactly, a pole at step 2, dated 1. Each row alone, all in one
        # block, and pooled with zoom rows and after a zoom block.
        nan, inf = math.nan, math.inf
        rows = [(1, 6j, 1e100, 1), (1, 0, 1e100 + 1e100j, 1), (1, 6j, 0, 0), (-1, 0, 0, 0),
                (1, 0, complex(nan, 0), 0), (1, 0, complex(1, inf), 0), (-1, 0, 1, 1)]
        a, c, z0 = (np.array(col, dtype=complex) for col in list(zip(*rows))[:3])
        want = np.array([m for *_, m in rows])
        thr = np.full(a.size, 4.0)
        ref = reference_orbits_bulk(4, a, c, z0, 100, thr)
        assert ref[0].all() and ref[1].tolist() == want.tolist()
        for i in range(a.size):
            esc, iters = iterate_orbits_bulk(4, a[i], c[i], z0[i], 100, 4.0)
            assert (bool(esc), int(iters)) == (True, want[i])
        zoom = tuple(col[:300] for col in EDGE_ROWS)
        block = (a, c, z0, thr)
        mixed = tuple(np.concatenate(cols) for cols in zip(zoom, block))
        got = pooled_orbits(4, [block, zoom, block, mixed], 100)
        for k in (0, 2):
            assert got[k][0].all() and got[k][1].tolist() == want.tolist()
        assert got[3][0][300:].all() and got[3][1][300:].tolist() == want.tolist()

    def test_windows_end_once_half_the_pool_failed(self, monkeypatch):
        # Rows that escape at steps 2, 4, 8 and 16, 64, 32, 16 and 8 of them,
        # and 8 that stay bounded. After the admission, half the pool fails at
        # step 1 of the first window (orbit step 2), half of the rest at step 2
        # of the next (orbit step 4), then at step 4 (orbit step 8) and at
        # step 8 (orbit step 16) of the two windows after: exactly half, each
        # time. The block alone and three copies of it pooled take those
        # windows, and every count equals the oracle's.
        rows = window_edge_rows(16)
        kind, step = leave_steps(4, *rows, 16)
        at4 = rows[3] == 4.0
        pick = [np.repeat(np.flatnonzero((kind == "escape") & (step == s) & at4), 128 // s)
                for s in (2, 4, 8, 16)]
        pick.append(np.flatnonzero((kind == "retire") & at4)[:8])
        block = tuple(col[np.concatenate(pick)] for col in rows)
        assert block[0].size == 128
        lengths = []
        window = family._Pool._window

        def spy(pool):
            steps = pool.steps
            closed = window(pool)
            lengths.append(pool.steps - steps)
            return closed

        monkeypatch.setattr(family._Pool, "_window", spy)
        want = reference_orbits_bulk(4, *block[:3], 100, block[3])
        for copies in (1, 3):
            lengths.clear()
            got = pooled_orbits(4, [block] * copies, 100)
            assert lengths[:5] == [1, 2, 4, 8, family._WINDOW]
            for k in range(copies):
                np.testing.assert_array_equal(got[k][0], want[0])
                np.testing.assert_array_equal(got[k][1], want[1])

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

    def test_a_fixed_point_is_retired_at_the_end_of_the_first_window(self, monkeypatch):
        # z0 = 1, a = -1, c = 1: z1 = 1 - 1 + 1 = 1 is a fixed point, so at the
        # end of the first window z equals its state _LAG steps before and the
        # orbit leaves as bounded after the admission and one window
        computed = []
        monkeypatch.setattr(family, "pow_int", lambda z, n: computed.append(z.size) or pow_int(z, n))
        esc, iters = iterate_orbits_bulk(4, -1 + 0j, 1 + 0j, 1 + 0j, 1000, 4.0)
        assert (bool(esc), int(iters)) == (False, 1000)
        assert computed == [1] * (1 + family._WINDOW)

    def test_no_step_after_the_last_orbit_leaves(self, monkeypatch):
        # z0 = 1, a = -1, c = 1.2: z1 = 1.2, |z2| = 2.79 and |z3| = 60.6 > 4, so
        # the orbit escapes at step 3. Step 1 is the admission, and the window
        # that follows ends at its step 2, step 3 of the orbit, where the whole
        # pool failed: the kernel computes exactly 3 steps, long before
        # max_iter.
        computed = []
        monkeypatch.setattr(family, "pow_int", lambda z, n: computed.append(z.size) or pow_int(z, n))
        esc, iters = iterate_orbits_bulk(4, -1 + 0j, 1.2 + 0j, 1 + 0j, 1000, 4.0)
        assert (bool(esc), int(iters)) == (True, 3)
        assert computed == [1] * 3

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

    @pytest.mark.parametrize("max_iter", [1, 128, 2**31 - 1])
    def test_counts_are_int32(self, monkeypatch, max_iter):
        # z0 = 1 (a = -1, c = 1) is a fixed point, retired as bounded at the end
        # of the first window; z0 = 10 escapes at step 1; every count of every
        # budget is int32. Alone in the pool the fixed point never fails, so
        # its window runs past _LAG steps. A kernel that stops retiring it
        # would run 2**31 - 1 steps; the window budget fails it instead.
        lengths = []
        window = family._Pool._window

        def budget(pool):
            assert len(lengths) < 4, f"windows of {lengths} steps and not done"
            steps = pool.steps
            closed = window(pool)
            lengths.append(pool.steps - steps)
            return closed

        monkeypatch.setattr(family._Pool, "_window", budget)
        block = (np.full(2, -1 + 0j), np.full(2, 1 + 0j), np.array([1, 10 + 0j]), np.full(2, 4.0))
        ((k, iters),) = iterate_orbit_blocks(4, [block], max_iter)
        assert k == 0 and iters.dtype == np.int32
        assert iters.tolist() == [-1, 1]
        assert lengths == ([] if max_iter == 1 else [family._WINDOW])

    def test_no_blocks_and_empty_blocks(self):
        assert list(iterate_orbit_blocks(4, [], 10)) == []
        empty = (np.empty(0, complex),) * 3 + (np.empty(0),)
        got = list(iterate_orbit_blocks(4, [empty, empty], 10))
        assert [k for k, _ in got] == [0, 1] and all(it.size == 0 for _, it in got)
        with pytest.raises(ValueError):
            list(iterate_orbit_blocks(4, [empty], 0))


# Real c of z**4 + c (a = 1e-300, which rounds away beside z**4 + c here) whose
# critical orbit falls, in binary64, onto an exact cycle of _map_array of the
# given least period.
CYCLE_C = {1: -0.5, 2: -0.9, 3: -1.23, 4: -1.125, 5: -1.2, 6: -1.2369, 12: -1.1798}


def exact_cycle(period):
    """(a, c, z0) of n = 4: z0 on the exact binary64 cycle of CYCLE_C[period],
    reached from z = c in 4000 steps, with its least period checked."""
    a, c = np.array([1e-300 + 0j]), np.array([CYCLE_C[period] + 0j])
    z = c.copy()
    for _ in range(4000):
        z = family._map_array(z, 4, a, c)
    w = z
    for p in range(1, 25):
        w = family._map_array(w, 4, a, c)
        if w[0] == z[0]:
            break
    assert w[0] == z[0] and p == period and np.isfinite(z).all() and z[0] != 0
    return a, c, z


class TestExactRetirement:
    """At the end of a window longer than _LAG, an orbit that passed every step
    and whose state equals its state _LAG steps before is retired as bounded,
    with no proof, whatever _BATCH says."""

    @staticmethod
    def computed(monkeypatch):
        """The sizes of the pool's map calls, in order."""
        sizes = []
        monkeypatch.setattr(family, "pow_int", lambda z, n: sizes.append(z.size) or pow_int(z, n))
        return sizes

    @pytest.mark.parametrize("window", [family._LAG + 1, family._WINDOW])
    def test_cycles_dividing_the_lag_retire_at_the_first_window(self, monkeypatch, window):
        # periods 1, 2, 3, 4, 6 and 12 repeat exactly over the _LAG steps of
        # the first window, so after the admission and that window the block
        # is done: one orbit alone (fewer than _BATCH) and all six together
        monkeypatch.setattr(family, "_WINDOW", window)
        rows = [exact_cycle(p) for p in (1, 2, 3, 4, 6, 12)]
        blocks = [row + (np.full(1, 4.0),) for row in rows]
        blocks.append(tuple(np.concatenate(col) for col in zip(*blocks)))
        computed = self.computed(monkeypatch)
        for block in blocks:
            computed.clear()
            got = pooled_orbits(4, [block], 1000)
            want = reference_orbits_bulk(4, *block[:3], 1000, block[3])
            np.testing.assert_array_equal(got[0][0], want[0])
            np.testing.assert_array_equal(got[0][1], want[1])
            assert not want[0].any()
            assert computed == [block[0].size] * (1 + window)

    def test_a_period_5_cycle_runs_to_max_iter(self, monkeypatch):
        # 5 does not divide _LAG: the state 12 steps back is never the same,
        # so the orbit takes every step up to the max_iter cut
        a, c, z0 = exact_cycle(5)
        computed = self.computed(monkeypatch)
        esc, iters = iterate_orbits_bulk(4, a, c, z0, 300, 4.0)
        assert (bool(esc[0]), int(iters[0])) == (False, 300)
        want = reference_orbits_bulk(4, a, c, z0, 300, 4.0)
        assert (esc[0], iters[0]) == (want[0][0], want[1][0])
        assert computed == [1] * 300

    def test_a_cycle_that_failed_in_the_window_escapes(self):
        # the 2-cycle of c = -0.9 has states of modulus 0.896 and 0.256; with
        # threshold 0.5 and z0 the larger, step 1 passes and step 2 fails,
        # though at the end of the first window the state repeats exactly and
        # its last step passed: the escape at 2 stands, alone and pooled with
        # the cycles that retire
        a, c, z0 = exact_cycle(2)
        z0 = z0 if abs(z0[0]) > 0.5 else family._map_array(z0, 4, a, c)
        want = reference_orbits_bulk(4, a, c, z0, 1000, 0.5)
        assert (bool(want[0][0]), int(want[1][0])) == (True, 2)
        rows = [exact_cycle(p) + (np.full(1, 4.0),) for p in (1, 3)] + [(a, c, z0, np.full(1, 0.5))]
        block = tuple(np.concatenate(col) for col in zip(*rows))
        got = pooled_orbits(4, [(a, c, z0, np.full(1, 0.5)), block], 1000)
        assert (bool(got[0][0][0]), int(got[0][1][0])) == (True, 2)
        want = reference_orbits_bulk(4, *block[:3], 1000, block[3])
        np.testing.assert_array_equal(got[1][0], want[0])
        np.testing.assert_array_equal(got[1][1], want[1])

    def test_a_subnormal_drift_is_no_repeat(self):
        # R'(1) = 4 (1 - a) = -6 at the repelling fixed point 1 of a = 2.5,
        # c = -2.5; from z0 = 1 + 5e-324j the imaginary part grows sixfold a
        # step, so over the first window the state moves by about 1e-310 in
        # _LAG steps, no exact repeat, and the orbit escapes at step 417
        block = (np.array([2.5 + 0j]), np.array([-2.5 + 0j]), np.array([complex(1, 5e-324)]))
        want = reference_orbits_bulk(4, *block, 1000, 4.0)
        assert (bool(want[0][0]), int(want[1][0])) == (True, 417)
        got = pooled_orbits(4, [block + (np.full(1, 4.0),)], 1000)
        assert (bool(got[0][0][0]), int(got[0][1][0])) == (True, 417)


# The four 200x200, max_iter 1000 zooms of the benchmark's render-deep workload
# at seed 1 (bench/workloads.py), around the centers of n = 4, c = 6i.
BENCH_ZOOMS = (
    (-13.223042938493737, -13.022648115590442, 1.9087314547975454, 2.1091262777008386),
    (-5.896204658185391, -5.695867948785062, -1.1896602801705694, -0.9893235707702402),
    (-10.113563721999109, -9.913319893263923, -4.190728793033498, -3.990484964298311),
    (-7.168343858558379, -6.968045696798121, 3.072399970366553, 3.2726981321268127),
)


def spy_on_proofs(monkeypatch):
    """(block key, index in the block) of every orbit the pool retires on a proof."""
    retired = []
    prove = family._Pool._prove

    def spy(pool, z, mod, back, gone):
        before = gone.copy()
        prove(pool, z, mod, back, gone)
        for i in np.flatnonzero(gone & ~before).tolist():
            retired.append((pool.open[int(pool.slot[i])][0], int(pool.idx[i])))

    monkeypatch.setattr(family._Pool, "_prove", spy)
    return retired


def band_blocks(n, slc, vp):
    """The kernel blocks (a, c, z0, threshold) render_slice makes of a slice."""
    from mcmullen.render import Dynamical, _band_points, _slice_params

    blocks = []
    for r0 in range(0, vp.height, 16):
        pts = _band_points(vp, r0, min(r0 + 16, vp.height))
        a, c = _slice_params(slc, pts)
        if isinstance(slc, Dynamical):
            blocks.append((a, c, pts, escape_radius_bulk(a, c)))
        else:
            blocks += critical_blocks(a, c)
    return blocks


# An attracting fixed point at exactly 1: with a = 1.0625 and c = -a, R(1) =
# 1 + a - a = 1 in binary64, and R'(1) = n (1 - a) = -0.25 at n = 4.
FIXED_ONE = dict(n=4, a=1.0625 + 0j, c=-1.0625 + 0j)


def prove(n, a, c, thr, z, rho0):
    """family._proved_bounded on arrays broadcast from scalars or arrays."""
    a, c, thr, z, rho0 = np.broadcast_arrays(np.asarray(a, complex), np.asarray(c, complex),
                                             np.asarray(thr, float), np.asarray(z, complex),
                                             np.asarray(rho0, float))
    return family._proved_bounded(n, *(np.atleast_1d(x).copy() for x in (a, c, thr, z, rho0)))


def creepers(eps):
    """Rows (a, c, z0, thr), n = 3, of real orbits that creep through the
    bottleneck of z**3 + c just past its parabolic parameter 2/(3 sqrt(3)): from
    z0 = 0.5 with a = 1e-30, each moves by about eps a step near the ghost of the
    fixed point 1/sqrt(3), so the trigger nominates it (12 eps is below _TOL),
    and escapes past 0.75 after about 2.4/sqrt(eps) steps."""
    c = 2 / (3 * math.sqrt(3)) + np.asarray(eps, dtype=float)
    one = np.ones(c.size)
    return 1e-30 * one + 0j, c + 0j, 0.5 * one + 0j, 0.75 * one


class TestProvedRetirement:
    """The pool retires an orbit early on a proof that a disc about its state
    maps into itself under p floating-point steps, which changes no count."""

    @pytest.mark.parametrize("view", BENCH_ZOOMS + ((-2.0, 2.0, -2.0, 2.0),))
    def test_retired_orbits_are_bounded_in_the_oracle(self, monkeypatch, view):
        # the four bench zooms and the README's dynamical plane at max_iter
        # 1000: every count equals the plain oracle's, every orbit the proof
        # retires is bounded to max_iter there, and a sample of them also in
        # the scalar iterate_orbit
        from mcmullen.render import Dynamical, FixedC

        dynamical = view[0] == -2.0
        slc = Dynamical(MapParams(4, -13.122875503987459 + 2.008554506696609j, 6j)) \
            if dynamical else FixedC(6j)
        vp = Viewport(*view, 200, 200)
        blocks = band_blocks(4, slc, vp)
        retired = spy_on_proofs(monkeypatch)
        got = pooled_orbits(4, blocks, 1000)
        for k, (a, c, z0, thr) in enumerate(blocks):
            want = reference_orbits_bulk(4, a, c, z0, 1000, thr)
            np.testing.assert_array_equal(got[k][0], want[0])
            np.testing.assert_array_equal(got[k][1], want[1])
        # the dynamical plane's bounded orbits fall into the superattracting
        # fixed point and meet it exactly, so they retire as exact repeats
        assert len(retired) > 5000 or dynamical
        for k, i in retired:
            assert not got[k][0][i] and got[k][1][i] == 1000
        for k, i in retired[:: max(1, len(retired) // 25)]:
            a, c, z0, thr = (col[i] for col in blocks[k])
            res = iterate_orbit(MapParams(4, complex(a), complex(c)), complex(z0), 1000, float(thr))
            assert (res.escaped, res.iterations) == (False, 1000)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17])
    def test_rounding_bound_holds_against_mpmath(self, n):
        # |_map_array(w) - R(w)| <= _map_error with the exact |w|**n and
        # |a|/|w|**n, R(w) in 200-bit arithmetic: on random points, where
        # w**(2n) is near a (z**n and a/z**n nearly equal) or near -a (their
        # sum cancels), where w**n lies near the real or the imaginary axis
        # (both branches of the complex division), and where a or |w|**n are
        # tiny
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        rng = np.random.default_rng(n)
        m = 400
        w = rng.uniform(0.3, 3, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        a = rng.uniform(0.1, 40, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        c = rng.uniform(-8, 8, m) + 1j * rng.uniform(-8, 8, m)
        near = 1 + rng.uniform(-1e-9, 1e-9, m) + 1j * rng.uniform(-1e-9, 1e-9, m)
        w2n = w ** (2 * n)
        sets = [
            (w, a, c),
            (w, w2n * near, c),
            (w, -w2n * near, c),
            (w, w2n * near, 0 * c),
            (w, -w2n * near, 0 * c),
            (np.exp(1j * (np.pi / (2 * n)) * rng.integers(0, 4 * n, m)) * rng.uniform(0.5, 2, m)
             * np.exp(1j * rng.uniform(-1e-9, 1e-9, m)), a, c),
            (np.exp(1j * (np.pi / (4 * n)) * (2 * rng.integers(0, 4 * n, m) + 1)) * rng.uniform(0.5, 2, m),
             a, c),
            (w, a * 1e-300, c),
            (w * 2.0 ** (-400 / n), a * 2.0 ** -400, c * 2.0 ** -400),
            (w * 2.0 ** (-480 / n), a, c),
        ]
        checked = 0
        for w_, a_, c_ in sets:
            with np.errstate(all="ignore"):
                got = family._map_array(w_, n, a_, c_)
            for wi, ai, ci, gi in zip(w_.tolist(), a_.tolist(), c_.tolist(), got.tolist()):
                W, A, C = mpmath.mpc(wi), mpmath.mpc(ai), mpmath.mpc(ci)
                big = abs(W) ** n
                if big < family._TINY:
                    continue
                exact = W**n + A / W**n + C
                bound = family._map_error(n, float(big * (1 + 2.0**-50)),
                                          float(abs(A) / big * (1 + 2.0**-50)), abs(ci), abs(ai))
                assert abs(mpmath.mpc(gi) - exact) <= bound, (n, wi, ai, ci)
                checked += 1
        assert checked >= 9 * m

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_rounding_bound_is_not_loose_by_orders(self, scale):
        # the bound is a small multiple of what rounding does: at least one
        # point of many comes within a factor 64 of it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        rng = np.random.default_rng(7)
        n, m = 4, 2000
        w = (rng.uniform(0.5, 2, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))) * scale ** (1 / n)
        a = rng.uniform(0.5, 2, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m)) * scale
        c = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * scale
        got = family._map_array(w, n, a, c)
        worst = 0.0
        for wi, ai, ci, gi in zip(w.tolist(), a.tolist(), c.tolist(), got.tolist()):
            W, A = mpmath.mpc(wi), mpmath.mpc(ai)
            big = abs(W) ** n
            err = abs(mpmath.mpc(gi) - (W**n + A / W**n + ci))
            worst = max(worst, float(err) / family._map_error(n, float(big), float(abs(A) / big),
                                                              abs(ci), abs(ai)))
        assert 1 / 64 < worst <= 1

    def test_threshold_inset(self):
        # at the fixed point 1 with a disc of radius 1e-9, the disc reaches
        # modulus 1 + 1e-9: a threshold within 8 ulps above that is refused, as
        # np.abs may round a point of the disc past it, and one 16 ulps above
        # is accepted
        edge = 1 + 1e-9
        u = 2.0**-53
        proved = prove(**FIXED_ONE, thr=[edge * (1 + 4 * u), edge * (1 + 16 * u)],
                       z=1 + 0j, rho0=1e-9)
        assert proved.tolist() == [False, True]
        for thr in (math.nextafter(1.0, 0.0), 1.0, edge, edge * (1 - 4 * u)):
            assert not prove(**FIXED_ONE, thr=thr, z=1 + 0j, rho0=1e-9)[0]

    def test_proved_discs_map_into_themselves(self):
        # R'(1) = -0.99 (a = 1 + 0.99/4, c = -a): the orbit of 1 + d overshoots
        # the fixed point, so a disc about 1 + d maps into itself only when it
        # is about 200 times wider than d. Whatever rho0 is offered, a disc
        # the proof accepts must contain the images of its boundary points
        # under p steps of _map_array, p = 1 here.
        n, a = 4, 1 + 0.99 / 4 + 0j
        d = 1e-7
        rho0 = d * np.geomspace(0.01, 5000, 120)
        proved = prove(n, a, -a, 4.0, 1 + d + 0j, rho0)
        assert proved.any() and not proved.all()
        ring = np.exp(2j * np.pi * np.arange(64) / 64)
        for rho in rho0[proved]:
            edge = 1 + d + rho * ring
            images = family._map_array(edge, n, a, -a)
            assert (np.abs(images - (1 + d)) <= rho).all(), rho / d
        assert rho0[proved].min() > 100 * d

    @pytest.mark.parametrize("period", [2, 3, 4, 6, 12])
    def test_every_disc_of_the_chain_must_fit(self, monkeypatch, period):
        # an exact attracting cycle of z**4 + c, started at each of its states
        # in turn, with a threshold between the largest modulus on the cycle
        # and the others: the disc about the largest state, D_j for some j < p,
        # crosses the threshold, so the orbit is not proved from any start,
        # though it is with the threshold 4 (chains of 6 and 12 steps, alone)
        monkeypatch.setattr(family, "_LATE_MIN", 1)
        a, c, z = exact_cycle(period)
        states = [z]
        for _ in range(period - 1):
            states.append(family._map_array(states[-1], 4, a, c))
        states = np.concatenate(states)
        mods = np.sort(np.abs(states))
        assert mods[-2] < mods[-1]
        thr = (mods[-2] + mods[-1]) / 2
        assert not prove(4, a, c, thr, states, 1e-9).any()
        assert prove(4, a, c, 4.0, states, 1e-9).all()

    def test_fixed_point_is_proved_and_a_repelling_one_is_not_proved(self):
        assert prove(**FIXED_ONE, thr=4.0, z=1 + 0j, rho0=1e-9).tolist() == [True]
        # R'(1) = 4 (1 - a) = -2 with a = 1.5: the fixed point 1 repels
        assert prove(4, 1.5 + 0j, -1.5 + 0j, 4.0, 1 + 0j, 1e-9).tolist() == [False]

    def test_creeping_orbits_are_nominated_and_escape(self, monkeypatch):
        # creepers through a parabolic bottleneck pass the trigger over many
        # windows (every window proves, from a single nominee on) but escape
        # in the end: the proof must refuse each of them, so the pooled counts
        # equal the scalar iterate_orbit's
        monkeypatch.setattr(family, "_BATCH", 1)
        eps = np.array([3e-8, 5e-8, 8e-8])
        block = creepers(eps)
        nominated = []
        proved_bounded = family._proved_bounded

        def spy(n, a, c, thr, z, rho0):
            nominated.append(z.size)
            return proved_bounded(n, a, c, thr, z, rho0)

        monkeypatch.setattr(family, "_proved_bounded", spy)
        esc, iters = iterate_orbits_bulk(3, *block[:3], 30000, block[3])
        assert len(nominated) > 10
        for i, e in enumerate(eps.tolist()):
            a, c, z0, thr = (col[i] for col in block)
            res = iterate_orbit(MapParams(3, complex(a), complex(c)), complex(z0), 30000, float(thr))
            assert res.escaped and (bool(esc[i]), int(iters[i])) == (True, res.iterations)
            assert 2000 < res.iterations < 30000

    @pytest.mark.parametrize("window", [13, family._WINDOW])
    def test_every_window_proving_matches_the_oracle(self, monkeypatch, window):
        # with a proof at the end of every window long enough for the trigger,
        # from a single nominee on, the edge rows (poles, z == 0 mid-window,
        # exact repeats and escapes at every step) and a zoom's orbits
        # still get the oracle's counts, block by block and pooled
        monkeypatch.setattr(family, "_BATCH", 1)
        monkeypatch.setattr(family, "_LATE_MIN", 1)
        monkeypatch.setattr(family, "_WINDOW", window)
        retired = spy_on_proofs(monkeypatch)
        rows = window_edge_rows(2 * window + 1)
        rows = [np.concatenate([x, y]) for x, y in zip(rows, EDGE_ROWS)]
        order = np.random.default_rng(window).permutation(rows[0].size)
        blocks = [tuple(col[ix] for col in rows) for ix in np.array_split(order, 7)]
        for max_iter in (window, 2 * window + 1, 300):
            got = pooled_orbits(4, blocks, max_iter)
            for k, (a, c, z0, thr) in enumerate(blocks):
                want = reference_orbits_bulk(4, a, c, z0, max_iter, thr)
                np.testing.assert_array_equal(got[k][0], want[0])
                np.testing.assert_array_equal(got[k][1], want[1])
        assert len(retired) > 100

    @pytest.mark.parametrize("n, c, spread", [(3, 4 - 3j, 0.01), (6, -7 + 2j, 0.003),
                                              (8, 6 + 0j, 0.003)])
    def test_families_near_centers_match_the_oracle(self, monkeypatch, n, c, spread):
        # parameters scattered near a fixed-critical center, whose critical
        # orbits are mostly attracted to cycles; half the orbits start a
        # little off the critical value, and some thresholds lie below the
        # escape radius. With a proof at every window, every count equals the
        # oracle's
        monkeypatch.setattr(family, "_BATCH", 1)
        monkeypatch.setattr(family, "_LATE_MIN", 1)
        retired = spy_on_proofs(monkeypatch)
        rng = np.random.default_rng(n)
        centre = fixed_critical_params(n, c)[0].a_j
        m = 1200
        a = centre + spread * abs(centre) * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
        cs = np.full(m, c)
        z0 = cs + 2 * np_principal_sqrt(a) * rng.choice([1, -1], m)
        z0[::2] += 1e-3 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))[::2]
        thr = escape_radius_bulk(a, cs) * np.where(rng.random(m) < 0.3, rng.uniform(0.3, 1, m), 1.0)
        blocks = [tuple(x[i:i + 300] for x in (a, cs, z0, thr)) for i in range(0, m, 300)]
        got = pooled_orbits(n, blocks, 1000)
        for k, (a_, c_, z_, t_) in enumerate(blocks):
            want = reference_orbits_bulk(n, a_, c_, z_, 1000, t_)
            np.testing.assert_array_equal(got[k][0], want[0])
            np.testing.assert_array_equal(got[k][1], want[1])
        assert len(retired) > 100
