"""Root finding and the fixed-critical-point solvers for both slice families."""
import cmath
import json
import math
import re

import numpy as np
import pytest

from mcmullen import solvers
from mcmullen.errors import InconsistencyError, RootFindingError
from mcmullen.family import MapParams, eval_map, pow_int
from mcmullen.regions import sector_index
from mcmullen.solvers import (
    _centers,
    diagonal_fixed_params,
    fixed_critical_params,
    poly_roots,
)


def bisect_real_root(f, lo, hi, steps=200):
    """Sign-change bisection; independent oracle for real roots."""
    assert f(lo) * f(hi) <= 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots([1, 0, 1])  # z**2 + 1
        assert roots == pytest.approx([-1j, 1j], abs=1e-12)

    def test_cubic_factored(self):
        roots = poly_roots([1, -6, 11, -6])  # (z-1)(z-2)(z-3)
        assert roots == pytest.approx([1 + 0j, 2 + 0j, 3 + 0j], abs=1e-10)

    def test_roots_of_unity(self):
        roots = poly_roots([1, 0, 0, -1])  # z**3 - 1
        want = sorted(
            (cmath.exp(2j * math.pi * k / 3) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        assert roots == pytest.approx(want, abs=1e-12)

    def test_ordering_and_determinism(self):
        roots = poly_roots([1, 0, 0, 0, -1])  # z**4 - 1
        assert roots == pytest.approx([-1 + 0j, -1j, 1j, 1 + 0j], abs=1e-12)
        keys = [(r.real, r.imag) for r in roots]
        assert keys == sorted(keys)
        assert poly_roots([1, 0, 0, 0, -1]) == roots  # bit-for-bit repeatable

    def test_quintic_real_root_vs_bisection(self):
        root = bisect_real_root(lambda w: 2 * w**5 - w + 6, -2.0, -1.0)
        assert root == pytest.approx(-1.2953997832657647, abs=1e-12)  # frozen oracle
        roots = poly_roots([2, 0, 0, 0, -1, 6])
        real = [r for r in roots if abs(r.imag) < 1e-9]
        assert len(real) == 1
        assert real[0].real == pytest.approx(root, abs=1e-10)

    def test_random_inputs_vs_numpy(self):
        # large random roots push |p| evaluation noise above the default bound,
        # so stress tests size tol to the conditioning (the parameter's purpose)
        rng = np.random.default_rng(99)
        for _ in range(30):
            deg = int(rng.integers(2, 9))
            coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)]
            if abs(coeffs[0]) < 0.1:
                coeffs[0] = 1.0 + 0j
            mine = np.array(poly_roots(coeffs, tol=1e-7))
            ref = np.array(sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag)))
            np.testing.assert_allclose(mine, ref, atol=1e-6)

    def test_reconstruction(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            deg = int(rng.integers(2, 13))
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)]
            coeffs[0] = coeffs[0] / max(abs(coeffs[0]), 1e-2) * 1.0  # |lead| = 1
            roots = poly_roots(coeffs, tol=1e-8)
            rebuilt = np.array([coeffs[0]])
            for r in roots:
                rebuilt = np.convolve(rebuilt, [1.0, -r])
            scale = max(abs(x) for x in coeffs)
            np.testing.assert_allclose(rebuilt, coeffs, atol=1e-8 * scale)

    def test_multiple_root(self):
        roots = poly_roots([1, -2, 1], tol=1e-6)  # (z-1)**2
        assert roots == pytest.approx([1 + 0j, 1 + 0j], abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_roots([5])  # degree 0
        with pytest.raises(ValueError):
            poly_roots([])
        with pytest.raises(ValueError):
            poly_roots([0, 1, 2])  # zero leading coefficient
        with pytest.raises(ValueError):
            poly_roots([1, 1], tol=0.0)

    def test_zero_constant_term(self):
        # the seed circle's radius |c_0/c_d|**(1/d) is 0 here; radius 1 is used instead
        assert poly_roots([1, -1, 0]) == pytest.approx([0j, 1 + 0j], abs=1e-12)
        assert poly_roots([1, 0, -4, 0]) == pytest.approx([-2 + 0j, 0j, 2 + 0j], abs=1e-12)
        assert poly_roots([2, 3, 0, 0]) == pytest.approx([-1.5, 0j, 0j], abs=1e-7)

    def test_memory_budget(self):
        # each sweep forms d x d complex matrices: refused before any is allocated
        with pytest.raises(ValueError, match="memory budget"):
            poly_roots([1] + [0] * 9998 + [-1])

    def test_nonconvergence_error_carries_residuals(self):
        # an out-of-reach bound produces the error path with residual payload
        # (roots +-sqrt(2) are irrational, so the residual floor is ~1e-16, not 0)
        with pytest.raises(RootFindingError, match="residual"):
            poly_roots([1, 0, -2], tol=1e-300)

    @pytest.mark.parametrize("coeffs, tol, failing, listed", [
        # the diagonal slice's trinomial at n = 3, t = 1e-100: one of five roots
        # misses its bound by 12 orders, the four others are within theirs
        ([1e-100, 0, 0, 2, 0, -1], 1e-12, 1, 1),
        # every root misses a bound far below rounding; three are listed
        ([1, 0, 0, 0, -2], 1e-300, 4, 3),
    ])
    def test_error_lists_only_failing_roots(self, coeffs, tol, failing, listed):
        with pytest.raises(RootFindingError) as info:
            poly_roots(coeffs, tol=tol)
        message = str(info.value)
        assert f"{failing} of {len(coeffs) - 1} roots fail" in message
        residuals, bounds = (json.loads(x) for x in re.findall(r"\[[^\]]*\]", message))
        assert len(residuals) == len(bounds) == listed
        ratios = [r / b for r, b in zip(residuals, bounds)]
        assert all(q > 1 for q in ratios)
        assert ratios == sorted(ratios, reverse=True)  # worst first


class TestFixedCriticalParams:
    def test_frozen_n5_c6(self):
        specs = fixed_critical_params(5, 6 + 0j)
        assert len(specs) == 5
        assert [s.k for s in specs] == [1, 9, 3, 7, 5]
        real = [s for s in specs if abs(s.w_j.imag) < 1e-30][0]
        assert real.w_j.real == pytest.approx(-1.2953997832657647, abs=1e-12)
        assert real.a_j.real == pytest.approx(13.305714499418555, rel=1e-12)
        # stale approximations from hand calculation stay within a loose net
        assert real.w_j.real == pytest.approx(-1.29499, abs=1e-3)
        assert real.a_j.real == pytest.approx(13.264, abs=0.1)

    def test_frozen_n4_c6i(self):
        specs = fixed_critical_params(4, 6j)
        assert [(s.j, s.k) for s in specs] == [(0, 5), (1, 0), (2, 3), (3, 2)]
        frozen_a = [
            -13.122875503987459 + 2.008554506696609j,
            -10.013215140013603 - 4.091076949324479j,
            -7.068231743314006 + 3.17251275820853j,
            -5.795677612684928 - 1.0899903155806516j,
        ]
        for s, a in zip(specs, frozen_a):
            assert s.a_j == pytest.approx(a, rel=1e-12)
            assert 0.5 < abs(s.w_j) < 2.0

    def test_defining_equations(self):
        for c in (6 + 0j, 6j, -2 + 5j, 0.5 + 0j):
            for n in (3, 4, 5, 8):
                for s in fixed_critical_params(n, c):
                    # 2w**n - w + c = 0
                    assert abs(2 * pow_int(s.w_j, n) - s.w_j + c) < 1e-9
                    # a = w**(2n) exactly by construction
                    assert s.a_j == pow_int(s.w_j, 2 * n)
                    # w is fixed by the member it defines
                    assert abs(eval_map(MapParams(n, s.a_j, c), s.w_j) - s.w_j) < 1e-8
                    # sector index is consistent
                    assert sector_index(n, s.w_j, s.a_j) == s.k

    def test_count_law_large_c(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            c = rng.uniform(1, 20) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            for n in (3, 4, 5, 8):
                assert len(fixed_critical_params(n, c)) == n

    def test_small_c_returns_all_distinct(self):
        # |c| < 1: the distinct-parameter count stays n (measured; the a-values of
        # the conjugate root pair collide only at c = 0 exactly)
        specs = fixed_critical_params(3, 0.5 + 0j)
        assert len(specs) == 3
        frozen = [
            -0.02090562947639192 - 0.008503635884461184j,
            -0.02090562947639192 + 0.008503635884461184j,
            0.47931125895278376 + 0j,
        ]
        got = sorted((s.a_j for s in specs), key=lambda z: (z.real, z.imag))
        assert got == pytest.approx(frozen, rel=1e-10)

    def test_dedupe_tol_knob(self, monkeypatch):
        # the solvers dedupe at the fixed _DEDUPE_TOL; the pipeline they share still
        # merges a-values at a loose tolerance
        coeffs = [2.0 + 0j, 0j, -1.0 + 0j, 0.5 + 0j]  # 2*w**3 - w + 0.5 (n = 3, c = 0.5)
        assert len(_centers(3, coeffs, "c = 0.5")) == 3
        monkeypatch.setattr(solvers, "_DEDUPE_TOL", 1.0)
        assert len(_centers(3, coeffs, "c = 0.5")) < 3

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_critical_params(2, 6 + 0j)
        with pytest.raises(ValueError):
            fixed_critical_params(3, 0j)


class TestDiagonalFixedParams:
    def test_frozen_n3_t1(self):
        pairs = diagonal_fixed_params(3, 1 + 0j)
        assert len(pairs) == 5
        reals = sorted(w.real for w, _ in pairs if abs(w.imag) < 1e-12)
        assert reals == pytest.approx(
            [-1.0, -0.8483748957319532, 0.66099253189012], abs=1e-12
        )
        # w = -1 solves t*w**(2n-1) + 2*w**(n-1) - 1 = 0 exactly at (n=3, t=1)
        assert any(abs(w - (-1.0)) < 1e-12 for w, _ in pairs)

    def test_real_roots_vs_bisection(self):
        f = lambda w: w**5 + 2 * w**2 - 1  # the (n=3, t=1) equation
        assert bisect_real_root(f, 0.0, 1.0) == pytest.approx(0.66099253189012, abs=1e-12)
        assert bisect_real_root(f, -0.9, -0.5) == pytest.approx(
            -0.8483748957319532, abs=1e-12
        )

    def test_fixed_point_residuals(self):
        for n, t in ((3, 1 + 0j), (4, 2 + 0j), (6, 1 + 0j), (5, 0.5 + 0.5j)):
            pairs = diagonal_fixed_params(n, t)
            assert pairs, (n, t)
            for w, a in pairs:
                assert a == pow_int(w, 2 * n)
                p = MapParams(n, a, t * a)
                assert abs(eval_map(p, w) - w) <= 1e-8, (n, t, w)

    def test_degree_and_validation(self):
        # degree 2n-1 before deduplication; all five distinct here
        assert len(diagonal_fixed_params(6, 0.7 + 0j)) <= 11
        with pytest.raises(ValueError):
            diagonal_fixed_params(2, 1 + 0j)
        with pytest.raises(ValueError):
            diagonal_fixed_params(3, 0j)


def assert_conjugate_pairs_adjacent(a_values):
    """Non-real a-values of a real slice come in conjugate pairs: each pair must be
    adjacent in the output, with Im a < 0 first."""
    i = 0
    while i < len(a_values):
        a = a_values[i]
        if abs(a.imag) <= 1e-9 * max(1.0, abs(a)):
            i += 1
            continue
        assert a.imag < 0, (i, a)
        assert a_values[i + 1] == pytest.approx(a.conjugate(), rel=1e-9), (i, a)
        i += 2


class TestCentersOrder:
    @pytest.mark.parametrize("n", [8, 48, 190])
    def test_conjugate_pairs_adjacent_real_c(self, n):
        assert_conjugate_pairs_adjacent([s.a_j for s in fixed_critical_params(n, 6 + 0j)])

    @pytest.mark.parametrize("n", [8, 48, 190])
    def test_conjugate_pairs_adjacent_real_t(self, n):
        assert_conjugate_pairs_adjacent([a for _, a in diagonal_fixed_params(n, 2 + 0j)])

    def test_frozen_n8_c6_order(self):
        assert [s.k for s in fixed_critical_params(8, 6 + 0j)] == [1, 15, 3, 13, 5, 11, 7, 9]


class TestLargeN:
    """Slice polynomials far above degree 256, at the default residual bound."""

    @pytest.mark.parametrize("c", [6 + 0j, 6j])
    def test_fixed_c_counts(self, c):
        for n in (300, 512, 1000):
            specs = fixed_critical_params(n, c)
            assert len(specs) == n
            assert sorted(s.k for s in specs) == sorted({s.k for s in specs})

    def test_diagonal_counts(self):
        assert len(diagonal_fixed_params(300, 2 + 0j)) == 599
        assert len(diagonal_fixed_params(600, 2 + 0j)) == 1199
