"""Root finding and the fixed-critical-point solvers for both slice families."""
import cmath
import json
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _edge_values import complex_value

from mcmullen import solvers
from mcmullen.errors import MEMORY_BUDGET_BYTES, InconsistencyError, RootFindingError
from mcmullen.family import MapParams, eval_map, pow_int
from mcmullen.regions import sector_index
from mcmullen.solvers import (
    _centers,
    _poly_roots,
    diagonal_fixed_params,
    fixed_critical_params,
)


def poly_roots(coeffs):
    """_poly_roots' roots, sorted by (Re, Im), as a list of Python complex."""
    return _poly_roots(coeffs)[0].tolist()


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

    def test_horner_is_polyval(self):
        # the in-place Horner runs np.polyval's operations less the additions of
        # zero coefficients, so it equals np.polyval bit for bit: on both slice
        # polynomials and a dense one, at complex points (some on the axes) and,
        # as in the residual bound, on moduli
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(size=64) + 1j * rng.normal(size=64),
                            1.01 * np.exp(2j * np.pi * np.arange(64) / 64),
                            rng.normal(size=8) + 0j, 1j * rng.normal(size=8), [0j]])
        for n in (3, 8, 48):
            for coeffs in ([2.0] + [0.0] * (n - 2) + [-1.0, 6j],
                           [2 + 0.5j] + [0.0] * (n - 1) + [2.0] + [0.0] * (n - 2) + [-1.0],
                           rng.normal(size=n) + 1j * rng.normal(size=n)):
                coeffs = np.array(coeffs, dtype=complex)
                for cf, x in ((coeffs, z), (coeffs / coeffs[0], z), (np.abs(coeffs), np.abs(z))):
                    np.testing.assert_array_equal(solvers._horner(cf, x).view(np.uint64),
                                                  np.polyval(cf, x).view(np.uint64))

    def test_quintic_real_root_vs_bisection(self):
        root = bisect_real_root(lambda w: 2 * w**5 - w + 6, -2.0, -1.0)
        assert root == pytest.approx(-1.2953997832657647, abs=1e-12)  # frozen oracle
        roots = poly_roots([2, 0, 0, 0, -1, 6])
        real = [r for r in roots if abs(r.imag) < 1e-9]
        assert len(real) == 1
        assert real[0].real == pytest.approx(root, abs=1e-10)

    def test_random_inputs_vs_numpy(self, monkeypatch):
        # large random roots push |p| evaluation noise above the shipped bound,
        # so stress tests size the tolerance to the conditioning
        monkeypatch.setattr(solvers, "_ROOT_TOL", 1e-7)
        rng = np.random.default_rng(99)
        for _ in range(30):
            deg = int(rng.integers(2, 9))
            coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)]
            if abs(coeffs[0]) < 0.1:
                coeffs[0] = 1.0 + 0j
            mine = np.array(poly_roots(coeffs))
            ref = np.array(sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag)))
            np.testing.assert_allclose(mine, ref, atol=1e-6)

    def test_reconstruction(self, monkeypatch):
        monkeypatch.setattr(solvers, "_ROOT_TOL", 1e-8)
        rng = np.random.default_rng(101)
        for _ in range(20):
            deg = int(rng.integers(2, 13))
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)]
            coeffs[0] = coeffs[0] / max(abs(coeffs[0]), 1e-2) * 1.0  # |lead| = 1
            roots = poly_roots(coeffs)
            rebuilt = np.array([coeffs[0]])
            for r in roots:
                rebuilt = np.convolve(rebuilt, [1.0, -r])
            scale = max(abs(x) for x in coeffs)
            np.testing.assert_allclose(rebuilt, coeffs, atol=1e-8 * scale)

    def test_multiple_root(self, monkeypatch):
        monkeypatch.setattr(solvers, "_ROOT_TOL", 1e-6)
        roots = poly_roots([1, -2, 1])  # (z-1)**2
        assert roots == pytest.approx([1 + 0j, 1 + 0j], abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_roots([5])  # degree 0
        with pytest.raises(ValueError):
            poly_roots([])
        with pytest.raises(ValueError):
            poly_roots([0, 1, 2])  # zero leading coefficient

    def test_zero_constant_term(self):
        # the seed circle's radius |c_0/c_d|**(1/d) is 0 here; radius 1 is used instead
        assert poly_roots([1, -1, 0]) == pytest.approx([0j, 1 + 0j], abs=1e-12)
        assert poly_roots([1, 0, -4, 0]) == pytest.approx([-2 + 0j, 0j, 2 + 0j], abs=1e-12)
        assert poly_roots([2, 3, 0, 0]) == pytest.approx([-1.5, 0j, 0j], abs=1e-7)

    def test_memory_budget(self):
        # the sweep keeps a d x d complex matrix, charged _BYTES_PER_D2 a d**2 entry:
        # the budget admits degrees up to 7723 and refuses the next before allocating
        assert solvers._BYTES_PER_D2 * 7723**2 <= MEMORY_BUDGET_BYTES
        with pytest.raises(ValueError, match="memory budget"):
            poly_roots([1] + [0] * 7723 + [-1])

    @pytest.mark.parametrize("n, param, d", [
        (600, {"c": 6j}, 600),  # fixed c = 6i
        (300, {"t": 2 + 0j}, 599),  # diagonal t = 2
    ])
    def test_centers_peak_within_the_charge(self, n, param, d):
        tracemalloc.start()
        try:
            _centers(n, **param)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 16 * d * d < peak <= solvers._BYTES_PER_D2 * d * d

    def test_poly_roots_has_no_acceptance_check(self, monkeypatch):
        # the roots come back whatever they read; only _centers' rule refuses them
        monkeypatch.setattr(solvers, "_ROOT_TOL", 1e-300)
        monkeypatch.setattr(solvers, "_MAX_SWEEPS", 1)
        roots, residuals, terms = _poly_roots(fixed_c_poly(4, 6j))
        assert roots.size == 4 and np.all(residuals > solvers._ROOT_TOL * terms)

    def test_nonconvergence_error_carries_residuals(self, monkeypatch):
        # an out-of-reach bound produces the error path with residual payload
        # (the roots are irrational, so the residual floor is ~1e-16, not 0)
        monkeypatch.setattr(solvers, "_ROOT_TOL", 1e-300)
        with pytest.raises(RootFindingError, match=r"^c = 6j: no convergence .* residual"):
            _centers(4, c=6j)

    @pytest.mark.parametrize("n, param, tol, failing, listed", [
        # the diagonal slice at n = 3, t = 1e-100, at a bound between its worst
        # root's residual ratio (2.2e-16) and the next one's (1.2e-16)
        (3, {"t": 1e-100 + 0j}, 1.5e-16, 1, 1),
        # every root misses a bound far below rounding; three are listed
        (4, {"c": 6j}, 1e-300, 4, 3),
    ])
    def test_error_lists_only_failing_roots(self, monkeypatch, n, param, tol, failing, listed):
        monkeypatch.setattr(solvers, "_ROOT_TOL", tol)
        with pytest.raises(RootFindingError) as info:
            _centers(n, **param)
        message = str(info.value)
        (name, value), = param.items()
        degree = n if name == "c" else 2 * n - 1
        assert message.startswith(f"{name} = {value!r}: no convergence within 200 iterations")
        assert f"{failing} of {degree} roots fail" in message
        residuals, bounds = (json.loads(x) for x in re.findall(r"\[[^\]]*\]", message))
        assert len(residuals) == len(bounds) == listed
        ratios = [r / b for r, b in zip(residuals, bounds)]
        assert all(q > 1 for q in ratios)
        assert ratios == sorted(ratios, reverse=True)  # worst first

    @pytest.mark.parametrize("coeffs", [
        [2.0, 0, 0, -1.0, 6j],  # fixed c = 6i, n = 4
        [2.0] + [0] * 46 + [-1.0, 6.0],  # fixed c = 6, n = 48
        [2.0] + [0] * 94 + [-1.0, 1e8],  # fixed c = 1e8, n = 96
        [2.0] + [0] * 4 + [2.0] + [0] * 4 + [-1.0],  # diagonal t = 2, n = 6
        [1e-6] + [0] * 2 + [2.0, 0, -1.0],  # diagonal t = 1e-6, n = 3
        [1, 0, -4, 0],  # a zero root
    ])
    def test_residuals_and_terms_are_the_horner_pair(self, coeffs):
        # the arrays _centers checks its residual rule on are, bit for bit, the
        # two Horner passes it once ran itself on the sorted roots
        roots, residuals, terms = _poly_roots(coeffs)
        c = np.array(coeffs, dtype=complex)
        assert roots.tolist() == sorted(roots.tolist(), key=lambda r: (r.real, r.imag))
        for got, want in ((residuals, np.abs(solvers._horner(c, roots))),
                          (terms, solvers._horner(np.abs(c), np.abs(roots)))):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def sweep_oracle(monic, z):
    """One Aberth sweep's p(z), p'(z) and row sums sum_{j != i} 1/(z_i - z_j) as
    the solver first formed them: two _horner calls, then a new d x d reciprocal
    matrix whose exact zeros are masked to 1e-300."""
    deriv = monic[:-1] * np.arange(monic.size - 1, 0, -1)
    pv, dv = solvers._horner(monic, z), solvers._horner(deriv, z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    diff[diff == 0] = 1e-300
    return pv, dv, np.divide(1.0, diff, out=diff).sum(axis=1) - 1.0


def sweep(monic, z):
    """The same three arrays from the one-pass Horner and the reused matrix."""
    pv, dv = solvers._sweep_values(solvers._horner_steps(monic), z)
    diff = np.full((z.size, z.size), np.nan + 0j)  # stale contents must not leak in
    return pv, dv, solvers._sweep_sums(z, diff)


def assert_sweep_matches_oracle(monic, z):
    for got, want in zip(sweep(monic, z), sweep_oracle(monic, z)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def slice_polys(d, rng):
    """Monic polynomials of degree d: the fixed-c trinomial (c = 6i), the diagonal
    one (t = 2) where d is odd, and a dense one."""
    polys = [[2.0] + [0.0] * (d - 2) + [-1.0, 6j],
             rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)]
    if d % 2:
        n = (d + 1) // 2
        polys.append([2.0] + [0.0] * (n - 1) + [2.0] + [0.0] * (n - 2) + [-1.0])
    return [np.asarray(cf, dtype=complex) / complex(cf[0]) for cf in polys]


class TestAberthSweep:
    """_poly_roots' sweep against the formulas it replaced, bit for bit."""

    def test_degrees_3_to_400(self):
        rng = np.random.default_rng(29)
        for d in range(3, 401):
            # the seed circle at even d, a scattered set as later sweeps see it at odd
            if d % 2:
                z = rng.normal(size=d) + 1j * rng.normal(size=d)
            else:
                z = 1.3 * np.exp(1j * (2.0 * math.pi * np.arange(d) + 0.7) / d)
            for monic in slice_polys(d, rng):
                assert_sweep_matches_oracle(monic, z)

    def test_coinciding_iterates_take_the_row_redo(self):
        rng = np.random.default_rng(7)
        monic = slice_polys(9, rng)[1]
        z = rng.normal(size=9) + 1j * rng.normal(size=9)
        z[[4, 6]] = z[1]  # three iterates at one point
        z[7], z[8] = 1.5 + 0.0j, complex(1.5, -0.0)  # equal, with zeros of both signs
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(all="ignore"):
            raw = (1.0 / diff).sum(axis=1)
            # the rows holding an exact zero are the ones whose sum is not finite
            assert np.flatnonzero(~np.isfinite(raw)).tolist() == [1, 4, 6, 7, 8]
            assert_sweep_matches_oracle(monic, z)

    def test_signed_zeros_on_the_axes(self):
        # zeros of both signs, axis points and tiny moduli whose products underflow
        # make Horner steps of exact zeros, where adding a zero coefficient would
        # turn a -0.0 into +0.0; a zero constant term (z**d - z) keeps that sign
        rng = np.random.default_rng(13)
        z = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                      -1e-200 + 0j, complex(0.0, -1e-200), -2.0 + 0j, 1.5j,
                      complex(-3e-170, 3e-170)])
        for d in (3, 8, 9, 48):
            zero_tail = np.array([1.0] + [0.0] * (d - 2) + [-1.0, 0.0], dtype=complex)
            for monic in [*slice_polys(d, rng), zero_tail]:
                with np.errstate(all="ignore"):
                    assert_sweep_matches_oracle(monic, np.resize(z, d))

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, -math.inf),
                                     complex(math.nan, 1.0), complex(math.inf, math.nan)])
    def test_one_non_finite_iterate(self, bad):
        rng = np.random.default_rng(11)
        for d in (3, 8, 48):
            for monic in slice_polys(d, rng):
                z = rng.normal(size=d) + 1j * rng.normal(size=d)
                z[d // 2] = bad
                with np.errstate(all="ignore"):
                    assert_sweep_matches_oracle(monic, z)



def dedupe_oracle(a, scale, radius):
    """The centers dedupe as a d x d comparison: the indices it keeps, in order.
    close[i, j]: pair j < i has an a-value within tolerance of pair i's, and
    their discs meet."""
    gap = np.abs(a[:, None] - a[None, :])
    close = np.tril((gap <= np.maximum.outer(scale, scale))
                    & (gap <= np.add.outer(radius, radius)), -1)
    keep = np.ones(a.size, dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        keep[i] = not (close[i] & keep).any()
    return np.flatnonzero(keep)


def assert_dedupe_matches_oracle(values, radius=None):
    a = np.array(values, dtype=complex)
    radius = np.full(a.size, np.inf) if radius is None else np.asarray(radius)
    with np.errstate(over="ignore", invalid="ignore"):  # |a| or a gap may overflow
        scale = solvers._DEDUPE_TOL * np.maximum(1.0, np.abs(a))
        keep = solvers._dedupe(a, scale, np.argsort(a.real, kind="stable"), radius)
        want = dedupe_oracle(a, scale, radius)
    assert np.flatnonzero(keep).tolist() == want.tolist()
    return want


_FINITE = complex_value.filter(cmath.isfinite)


class TestDedupe:
    """The Re-order window dedupe against the d x d rule it replaced (discs of
    infinite radius, unless a test gives them)."""

    def test_pair_exactly_at_the_tolerance_merges(self):
        tol = solvers._DEDUPE_TOL
        at, past = 1e-9, math.nextafter(1e-9, 1.0)
        assert tol == at  # |a| <= 1, so both scales are the tolerance itself
        assert assert_dedupe_matches_oracle([0.0, at, 5.0, 0.25, 0.25 + at * 1j]).tolist() == [
            0, 2, 3]
        assert assert_dedupe_matches_oracle([0.0, past, 0.25, 0.25 + past * 1j]).size == 4

    def test_planted_near_duplicates(self):
        rng = np.random.default_rng(30)
        for d in (2, 5, 48, 191, 379):
            a = rng.normal(size=d) * 10.0 ** rng.integers(-3, 12, size=d) + 1j * rng.normal(
                size=d)
            # copies within, at about and beyond the tolerance, in any index order
            src = rng.integers(0, d, size=d // 2 + 1)
            rel = rng.choice([0.0, 0.3e-9, 0.999e-9, 1e-9, 1.001e-9, 3e-9], size=src.size)
            planted = a[src] * (1.0 + rel * np.exp(1j * rng.uniform(0, 2 * np.pi, src.size)))
            a = np.concatenate([a, planted])
            assert_dedupe_matches_oracle(a[rng.permutation(a.size)])

    def test_conjugate_pairs_with_equal_re(self):
        rng = np.random.default_rng(31)
        re = rng.normal(size=40) * 100.0
        im = np.where(np.arange(40) % 3, rng.normal(size=40), 1e-10 * np.abs(re))
        a = np.concatenate([re + 1j * im, re - 1j * im, re + 1j * im * (1 + 1e-10)])
        kept = assert_dedupe_matches_oracle(a[rng.permutation(a.size)])
        assert 40 < kept.size < 120

    @pytest.mark.parametrize("step", [2e-9, 5e-9, 1.0])
    def test_every_re_equal(self, step):
        # each offset has pairs within the window, so every offset is compared;
        # at 2e-9 (the tolerance here is about 3e-9) neighbours merge
        rng = np.random.default_rng(32)
        a = 3.0 + 1j * step * np.arange(200)
        kept = assert_dedupe_matches_oracle(a[rng.permutation(a.size)])
        assert (kept.size < 200) == (step == 2e-9)

    def test_disjoint_discs_never_merge(self):
        # copies within the tolerance whose discs just touch (they merge) or
        # fall 2% short of each other (they are kept)
        rng = np.random.default_rng(33)
        a = rng.normal(size=60) * 10.0 ** rng.integers(-3, 9, size=60) + 1j * rng.normal(size=60)
        planted = a * (1.0 + 1e-10)
        gap = np.abs(planted - a)
        short = np.arange(60) % 2 == 1
        r = np.where(short, 0.49, 0.5) * gap
        kept = assert_dedupe_matches_oracle(np.concatenate([a, planted]), np.concatenate([r, r]))
        assert kept.tolist() == list(range(60)) + (60 + np.flatnonzero(short)).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_FINITE, min_size=1, max_size=24),
           st.lists(st.tuples(st.integers(0, 23), st.sampled_from([0.0, 0.5e-9, 1e-9, 2e-9])),
                    max_size=8))
    def test_edge_magnitudes(self, values, copies):
        with np.errstate(over="ignore", invalid="ignore"):
            planted = [values[i % len(values)] * (1.0 + rel) for i, rel in copies]
        assert_dedupe_matches_oracle(values + [b for b in planted if cmath.isfinite(b)])


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

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    @pytest.mark.parametrize("modulus", [1e-30, 1e-100, 1e-150])
    def test_tiny_c_root_matches_mpmath(self, n, modulus):
        # 2*w**n - w + c = 0 has one root of modulus about |c|; its hull seed is
        # -c_0/c_1 = c, and the root comes back as mpmath's to within a ulp
        for arg in (0.0, 1.0, math.pi / 2, 2.5, -2.0, math.pi):
            c = modulus * cmath.exp(1j * arg)
            roots = _poly_roots([2.0] + [0.0] * (n - 2) + [-1.0, c])[0]
            w = roots[np.argmin(np.abs(roots - c))]
            with mp.workprec(200):
                x = mp.mpc(c)
                for _ in range(4):
                    x -= (2 * x**n - x + c) / (2 * n * x**(n - 1) - 1)
                assert abs(mp.mpc(complex(w)) - x) <= 2.0**-52 * abs(x), (c, w)

    def test_tiny_c_center_is_listed(self):
        # a = w**(2n) of the root near c is about 1e-240 at n = 4, c = 1e-30
        specs = fixed_critical_params(4, 1e-30 + 0j)
        assert min(abs(s.w_j) for s in specs) == pytest.approx(1e-30, rel=1e-15)

    @pytest.mark.parametrize("n, c", [(3, 1e-100), (3, 1e-150), (4, 1e-100), (5, 1e-100),
                                      (8, 1e-30), (3, 5e-324), (3, -5e-324)])
    def test_tiny_c_whose_a_underflows_names_c(self, n, c):
        # the root near c is found, but its a = w**(2n) underflows to 0
        with pytest.raises(ValueError, match=r"c = .* puts a center's a = w\*\*\(2n\) outside"):
            fixed_critical_params(n, complex(c))

    def test_dedupe_tol_knob(self, monkeypatch):
        # at a loose tolerance the pipeline still merges a-values whose discs meet,
        # and never merges disjoint ones: at c = 0.5 (n = 3) all three a-values lie
        # within 1 of each other, but every disc is proved and they are disjoint;
        # at c = 0.375 (n = 4) the double root w = 1/2 gets no disc, so its two
        # copies merge with each other and with one of the two proved a-values
        assert len(_centers(3, c=0.5 + 0j)) == 3
        assert len(_centers(4, c=0.375 + 0j)) == 3
        monkeypatch.setattr(solvers, "_DEDUPE_TOL", 1.0)
        a = [row[1] for row in _centers(3, c=0.5 + 0j)]
        assert len(a) == 3 and max(abs(x - y) for x in a for y in a) <= 1.0
        assert len(_centers(4, c=0.375 + 0j)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_critical_params(2, 6 + 0j)
        with pytest.raises(ValueError):
            fixed_critical_params(3, 0j)

    @pytest.mark.parametrize("c, message", [
        (1e307 + 0j, r"c = \(1e\+307\+0j\) is too large"),  # refused before the solve
        (3.8e154j, "is too large"),
        (3.7e154 + 0j, r"puts a center's a = w\*\*\(2n\) outside binary64"),  # after it
    ])
    def test_centers_beyond_binary64_name_c(self, c, message):
        with pytest.raises(ValueError, match=message):
            fixed_critical_params(4, c)


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


def circle_seeds(c):
    """The seeds _poly_roots took before the hull: the one circle of radius
    |c_0/c_d|**(1/d) (1 for a zero c_0), at angles (2*pi*k + 0.7)/d."""
    d = len(c) - 1
    radius = abs(c[-1] / c[0]) ** (1.0 / d) if c[-1] != 0 else 1.0
    return radius * np.exp(1j * (2.0 * math.pi * np.arange(d) + 0.7) / d)


def fixed_c_poly(n, c):
    return [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j, complex(c)]


def diagonal_poly(n, t):
    return [complex(t)] + [0j] * (n - 1) + [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j]


@pytest.fixture
def sweeps(monkeypatch):
    """sweeps(coeffs, seeds=None): the _sweep_sums calls (Aberth sweeps) of one
    _poly_roots solve, from _seeds or from the seeds given; _MAX_SWEEPS where a
    root fails _centers' residual rule."""
    calls = []
    real = solvers._sweep_sums

    def counted(z, diff):
        calls.append(None)
        return real(z, diff)

    monkeypatch.setattr(solvers, "_sweep_sums", counted)

    def count(coeffs, seeds=None):
        calls.clear()
        with monkeypatch.context() as m:
            if seeds is not None:
                m.setattr(solvers, "_seeds", seeds)
            _, residual, terms = _poly_roots(coeffs)
        if np.all(np.isfinite(residual) & (residual <= solvers._ROOT_TOL * terms)):
            return len(calls)
        return solvers._MAX_SWEEPS

    return count


class TestSeeds:
    @pytest.mark.parametrize("n, circle", [(48, 14), (96, 14), (144, 14), (190, 16)])
    def test_bench_sweep_counts(self, sweeps, n, circle):
        # the certify workload's eight solves: fixed c = 6i and the diagonal t = 2
        assert sweeps(fixed_c_poly(n, 6j)) == 4
        assert sweeps(fixed_c_poly(n, 6j), circle_seeds) == circle
        assert sweeps(diagonal_poly(n, 2)) == sweeps(diagonal_poly(n, 2), circle_seeds) == 4

    def test_never_more_sweeps_than_the_circle(self, sweeps):
        total = {"hull": 0, "circle": 0}
        for n in (3, 4, 5, 8, 30):
            for arg in (0.0, 0.9, 2.0, -2.7):
                turn = cmath.exp(1j * arg)
                polys = [fixed_c_poly(n, m * turn) for m in (1e-100, 1e-30, 1e-3, 0.3, 1, 6, 1e13)]
                polys += [diagonal_poly(n, m * turn) for m in (1e-8, 1e-3, 0.3, 1, 2, 1e3, 1e6)]
                for coeffs in polys:
                    hull, circle = sweeps(coeffs), sweeps(coeffs, circle_seeds)
                    assert hull <= circle, (n, coeffs[0], coeffs[-1])
                    total["hull"] += hull
                    total["circle"] += circle
        assert total["hull"] < 0.7 * total["circle"]

    @pytest.mark.parametrize("coeffs", [
        diagonal_poly(8, 2), diagonal_poly(190, 2),  # one group of two edges
        fixed_c_poly(4, 0.5),  # radii 0.5 and 2**(-1/3), within a factor 4
        [1, -1, 0], [2, 3, 0, 0],  # a zero constant term
    ])
    def test_one_group_over_the_whole_degree_keeps_the_circle(self, coeffs):
        got = solvers._seeds([complex(x) for x in coeffs])
        np.testing.assert_array_equal(got.view(np.uint64), circle_seeds(coeffs).view(np.uint64))

    def test_a_lone_edge_seeds_its_binomial_roots(self):
        # 2w**5 - w + 6i: one edge from power 0 to 5, seeds at (-3i)**(1/5)
        seeds = solvers._seeds(fixed_c_poly(5, 6j))
        np.testing.assert_allclose(seeds**5, np.full(5, -3j), rtol=1e-14)
        assert len({round(cmath.phase(s), 12) for s in seeds}) == 5
        # 2w**5 - w + 1e-30: the edge 0-1 seeds w = 1e-30, the edge 1-5 seeds
        # the four roots of 2w**4 = 1
        seeds = solvers._seeds(fixed_c_poly(5, 1e-30))
        assert seeds[0] == pytest.approx(1e-30, rel=1e-13)
        np.testing.assert_allclose(seeds[1:]**4, np.full(4, 0.5), rtol=1e-14)

    @pytest.mark.parametrize("coeffs, moduli", [
        # |c_2/c_4| = 1e600 overflows, its square root 1e300 does not
        ([1e-300, 0, 1e300, 0, 1], [1e-150, 1e-150, 1e300, 1e300]),
        # one group of two edges whose |c_0/c_4| = 1e-330 underflows
        ([1e30, 0, 1.5e-135, 0, 1e-300], [10.0**-82.5] * 4),
    ])
    def test_radii_in_logs(self, coeffs, moduli):
        seeds = solvers._seeds([complex(x) for x in coeffs])
        np.testing.assert_allclose(np.sort(np.abs(seeds)), moduli, rtol=1e-12)


def sparse(coeffs):
    """(power, coefficient) of each nonzero term of coeffs (highest degree first)."""
    d = len(coeffs) - 1
    return [(d - k, mp.mpc(x)) for k, x in enumerate(coeffs) if x != 0]


def true_roots(coeffs, roots):
    """Every root of coeffs at 200 bits: Newton from each float root, or mpmath's
    polyroots where two of those land on one root."""
    terms = sparse(coeffs)
    found = []
    for z in roots.tolist():
        x = mp.mpc(z)
        for _ in range(50):
            step = (sum(c * x**m for m, c in terms)
                    / sum(m * c * x**(m - 1) for m, c in terms if m))
            x -= step
            if abs(step) <= abs(x) * mp.mpf(2)**-190:
                break
        found.append(x)
    if all(abs(x - y) > 1e-40 * abs(x) for i, x in enumerate(found) for y in found[:i]):
        return found
    return mp.polyroots([mp.mpc(x) for x in coeffs], maxsteps=400, extraprec=600)


def assert_discs_hold_the_roots(coeffs, n=None):
    """Each finite disc of _root_radii holds exactly one true root, and where every
    disc is finite each true root lies in exactly one; with n, each a-disc of
    _a_radii holds the true a = w**(2n) of its root. Returns the finite count."""
    roots, residual, terms = _poly_roots(coeffs)
    r = solvers._root_radii([complex(x) for x in coeffs], roots, residual, terms)
    radius = solvers._a_radii(n, roots, r) if n else r
    with mp.workprec(200):
        exact = true_roots(coeffs, roots)
        for z, ri, big in zip(roots.tolist(), r.tolist(), radius.tolist()):
            if math.isinf(ri):
                continue
            inside = [x for x in exact if abs(x - mp.mpc(z)) < ri]
            assert len(inside) == 1, (z, ri, len(inside))
            if n:
                assert abs(inside[0]**(2 * n) - mp.mpc(pow_int(z, 2 * n))) <= big, (z, big)
        if np.all(np.isfinite(r)):
            for x in exact:
                assert sum(abs(x - mp.mpc(z)) < ri for z, ri in zip(roots.tolist(), r)) == 1
    return int(np.isfinite(r).sum())


class TestDiscs:
    """_root_radii and _a_radii against mpmath roots at 200 bits."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 16, 24])
    def test_differential_slices(self, n):
        slices = [fixed_c_poly(n, c) for c in (6j, 6, 1, 0.5, 0.05 + 0.02j, -3 + 2j, 20 + 1j,
                                                1e13, 1e-30, 0.375)]
        slices += [diagonal_poly(n, t) for t in (2, 1, 0.1 + 0.3j, -2 + 1j, 1e-8, 10, 1e-20)]
        proved = sum(assert_discs_hold_the_roots(coeffs, n) for coeffs in slices)
        # every root but the double root w = 1/2 of n = 4, c = 0.375
        assert proved == 24 * n - 7 - 2 * (n == 4)

    def test_random_trinomials(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            d = int(rng.integers(2, 25))
            j = int(rng.integers(1, d))
            coeffs = [0j] * (d + 1)
            for power in (d, j, 0):
                coeffs[d - power] = 10.0 ** rng.uniform(-6, 6) * cmath.exp(
                    1j * rng.uniform(-math.pi, math.pi))
            assert assert_discs_hold_the_roots(coeffs, int(rng.integers(3, 9))) >= d - 1

    def test_a_double_root_gets_no_disc(self):
        # c = 0.375 is a double-root c* for n = 4 (w = 1/2): Rouche's Q term
        # refuses both roots there, and proves the two others
        roots, residual, terms = _poly_roots(fixed_c_poly(4, 0.375))
        r = solvers._root_radii(fixed_c_poly(4, 0.375), roots, residual, terms)
        assert np.isinf(r[np.abs(roots - 0.5) < 1e-6]).sum() == 2
        assert np.isfinite(r).sum() == 2

    def test_a_radius_covers_pow_int_rounding(self):
        # at r = 0 the a-disc is pow_int's rounding bound alone, and holds the
        # exact z**(2n) of the float z, down to subnormal a
        rng = np.random.default_rng(35)
        for n in (3, 4, 8, 48, 190):
            z = 10.0 ** rng.uniform(-300 / (2 * n), 300 / (2 * n), 200) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, 200))
            z[:5] = 10.0 ** (-309 / (2 * n)) * np.exp(1j * np.arange(5))
            radius = solvers._a_radii(n, z, np.zeros(z.size))
            with mp.workprec(200):
                for zi, ri in zip(z.tolist(), radius.tolist()):
                    assert abs(mp.mpc(zi)**(2 * n) - mp.mpc(pow_int(zi, 2 * n))) <= ri, (n, zi)
