"""Sampling-based certification checks and their report plumbing."""
import dataclasses
import hashlib
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _edge_values import complex_value, real
from mcmullen import verify
from mcmullen.errors import (
    HypothesisError,
    InconsistencyError,
    RootFindingError,
    UnderSamplingError,
)
from mcmullen.family import MapParams
from mcmullen.regions import WRegionSpec, ellipse_spec
from mcmullen.render import (
    Diagonal,
    Dynamical,
    FixedA,
    FixedC,
    RenderConfig,
    Viewport,
    render_slice,
)
from mcmullen.solvers import fixed_critical_params
from mcmullen.spine import SpineSpec, spine_within
from mcmullen.verify import (
    CSV_HEADER,
    VerificationReport,
    reports_to_csv,
    verify_annulus_escape,
    verify_containment,
    verify_image_ellipse,
    verify_spine_locus,
    verify_vminus_sign,
    verify_winding,
)
from mcmullen.errors import MEMORY_BUDGET_BYTES
from mcmullen.verify import (
    _CHUNK_BYTES,
    _LATTICE_BYTES,
    _check_chunked,
    _lattice,
    _turns,
)

ROOT = Path(__file__).resolve().parents[1]


class TestMemoryBudget:
    def test_huge_lattices_refused_before_allocation(self):
        p = MapParams(4, 13 + 0j, 6j)
        spec = fixed_critical_params(8, 6 + 0j)[0]
        for call in (
            lambda: verify_spine_locus(20, 2 + 0j, 0.25, grid=10**5),
            lambda: verify_annulus_escape(p, grid=10**5),
            lambda: verify_containment(p, 0, samples=10**9),
            lambda: verify_winding(spec, boundary_samples=10**9),
            lambda: verify_image_ellipse(p, 0, samples=10**9),
        ):
            with pytest.raises(ValueError, match="memory budget"):
                call()

    def test_benchmark_sizes_fit(self):
        # what the benchmark's spine-locus grid, annulus grid and winding and
        # containment sample counts are charged
        for points in (300**2, 128**2, 65536, 200_000):
            assert _CHUNK_BYTES + points * _LATTICE_BYTES < MEMORY_BUDGET_BYTES

    def test_readme_limits(self):
        # README's stated verify limits are (budget - one chunk) // charge, to the
        # precision it states them, and each is the largest size the budget admits
        text = (ROOT / "README.md").read_text()
        text = " ".join(text[text.index("The size limits follow"):].split())
        stated = re.search(
            r"refused above about ([\d.]+) million for containment and winding and "
            r"([\d.]+) million for image-ellipse, and the grid side of annulus and "
            r"spine-locus above ([\d,]+)\.", text)
        assert stated, "README's size-limit sentence changed; update this test with it"
        assert "4 MiB for one chunk's temporaries" in text and _CHUNK_BYTES == 4 * 2**20
        assert "plus 16 B per point" in text and _LATTICE_BYTES == 16
        room = MEMORY_BUDGET_BYTES - _CHUNK_BYTES
        limits = {
            "containment and winding": (room // _LATTICE_BYTES, 1, stated[1]),
            # four points per --samples
            "image-ellipse": (room // (4 * _LATTICE_BYTES), 4, stated[2]),
        }
        for check, (limit, points, millions) in limits.items():
            decimals = len(millions.partition(".")[2])
            assert round(limit / 1e6, decimals) == float(millions), (check, limit)
            _check_chunked(points * limit, check)
            with pytest.raises(ValueError, match="memory budget"):
                _check_chunked(points * (limit + 1), check)
        grid = math.isqrt(room // _LATTICE_BYTES)
        assert grid == int(stated[3].replace(",", ""))
        _check_chunked(grid * grid, "grid")
        with pytest.raises(ValueError, match="memory budget"):
            _check_chunked((grid + 1) ** 2, "grid")

    @pytest.mark.parametrize("check, samples, point_bytes, pinned_mib", [
        ("containment", 200_000, _LATTICE_BYTES, None),
        ("containment", 800_000, _LATTICE_BYTES, None),
        ("winding", 65_536, _LATTICE_BYTES, None),
        ("winding", 262_144, _LATTICE_BYTES, None),
        ("image-ellipse", 50_000, 4 * _LATTICE_BYTES, None),  # four points per sample
        ("annulus", 128**2, _LATTICE_BYTES, None),
        ("annulus", 256**2, _LATTICE_BYTES, None),
        # and within their traced peaks plus 10%, as they stream _lattice's chunks
        ("image-ellipse", 1_000_000, 4 * _LATTICE_BYTES, 17.8),
        ("containment", 4_000_000, _LATTICE_BYTES, 9.2),
        ("winding", 1_000_000, _LATTICE_BYTES, 4.2),
        ("annulus", 1000**2, _LATTICE_BYTES, 1.03),
        ("spine-locus", 300**2, _LATTICE_BYTES, 2.51),  # grid**2 lattice points
        ("spine-locus", 600**2, _LATTICE_BYTES, 2.62),
        ("spine-locus", 1000**2, _LATTICE_BYTES, 2.78),
        # where bounded orbits hold kernel blocks open, the kernel's working set
        # sets the peak; the fixed charge covers it
        ("bounded spine-locus", 160**2, _LATTICE_BYTES, None),
    ])
    def test_peak_within_estimate(self, check, samples, point_bytes, pinned_mib):
        # every check's traced peak stays within what the budget charges: one
        # chunk's temporaries and the kernel's working set, plus the per-point
        # arrays kept at full length
        spec = fixed_critical_params(8, 6 + 0j)[0]
        p = MapParams(8, spec.a_j, 6 + 0j)
        grid = math.isqrt(samples)
        call = {
            "containment": lambda: verify_containment(p, spec.k, samples),
            "winding": lambda: verify_winding(spec, samples),
            "image-ellipse": lambda: verify_image_ellipse(p, spec.k, samples),
            "spine-locus": lambda: verify_spine_locus(20, 2 + 0j, 0.25, grid=grid),
            "bounded spine-locus": lambda: verify_spine_locus(3, 10 + 0j, 1e-3, grid=grid),
            "annulus": lambda: verify_annulus_escape(p, grid=grid),
        }[check]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _CHUNK_BYTES + samples * point_bytes
        assert pinned_mib is None or peak <= pinned_mib * 2**20


class TestChunks:
    """Every sampled check takes its samples verify._CHUNK at a time; no report
    may depend on the chunk size."""

    @pytest.mark.parametrize("chunks, sizes", [
        ((1, 1000, 8192, 10**6), (1001, 5003, 4100)),
        # single chunks of 20,000 samples or more hold complex temporaries above
        # NumPy's 256 KiB elision threshold
        ((1000, 8192, 10**6), (20_001, 70_001, 20_004)),
        # both arcs, and both rays, in one chunk of 1,000 or more; a piece over
        # eight chunks of 40
        ((1, 40, 1000, 8192, 10**6), (300, 2400, 1024)),
    ])
    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch, chunks, sizes):
        spec = fixed_critical_params(8, 6 + 0j)[0]
        p = MapParams(8, spec.a_j, 6 + 0j)
        ellipse, containment, winding = sizes
        true_spec = verify.ellipse_spec

        def shrunk(p, half_sign=0):
            # a 0.1% smaller ellipse, so that failures fall in many chunks
            s = true_spec(p, half_sign)
            return dataclasses.replace(s, semi_major=s.semi_major * 0.999,
                                       semi_minor=s.semi_minor * 0.999)

        texts = set()
        for chunk in chunks:
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            reports = [verify_winding(spec, winding)]
            for ellipse_spec_ in (true_spec, shrunk):
                monkeypatch.setattr(verify, "ellipse_spec", ellipse_spec_)
                reports += [verify_image_ellipse(p, spec.k, ellipse),
                            verify_containment(p, spec.k, containment)]
            texts.add(reports_to_csv(reports))
        assert len(texts) == 1
        failures = [int(row.split(",")[3]) for row in texts.pop().splitlines()[1:]]
        assert failures[0] > 0 and failures[3] > 0 and failures[4] > 0

    @pytest.mark.parametrize("chunk", [1, 40, 8192])
    def test_lattice_is_the_whole_lattice_in_chunks(self, monkeypatch, chunk):
        # joined, _lattice's chunks are the whole-lattice formula's points, bit
        # for bit and in order, and none holds more than _CHUNK; m and g**2 lie on
        # both sides of the chunk, and g too where g**2 points stay small
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        root = math.isqrt(chunk)
        shapes = [(1, m) for m in (max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 3)]
        shapes += [(rows, cols) for m in (max(1, chunk - 1), chunk + 1, 2 * chunk + 3)
                   for rows, cols in ((m, 1), (2, m), (m, 2))]
        shapes += [(g, g) for g in (root, root + 1, *([chunk + 1] if chunk <= 40 else []))]
        for rows, cols in shapes:
            radii = rng.uniform(1e-3, 1e3, rows)
            angles = rng.uniform(-math.pi, math.pi, cols)
            chunks = list(_lattice(radii, angles))
            assert all(0 < z.size <= chunk for z in chunks), (rows, cols)
            want = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
            assert np.concatenate(chunks).tobytes() == want.tobytes(), (rows, cols)

    def test_orbit_checks_do_not_depend_on_the_chunk(self, monkeypatch):
        # annulus and spine-locus run each chunk of their lattice through the
        # orbit kernel as one block, and keep only its failures and largest count
        spec = fixed_critical_params(4, 6j)[0]
        true_inner = verify.inner_radius
        texts = set()
        for chunk in (1, 1000, 8192, 10**6):
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            # the benchmark's spine-locus op, whose CSV test_cli pins
            bench = verify_spine_locus(20, complex(2.017228050435922, 0.02732673218497765),
                                       0.25, grid=300, max_iter=200)
            # at max_iter 2, failures fall all over the lattice
            failing = verify_spine_locus(6, 1 + 0j, 0.01, grid=100, max_iter=2)
            # an inner band ten times too wide holds orbits that need more steps
            monkeypatch.setattr(verify, "inner_radius", lambda p: 10 * true_inner(p))
            annulus = verify_annulus_escape(MapParams(4, spec.a_j, 6j), grid=64, max_iter=1)
            monkeypatch.setattr(verify, "inner_radius", true_inner)
            texts.add(reports_to_csv([bench, failing, annulus]))
        assert len(texts) == 1
        text = texts.pop()
        bench_csv = "\n".join(text.splitlines()[:2]) + "\n"
        assert hashlib.sha256(bench_csv.encode()).hexdigest() == (
            "44fb5791d23f5c1c4bc9c64f4b4b0867badc45cd9cbc96a071daa5e1d9372017")
        failures = [int(row.split(",")[3]) for row in text.splitlines()[1:]]
        assert failures == [0, 289, 116]

    def test_winding_product_order(self, monkeypatch):
        # at 16,384 samples one chunk of 10**6 holds 256 KiB complex temporaries,
        # which NumPy evaluates in place; a complex product whose operands that
        # swaps would change the worst margin against chunks of 1,000
        spec = fixed_critical_params(8, 6 + 0j)[0]
        reports = []
        for chunk in (1000, 10**6):
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            reports.append(verify_winding(spec, 16_384))
        assert reports[0] == reports[1]


class TestOverflowingN:
    def test_ellipse_checks_refuse_n_from_1024(self):
        # w = 1 is a fixed critical point of (n, a = 1, c = -1) for every n
        w = WRegionSpec(c=-1 + 0j, n=1100, j=0, w_j=1 + 0j, a_j=1 + 0j, k=0)
        for call in (
            lambda: verify_image_ellipse(MapParams(2000, 1 + 0j, 0j), 0, samples=16),
            lambda: verify_containment(MapParams(1100, 1 + 0j, -1 + 0j), 0, samples=64),
            lambda: verify_winding(w, boundary_samples=256),
        ):
            with pytest.raises(HypothesisError, match="binary64"):
                call()

    def test_ellipse_checks_refuse_a_below_the_normal_range(self):
        # on the inner arc |z|**n = |a|/2**n, which is subnormal or 0 here, so
        # a/z**n would overflow: a is refused by name before any sample is formed
        for n, a in ((5, complex(-5e-324, -0.0)), (8, 1e-310 + 0j)):
            p = MapParams(n, a, 1e13 + 0j)
            for call in (lambda: verify_image_ellipse(p, 0, samples=32),
                         lambda: verify_containment(p, 0, samples=64)):
                with pytest.raises(HypothesisError, match=r"a = .* is too small"):
                    call()
        # the least |a| whose |a|/2**n is normal runs, with no warning
        p = MapParams(8, math.ldexp(sys.float_info.min, 8) + 0j, 1e13 + 0j)
        assert verify_image_ellipse(p, 0, samples=32).samples == 128


class TestReportPlumbing:
    def test_report_validation(self):
        # passed is derived from failures, so an inconsistent report cannot be built
        assert VerificationReport("demo", "x=1", 10, 0, 0.5).passed
        assert not VerificationReport("demo", "x=1", 10, 3, 0.5).passed
        with pytest.raises(TypeError):
            VerificationReport("demo", "x=1", 10, 3, 0.5, True)  # passed is not a field
        with pytest.raises(ValueError):
            VerificationReport("demo", "x=1", 10, 0, math.nan)

    def test_csv_format(self):
        reports = [
            VerificationReport("alpha", "n=3;k=0", 100, 0, 0.25),
            VerificationReport("beta", "n=4", 50, 2, -0.125),
        ]
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "check,params,samples,failures,worst_margin,pass"
        assert lines[1] == "alpha,n=3;k=0,100,0,0.25,true"
        assert lines[2] == "beta,n=4,50,2,-0.125,false"
        # margins serialize via repr: round-trips exactly
        assert float(lines[1].split(",")[4]) == 0.25


def winding_turns(deltas):
    """The whole-loop oracle of verify's streamed winding sum: (turns, max_step) of a
    closed loop of nonzero complex samples, from all its wrapped argument steps at
    once, the last step closing the loop; a constant loop gives 0 turns."""
    d = np.asarray(deltas, dtype=complex)
    if d.size < 1:
        raise ValueError("need at least one sample")
    ang = np.angle(d)
    steps = np.empty_like(ang)
    np.subtract(ang[1:], ang[:-1], out=steps[:-1])
    steps[-1] = ang[0] - ang[-1]
    steps += math.pi
    np.remainder(steps, 2.0 * math.pi, out=steps)
    steps -= math.pi
    turns = float(steps.sum() / (2.0 * math.pi))
    return turns, float(np.abs(steps, out=steps).max())


def _streamed(deltas, chunk):
    """verify's winding sum over the loop's arguments, `chunk` samples at a time."""
    ang = np.angle(np.asarray(deltas, dtype=complex))
    return _turns(ang[i:i + chunk] for i in range(0, ang.size, chunk))


def _loop(steps, start=0.3):
    """Unit samples whose arguments take the given steps from `start`."""
    return np.exp(1j * (start + np.concatenate([[0.0], np.cumsum(steps)])))


class TestWindingSum:
    CHUNKS = (1, 2, 3, 7, 8, 64, 256, 257, 10**6)

    def test_oracle(self):
        loop = [np.exp(2j * np.pi * k / 64) for k in range(64)] + [1 + 0j]
        for chunk in (None, *self.CHUNKS):
            turns, max_step = winding_turns(loop) if chunk is None else _streamed(loop, chunk)
            assert turns == pytest.approx(1.0, abs=1e-12)
            assert abs(turns - round(turns)) <= 1e-9  # a closed loop's steps telescope
            assert max_step == pytest.approx(2 * math.pi / 64, rel=1e-12)
        assert winding_turns([1 + 0j, 1 + 0j, 1 + 0j]) == (0.0, 0.0)
        assert _streamed([1 + 0j, 1 + 0j, 1 + 0j], 2) == (0.0, 0.0)
        with pytest.raises(ValueError):
            winding_turns([])

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_streamed_sum_matches_the_oracle(self, chunk):
        # 257 samples: small steps, 1.5 rad steps into samples 21, 64 and 256 (a
        # chunk boundary for every chunk size here but 257 and 10**6), and a
        # closing step of 1.45 rad; the loops wind -1 to 2 times
        rng = np.random.default_rng(26)
        big = [20, 63, 255]
        for winds in (-1, 0, 1, 2):
            steps = rng.uniform(-0.2, 0.2, 256)
            steps[big] = 0.0
            steps += (2 * math.pi * winds - 1.45 - 4.5 - steps.sum()) / 253
            steps[big] = 1.5
            loop = _loop(steps)
            turns, max_step = _streamed(loop, chunk)
            want_turns, want_max = winding_turns(loop)
            assert max_step == want_max, winds
            assert turns == pytest.approx(want_turns, abs=1e-13) and round(turns) == winds
            # the raw steps telescope to 0, so the wrapped sum is a whole number
            # of turns up to rounding: winding needs no rule for a fraction
            assert abs(turns - round(turns)) <= 1e-9, winds
            assert max_step == pytest.approx(1.5, abs=1e-9), winds

    def test_undersampling_guard(self):
        # a quarter-turn jump in one step is indistinguishable from aliasing
        deltas = np.array([1 + 0j, 1j, -1 + 0j, -1j, 1 + 0j])
        for chunk in (1, 2, 5):
            with pytest.raises(UnderSamplingError, match=r"largest argument step 1\.571 rad"):
                _streamed(deltas, chunk)
        # one step of pi/2 or more is enough, across a chunk boundary or closing
        # the loop, and a step just below it is not
        across = _loop([0.1, math.pi / 2 + 1e-9, 0.1, 0.1])
        closing = _loop([0.4, 0.4, 0.4, 0.4])  # closing step -1.6 rad
        below = _loop([0.4, 0.4, 0.4, 0.35])  # closing step -1.55 rad
        for chunk in (1, 2, 3, 10):
            with pytest.raises(UnderSamplingError):
                _streamed(across, chunk)
            with pytest.raises(UnderSamplingError):
                _streamed(closing, chunk)
            assert _streamed(below, chunk)[1] == pytest.approx(1.55, abs=1e-12)


class TestImageEllipse:
    def test_frozen_pass(self):
        r = verify_image_ellipse(MapParams(3, 1 + 1j, 0.5 + 0j), 0, samples=250)
        assert (r.samples, r.failures, r.passed) == (1000, 0, True)
        assert r.worst_margin == pytest.approx(1.3322676295501878e-15, rel=1e-6)

    def test_all_sectors_pass(self):
        p = MapParams(4, -2 + 0.5j, 1 - 1j)
        for k in range(8):
            r = verify_image_ellipse(p, k, samples=100)
            assert r.passed, k
            assert r.worst_margin < 1e-10

    def test_negative_control_wrong_axes(self, monkeypatch):
        # the |a|/2 (instead of |a|/2**n) minor-axis variant must fail loudly
        p = MapParams(3, 1 + 1j, 0.5 + 0j)
        wrong = dataclasses.replace(
            ellipse_spec(p), semi_major=2**3 + abs(1 + 1j) / 2, semi_minor=2**3 - abs(1 + 1j) / 2
        )
        monkeypatch.setattr(verify, "ellipse_spec", lambda p, half_sign=0: wrong)
        r = verify_image_ellipse(p, 0, samples=250)
        assert not r.passed
        assert r.failures == 522  # deterministic sampling
        assert r.worst_margin == pytest.approx(0.15072551870035067, rel=1e-9)

    def test_deterministic(self):
        p = MapParams(5, 2 - 1j, 0.3 + 0j)
        assert verify_image_ellipse(p, 2, samples=64) == verify_image_ellipse(
            p, 2, samples=64
        )


class TestContainment:
    def test_frozen_small_c(self):
        r = verify_containment(MapParams(3, 1 + 0j, 0.2 + 0j), 3, samples=400)
        assert (r.samples, r.failures, r.passed) == (396, 0, True)
        assert r.worst_margin == pytest.approx(3.1430797879650196e-06, rel=1e-9)
        assert "half=-1" in r.params  # odd k pairs with the lower half

    def test_even_k_uses_plus_half(self):
        r = verify_containment(MapParams(7, 1.5 + 0.5j, -2 + 0j), 0, samples=200)
        assert r.passed
        assert "half=1" in r.params

    def test_margins_positive_under_hypotheses(self):
        # MT1-style parameters: every sector's rectangle sits inside its half-ellipse
        for s in fixed_critical_params(4, 6j):
            r = verify_containment(MapParams(4, s.a_j, 6j), s.k, samples=300)
            assert r.passed and r.worst_margin > 0, s.j


@pytest.fixture(scope="module")
def reports():
    return {
        s.j: verify_winding(s, boundary_samples=4096)
        for s in fixed_critical_params(4, 6j)
    }


class TestWinding:
    def test_winding_is_one_everywhere(self, reports):
        for j, r in reports.items():
            assert "winding=1" in r.params, j
            assert "turns=1.000000" in r.params, j

    def test_membership_violations_counted_not_hidden(self, reports):
        # the tracked critical value re-enters the open rectangle on the ray
        # segments for three of the four sectors; the counts are deterministic
        assert {j: r.failures for j, r in reports.items()} == {
            0: 1471,
            1: 1267,
            2: 583,
            3: 0,
        }
        assert reports[0].worst_margin == pytest.approx(-0.05464171028005601, rel=1e-9)
        assert reports[3].passed and not reports[0].passed

    def test_sampling_floor(self):
        s = fixed_critical_params(4, 6j)[0]
        with pytest.raises(ValueError):
            verify_winding(s, boundary_samples=128)

    def test_critical_point_at_c_refused(self):
        # the fixed critical point near c = 1e-6 has w_j - c of about 2e-24, which
        # rounds to 0: the tracking frame (v - c)/(w_j - c) would divide by zero,
        # so it is refused by name before any sample is formed
        spec = next(s for s in fixed_critical_params(4, 1e-6) if s.w_j == s.c)
        with pytest.raises(ValueError, match=r"w_j - c = 0j is too small: \(v - c\)/"):
            verify_winding(spec, boundary_samples=256)

    def test_max_step_small(self, reports):
        for r in reports.values():
            step = float(r.params.split("max_step=")[1].split(";")[0])
            assert step < math.pi / 2  # far from the aliasing guard


class TestAnnulusEscape:
    def test_frozen(self):
        r = verify_annulus_escape(MapParams(5, 2 + 0j, 1 + 1j), grid=16, max_iter=200)
        assert (r.samples, r.failures, r.passed) == (256, 0, True)
        assert r.worst_margin == pytest.approx(0.9950248756218906, rel=1e-12)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            verify_annulus_escape(MapParams(3, 1 + 0j, 0j), grid=4)

    def test_random_members(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(a) < 0.05:
                continue
            c = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            r = verify_annulus_escape(MapParams(n, a, c), grid=12, max_iter=500)
            assert r.passed, (n, a, c)


class TestSpineLocus:
    def test_frozen_quick(self):
        r = verify_spine_locus(20, 2 + 0j, 0.25, grid=48, max_iter=200)
        assert (r.samples, r.failures, r.passed) == (2304, 0, True)
        assert "tested=1414" in r.params and "skipped=890" in r.params

    def test_negative_control(self):
        r = verify_spine_locus(6, 1 + 0j, 0.01, grid=200, max_iter=200)
        assert not r.passed
        assert r.failures == 17  # deterministic lattice

    def test_near_the_slope_limit(self):
        # the spine's samples reach about 1e308, where the mean of a block of
        # them overflows; the check runs with no warning
        r = verify_spine_locus(4, 1.5e-154 + 0j, 0.25, grid=32)
        assert r.passed and r.samples == 1024

    def test_empty_scan(self, monkeypatch):
        # with every point exempt the scan tests nothing: HypothesisError comes
        # after it, so the orbit kernel refuses an invalid max_iter first
        scanned = []

        def exempt(s, a, eps):
            scanned.append(a.size)
            return np.ones(a.size, dtype=bool)

        monkeypatch.setattr(verify, "spine_within", exempt)
        with pytest.raises(HypothesisError, match="the check would test nothing"):
            verify_spine_locus(20, 2 + 0j, 0.25, grid=100, max_iter=200)
        assert sum(scanned) == 100**2
        with pytest.raises(ValueError, match="max_iter must be an integer") as err:
            verify_spine_locus(20, 2 + 0j, 0.25, grid=100, max_iter=0)
        assert not isinstance(err.value, HypothesisError)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_spine_locus(2, 1 + 0j, 0.25)
        with pytest.raises(ValueError):
            verify_spine_locus(6, 1 + 0j, -0.1)
        with pytest.raises(ValueError):
            verify_spine_locus(6, 1 + 0j, 0.25, grid=8)


class TestVminusSign:
    def test_regime1_mismatch_recorded(self):
        r = verify_vminus_sign(3, 2.0, 0.3)
        assert not r.passed and r.failures == 1
        assert "regime=1" in r.params and "claim=positive" in r.params
        assert r.worst_margin == pytest.approx(-2.5284271247461905, rel=1e-12)

    def test_regime3_mismatch_recorded(self):
        # direct sign is positive where the claim says nonpositive
        r = verify_vminus_sign(3, 0.001, 0.15)
        assert not r.passed
        assert "regime=3" in r.params and "claim=nonpositive" in r.params
        assert float(r.params.split("v_minus=")[1].split(";")[0]) > 0

    def test_regime2_mismatch_recorded(self):
        r = verify_vminus_sign(3, 0.0001, 0.01)
        assert not r.passed
        assert "regime=2" in r.params and "claim=positive" in r.params

    def test_consistent_case_passes(self):
        # far inside regime 1 with c genuinely above 2 sqrt(a)
        r = verify_vminus_sign(3, 0.01, 0.25)
        assert r.passed == (r.failures == 0)

    def test_hypothesis_gates(self):
        with pytest.raises(HypothesisError):
            verify_vminus_sign(3, 5.0, 0.3)  # a > 4
        with pytest.raises(HypothesisError):
            verify_vminus_sign(3, 2.0, -0.1)  # c <= 0
        with pytest.raises(HypothesisError):
            verify_vminus_sign(3, 0.0, 0.3)


def _outcome(call):
    """call(), or the type and message of the ValueError (HypothesisError is one)
    or UnderSamplingError it raises; a RuntimeWarning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValueError, UnderSamplingError) as err:
            return type(err), str(err)


def _winding_specs(n, c):
    """fixed_critical_params(n, c), or none where the solver refuses c."""
    try:
        return fixed_critical_params(n, c)
    except (ValueError, RootFindingError, InconsistencyError):
        return []


class TestLibraryFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([3, 4, 5, 8]), a=complex_value, c=complex_value, t=complex_value,
           eps=real, k=st.integers(0, 15), max_iter=st.sampled_from([1, 5, 20]))
    def test_entry_points(self, n, a, c, t, eps, k, max_iter):
        # the check functions, spine_within, MapParams and a 4x3 render of each
        # slice, at small sizes and with values from 0 through the subnormals to
        # inf and nan: each returns (a check its report, spine_within its mask,
        # a render its pixel bytes) or raises ValueError or UnderSamplingError,
        # with no NumPy warning, the same twice, and the two orbit checks and
        # winding the same at two chunk sizes (the 1,024 lattice points span 26
        # chunks of 40, and each of winding's four 64-sample segments two)
        def render(make_slice):
            return lambda: render_slice(
                n, make_slice(), Viewport(-abs(eps), abs(eps), -abs(eps), abs(eps), 4, 3),
                RenderConfig(max_iter)).pixels.tobytes()

        calls = {
            "annulus": lambda: verify_annulus_escape(MapParams(n, a, c), 32, max_iter),
            "spine-locus": lambda: verify_spine_locus(n, t, eps, 32, max_iter),
            "image-ellipse": lambda: verify_image_ellipse(MapParams(n, a, c), k % (2 * n), 16),
            "containment": lambda: verify_containment(MapParams(n, a, c), k % (2 * n), 64),
            "winding": lambda: [verify_winding(s, 256) for s in _winding_specs(n, c)],
            "spine_within": lambda: spine_within(SpineSpec(t, 64), np.array([a, c, t]),
                                                 eps).tolist(),
            "MapParams": lambda: MapParams(n, a, c),
            "render fixed-c": render(lambda: FixedC(c)),
            "render fixed-a": render(lambda: FixedA(a)),
            "render diagonal": render(lambda: Diagonal(t)),
            "render dynamical": render(lambda: Dynamical(MapParams(n, a, c))),
        }
        outcomes = {name: _outcome(call) for name, call in calls.items()}
        for name, call in calls.items():
            assert _outcome(call) == outcomes[name], name
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_CHUNK", 40)
            for name in ("annulus", "spine-locus", "winding"):
                assert _outcome(calls[name]) == outcomes[name], name
