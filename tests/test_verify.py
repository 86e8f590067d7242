"""Sampling-based certification checks and their report plumbing."""
import dataclasses
import math

import numpy as np
import pytest

from mcmullen import verify
from mcmullen.errors import HypothesisError, UnderSamplingError
from mcmullen.family import MapParams
from mcmullen.regions import WRegionSpec, ellipse_spec
from mcmullen.solvers import fixed_critical_params
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
    winding_turns,
)
from mcmullen.errors import MEMORY_BUDGET_BYTES
from mcmullen.verify import _SAMPLE_BYTES, _checked_winding


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
        # spine-locus and annulus grids, winding and containment sample counts
        for points in (300**2, 128**2, 65536, 2 * 200_000):
            assert points * _SAMPLE_BYTES < MEMORY_BUDGET_BYTES


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

    def test_winding_turns(self):
        loop = [np.exp(2j * np.pi * k / 64) for k in range(64)] + [1 + 0j]
        turns, max_step = winding_turns(loop)
        assert turns == pytest.approx(1.0, abs=1e-12)
        assert max_step == pytest.approx(2 * math.pi / 64, rel=1e-12)
        assert winding_turns([1 + 0j, 1 + 0j, 1 + 0j]) == (0.0, 0.0)
        with pytest.raises(ValueError):
            winding_turns([])

    def test_undersampling_guard(self):
        # a quarter-turn jump in one step is indistinguishable from aliasing
        deltas = np.array([1 + 0j, 1j, -1 + 0j, -1j, 1 + 0j])
        with pytest.raises(UnderSamplingError):
            _checked_winding(deltas)


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
