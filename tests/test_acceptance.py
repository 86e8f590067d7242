"""End-to-end acceptance gate.

Ten checks, one test each. Every test prints exactly one line

    ACCEPTANCE <k>: PASS/FAIL — <measured values>

before asserting, so the scorecard is visible even when a check fails. A FAIL here
is a measured fact about the implemented mathematics, not a broken test; the two
expected failures (1: the small-|c| center count, 2: boundary critical values
entering the open inner rectangle) are analyzed in the project notes and are left
red on purpose.
"""
import cmath
import math
import re
import time
from collections import Counter

import numpy as np

from mcmullen.family import (
    MapParams,
    PoleError,
    escape_radius,
    eval_map,
    inner_radius,
    iterate_orbits_bulk,
    principal_root,
    principal_sqrt,
)
from mcmullen.regions import l_c_rect, v_rect, w_region_contains
from mcmullen.render import FixedC, RenderConfig, Viewport, encode_ppm, render_slice
from mcmullen.solvers import fixed_critical_params
from mcmullen.spine import SpineSpec, spine_point, spine_radii
from mcmullen.verify import (
    verify_annulus_escape,
    verify_containment,
    verify_image_ellipse,
    verify_spine_locus,
    verify_winding,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _random_complex(rng: np.random.Generator, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    th = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


def test_01_center_counts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ring_bad = 0
    for n in (3, 4, 5, 8):
        for _ in range(50):
            c = _random_complex(rng, 1.0, 20.0)
            if len(fixed_critical_params(n, c)) != n:
                ring_bad += 1
    small_hist: dict[int, dict[int, int]] = {}
    small_ok = True
    for n in (3, 4, 5, 8):
        counter: Counter[int] = Counter()
        for _ in range(50):
            c = _random_complex(rng, 0.05, 1.0)
            counter[len(fixed_critical_params(n, c))] += 1
        small_hist[n] = dict(sorted(counter.items()))
        small_ok = small_ok and counter.get(n - 1, 0) == 50
    elapsed = time.perf_counter() - t0
    ok = ring_bad == 0 and small_ok and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"1<=|c|<=20: {200 - ring_bad}/200 draws give n rows; "
        f"0.05<=|c|<1: expected n-1 rows, observed row-count histogram per n = {small_hist}; "
        f"elapsed={elapsed:.2f}s (budget 5s)",
    )


def test_02_quadratic_restriction_hypotheses():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    containment_runs = 0
    containment_failed = 0
    worst_containment = math.inf
    windings: list[int] = []
    membership_failures: dict[str, int] = {}
    for n, c in ((4, 6j), (8, 6.0 + 0j)):
        for spec in fixed_critical_params(n, c):
            rect = v_rect(spec)
            for _ in range(20):
                r = rng.uniform(0.55, 1.9)
                th = rect.arg_center + rng.uniform(-0.9, 0.9) * rect.arg_halfwidth
                v = r * cmath.exp(1j * th)
                a = ((v - c) / 2.0) ** 2
                assert w_region_contains(spec, a)
                rep = verify_containment(MapParams(n, a, c), spec.k, 2000)
                containment_runs += 1
                if not rep.passed:
                    containment_failed += 1
                worst_containment = min(worst_containment, rep.worst_margin)
            wrep = verify_winding(spec, 4096)
            match = re.search(r"winding=(-?\d+)", wrep.params)
            windings.append(int(match.group(1)))
            membership_failures[f"n={n},j={spec.j}"] = wrep.failures
    winding_ok = all(w == 1 for w in windings)
    membership_ok = all(v == 0 for v in membership_failures.values())
    elapsed = time.perf_counter() - t0
    ok = containment_failed == 0 and winding_ok and membership_ok and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"containment passed {containment_runs - containment_failed}/{containment_runs} "
        f"(worst margin {worst_containment:.3e}); winding exactly 1 on all 12 sectors: {winding_ok}; "
        f"boundary critical values outside the open inner rectangle — violation counts "
        f"per sector at 4096 samples: {membership_failures}; "
        f"elapsed={elapsed:.2f}s (budget 30s)",
    )


def test_03_image_ellipse_geometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    runs = 0
    failures = 0
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        p = MapParams(n, _random_complex(rng, 0.2, 4.0), _random_complex(rng, 0.0, 5.0))
        for k in range(2 * n):
            rep = verify_image_ellipse(p, k, 1000)
            runs += 1
            failures += rep.failures
            worst = max(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and worst <= 1e-8 and elapsed < 5.0
    _verdict(
        3,
        ok,
        f"{runs} sector boundaries x 4000 samples each: {failures} deviations above 1e-8, "
        f"worst relative deviation {worst:.3e}; elapsed={elapsed:.2f}s (budget 5s)",
    )


def test_04_escape_growth_and_inner_escape():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    outer_bad = 0
    worst_ratio = math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in (3, 4, 5, 8):
            a = np.array([_random_complex(rng, 0.1, 4.0) for _ in range(2500)])
            c = np.array([_random_complex(rng, 0.0, 5.0) for _ in range(2500)])
            s = np.maximum(4.0, np.maximum(np.abs(a), np.abs(c)))
            z = (
                rng.uniform(1.0, 2.0, 2500)
                * s
                * np.exp(1j * rng.uniform(-math.pi, math.pi, 2500))
            )
            satisfied = np.ones(2500, dtype=bool)
            for m in range(1, 9):
                zn = z**n
                z = zn + a / zn + c
                mod = np.abs(z)
                # an orbit that blows past float range has certainly exceeded s**m
                step_ok = (mod > s**m) | ~np.isfinite(z)
                satisfied &= step_ok
                finite = np.isfinite(mod) & (mod > 0)
                if finite.any():
                    worst_ratio = min(worst_ratio, float((mod[finite] / s[finite] ** m).min()))
            outer_bad += int(np.count_nonzero(~satisfied))
    inner_bad = 0
    worst_inner_iters = 0
    for n in (3, 4, 5, 8):
        a = np.array([_random_complex(rng, 0.1, 4.0) for _ in range(2500)])
        c = np.array([_random_complex(rng, 0.0, 5.0) for _ in range(2500)])
        s = np.maximum(4.0, np.maximum(np.abs(a), np.abs(c)))
        t_in = np.abs(a) ** (1.0 / n) / s
        z0 = (
            rng.uniform(1e-9, 1.0, 2500)
            * t_in
            * np.exp(1j * rng.uniform(-math.pi, math.pi, 2500))
        )
        escaped, iters = iterate_orbits_bulk(n, a, c, z0, 100, s)
        inner_bad += int(np.count_nonzero(~escaped))
        if escaped.any():
            worst_inner_iters = max(worst_inner_iters, int(iters[escaped].max()))
    elapsed = time.perf_counter() - t0
    ok = outer_bad == 0 and inner_bad == 0 and elapsed < 5.0
    _verdict(
        4,
        ok,
        f"outer growth |R^m(z0)| > s^m for m<=8: {outer_bad}/10000 exceptions "
        f"(worst finite ratio {worst_ratio:.2f}); inner starts |z0| <= inner radius: "
        f"{inner_bad}/10000 failed to escape within 100 iterations "
        f"(slowest escape {worst_inner_iters} iterations); elapsed={elapsed:.2f}s (budget 5s)",
    )


def test_05_involution_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            a = _random_complex(rng, 0.1, 10.0)
            c = _random_complex(rng, 0.0, 10.0)
            z = (
                rng.uniform(0.05, 20.0, 1000)
                * np.exp(1j * rng.uniform(-math.pi, math.pi, 1000))
            )
            hz = principal_root(a, n) / z
            zn = z**n
            rz = zn + a / zn + c
            hn = hz**n
            rh = hn + a / hn + c
            rel = np.abs(rh - rz) / np.maximum(1.0, np.abs(rz))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(
        5,
        ok,
        f"R(a^(1/n)/z) = R(z) on 10000 samples, worst relative error {worst:.3e} "
        f"(tolerance 1e-10); elapsed={elapsed:.2f}s (budget 1s)",
    )


def test_06_spine_locus_concentration():
    t0 = time.perf_counter()
    fail_counts = {}
    for t in (0.8, 1.0, 2.0):
        rep = verify_spine_locus(20, t, 0.25, grid=200, max_iter=200)
        fail_counts[t] = rep.failures
    neg = verify_spine_locus(6, 1.0, 0.01, grid=200, max_iter=200)
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in fail_counts.values()) and neg.failures > 0 and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"n=20, eps=0.25, 200x200 grid: failures per t = {fail_counts}; "
        f"negative control n=6, eps=0.01: {neg.failures} failures (> 0 required); "
        f"elapsed={elapsed:.2f}s (budget 60s)",
    )


def test_07_spine_identity_and_radii():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.8, 1.0, 2.0, 1.0 + 0.5j):
        spec = SpineSpec(t)
        for branch in (1, -1):
            for theta in np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False):
                a = spine_point(spec, float(theta), branch)
                root = 2.0 * principal_sqrt(a)
                dev = min(abs(abs(t * a + root) - 1.0), abs(abs(t * a - root) - 1.0))
                worst = max(worst, dev)
    lo, hi = spine_radii(1.0)
    radii_err = max(abs(lo - (3.0 - 2.0 * math.sqrt(2.0))), abs(hi - (3.0 + 2.0 * math.sqrt(2.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and radii_err <= 1e-12 and elapsed < 1.0
    _verdict(
        7,
        ok,
        f"| |ta +- 2*sqrt(a)| - 1 | over 4096 curve points: worst {worst:.3e} (tolerance 1e-10); "
        f"radii at t=1 vs (3-2*sqrt(2), 3+2*sqrt(2)): error {radii_err:.3e} (tolerance 1e-12); "
        f"elapsed={elapsed:.2f}s (budget 1s)",
    )


def test_08_small_c_and_negative_c_containments():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    base = verify_containment(MapParams(3, 1.0, 0.2), 3, 1000)
    sweep_runs = 0
    sweep_failed = 0
    worst = base.worst_margin
    for modulus in (0.5, 1.0, 4.0):
        for ang in np.linspace(-math.pi, math.pi, 27)[1:-1]:
            a = modulus * cmath.exp(1j * float(ang))
            rep = verify_containment(MapParams(3, a, 0.15), 3, 800)
            sweep_runs += 1
            if not rep.passed:
                sweep_failed += 1
            worst = min(worst, rep.worst_margin)
    rect = l_c_rect(-2.0 + 0j, 0.1)
    lc_runs = 0
    lc_failed = 0
    for _ in range(40):
        r = rng.uniform(rect.r_inner, rect.r_outer)
        th = rect.arg_center + rng.uniform(-1.0, 1.0) * rect.arg_halfwidth
        a = r * cmath.exp(1j * th)
        assert abs(a) <= 4.0
        rep = verify_containment(MapParams(7, a, -2.0), 0, 800)
        lc_runs += 1
        if not rep.passed:
            lc_failed += 1
        worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0
    ok = base.passed and sweep_failed == 0 and lc_failed == 0 and elapsed < 10.0
    _verdict(
        8,
        ok,
        f"(n=3, a=1, c=0.2, k=3): passed={base.passed}; odd-n lower-half sweep over Arg(a) "
        f"at |a| in {{0.5, 1, 4}} (c=0.15, k=3): {sweep_runs - sweep_failed}/{sweep_runs} passed; "
        f"n=7 upper-half check for a near (c/2)^2 with c=-2, k=0: {lc_runs - lc_failed}/{lc_runs} "
        f"passed; worst margin {worst:.3e}; elapsed={elapsed:.2f}s (budget 10s)",
    )


def test_09_render_structure_and_determinism():
    t0 = time.perf_counter()
    vp = Viewport(-16.0, -3.0, -6.5, 6.5, 400, 400)
    cfg = RenderConfig()
    img1 = render_slice(4, FixedC(6j), vp, cfg)
    render_elapsed = time.perf_counter() - t0
    img2 = render_slice(4, FixedC(6j), vp, cfg)
    identical = encode_ppm(img1) == encode_ppm(img2)
    parity_hits = []
    strict_counts = []
    for spec in fixed_critical_params(4, 6j):
        col, row = vp.pixel_of(spec.a_j)
        channel = 0 if spec.k % 2 == 0 else 2
        neighborhood = [
            img1.at(col + dc, row + dr)
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if 0 <= col + dc < vp.width and 0 <= row + dr < vp.height
        ]
        parity_hits.append(any(px[channel] == 0 for px in neighborhood))
        strict_counts.append(sum(1 for px in neighborhood if px == cfg.bounded_color))
    elapsed = time.perf_counter() - t0
    ok = identical and all(parity_hits) and render_elapsed < 20.0
    _verdict(
        9,
        ok,
        f"400x400 render in {render_elapsed:.2f}s (budget 20s); two repeat renders' bytes "
        f"identical: {identical}; centers whose own critical orbit shows as a zero color "
        f"channel within 1px: {sum(parity_hits)}/4; pixels of the all-orbits-bounded color "
        f"within 1px of each center: {strict_counts} (the opposite critical orbit escapes "
        f"immediately at every center, so that color cannot appear there)",
    )


def test_10_annulus_escape():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    total_failures = 0
    worst = 1.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        p = MapParams(n, _random_complex(rng, 0.2, 4.0), _random_complex(rng, 0.0, 5.0))
        rep = verify_annulus_escape(p, grid=64)
        total_failures += rep.failures
        worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0
    ok = total_failures == 0 and elapsed < 10.0
    _verdict(
        10,
        ok,
        f"10 random parameter triples, 64x64 grid outside the orbit-trapping annulus: "
        f"{total_failures} non-escaping samples, worst unused iteration budget fraction "
        f"{worst:.3f}; elapsed={elapsed:.2f}s (budget 10s)",
    )
