"""Sampling-based certification of the quantitative claims: image geometry of the
critical rectangles, containment in the half-ellipse, winding of the tracked critical
value around its critical point, escape annuli, spine-neighborhood coverage, and the
sign classification of the lower critical value.

Every check is deterministic for fixed inputs (lattice sampling, no randomness) and
returns a VerificationReport; failures are counted, never hidden. The `params` field
is a `;`-separated key=value string so CSV rows need no quoting.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import HypothesisError, UnderSamplingError, check_memory_budget
from .family import (
    MapParams,
    _map_array,
    check_exponent,
    critical_blocks,
    critical_values,
    escape_radius,
    inner_radius,
    iterate_orbit_blocks,
)
from .regions import (
    WRegionSpec,
    ellipse_frame,
    ellipse_semi_axes,
    ellipse_spec,
    half_ellipse_membership,
    u_prime_rect,
    v_rect,
)
from .spine import SpineSpec, spine_radii, spine_within

# Relative inward inset for sampling the boundary of an open region whose exact
# boundary maps onto the assertion boundary, and relative dilation for keeping
# annulus samples strictly off circle boundaries.
BOUNDARY_INSET = 1e-6
BOUNDARY_DILATION = 1e-6

# Every sampled check takes its samples _CHUNK at a time, as points of polar
# lattices that _lattice forms chunk by chunk. The geometry checks (image-
# ellipse, containment, winding) evaluate each chunk's map and frame arithmetic,
# so their temporaries stay in a core's cache and no complex temporary reaches
# NumPy's 256 KiB elision threshold (an elided product is evaluated in place with
# its operands swapped, which changes its bits). The orbit checks (annulus,
# spine-locus) run each chunk through the orbit kernel as one block, spine-locus
# after spine_within. A check is charged _CHUNK_BYTES for one chunk's
# temporaries, the kernel's working set and spine_within's index and passes
# (tracemalloc: at most 3.4 MiB for a whole spine-locus check, at n 3, t 10, eps
# 1e-3, grid 160; 3.7 MiB for the kernel alone on 16,384-orbit blocks that all
# stay bounded), plus _LATTICE_BYTES a point for radii and angles kept at full
# length (at most 3.7 B a point above 2 MiB, image-ellipse at 1 M samples).
_CHUNK = 8192
_CHUNK_BYTES = _CHUNK * 512
_LATTICE_BYTES = 16


def _check_chunked(points: int, what: str) -> None:
    check_memory_budget(_CHUNK_BYTES + points * _LATTICE_BYTES, what)


def _lattice(radii, angles):
    """The polar lattice radii[i]*exp(1j*angles[j]), radius by radius and each
    radius's angles in order, at most _CHUNK points at a time."""
    radii, angles = np.asarray(radii), np.asarray(angles)
    if radii.size > 1 and angles.size <= _CHUNK:
        # the radii share one exp of the angles, which fits in a chunk
        phasors, rows = np.exp(1j * angles), _CHUNK // angles.size
        for i in range(0, radii.size, rows):
            yield (radii[i:i + rows, None] * phasors).ravel()
    else:
        # a radius at a time, each chunk's exp formed and dropped with its
        # product: a row longer than a chunk is not kept for the next radius
        for i in range(radii.size):
            for j in range(0, angles.size, _CHUNK):
                yield (radii[i:i + 1, None] * np.exp(1j * angles[j:j + _CHUNK])).ravel()


@dataclass(frozen=True)
class VerificationReport:
    """One check's outcome. worst_margin is signed: for containment-style checks it is
    the smallest distance-to-boundary over all samples (positive = inside with room);
    for on-boundary checks it is the largest deviation (small = good); for escape
    checks it is the smallest unused fraction of the iteration budget (-1 on a
    non-escaping sample). A check passes exactly when it has no failures."""

    check_name: str
    params: str
    samples: int
    failures: int
    worst_margin: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.worst_margin):
            raise ValueError("worst_margin must be finite")

    @property
    def passed(self) -> bool:
        return self.failures == 0


CSV_HEADER = "check,params,samples,failures,worst_margin,pass"


def reports_to_csv(reports: Iterable[VerificationReport]) -> str:
    """Render reports as CSV with a header row; deterministic for fixed inputs."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.check_name},{r.params},{r.samples},{r.failures},"
            f"{r.worst_margin!r},{'true' if r.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


def _fmt_params(**kv) -> str:
    parts = []
    for key, value in kv.items():
        if isinstance(value, complex):
            parts.append(f"{key}={_fmt_complex(value)}")
        elif isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return ";".join(parts)


def _uprime_boundary(p: MapParams, k: int, per_piece: int, inset: float):
    """The boundary of the open k-th critical rectangle as two _lattice streams: its
    outer and inner arcs, then its two rays, per_piece samples each; inset > 0
    pulls samples inward by that relative amount."""
    rect = u_prime_rect(p, k)
    r1, r2 = rect.r_inner, rect.r_outer
    dr = (r2 - r1) * inset
    da = rect.arg_halfwidth * inset
    lo = rect.arg_center - rect.arg_halfwidth + da
    hi = rect.arg_center + rect.arg_halfwidth - da
    return (_lattice([r2 - dr, r1 + dr], np.linspace(lo, hi, per_piece)),
            _lattice(np.linspace(r1 + dr, r2 - dr, per_piece), [hi, lo]))


def verify_image_ellipse(p: MapParams, k: int, samples: int = 1000) -> VerificationReport:
    """Certify the image geometry of the k-th critical rectangle: the two boundary
    arcs map onto the ellipse boundary and the two boundary rays map onto the minor
    axis segment, within 1e-8 relative deviation. `samples` counts per boundary piece.
    """
    if samples < 16:
        raise ValueError(f"samples must be >= 16, got {samples}")
    _check_chunked(4 * samples, f"image-ellipse with {samples} samples per piece")
    spec = ellipse_spec(p, 0)
    semi_major, semi_minor = spec.semi_major, spec.semi_minor
    arcs, rays = _uprime_boundary(p, k, samples, inset=0.0)

    tol = 1e-8
    tested, failures, worst = 0, 0, []
    # The outer and inner arcs map onto the ellipse, the two rays onto its minor axis.
    for on_arc, pieces in ((True, arcs), (False, rays)):
        for z in pieces:
            x, y, q, _ = ellipse_frame(
                _map_array(z, p.n, p.a, p.c), spec.center, spec.rotation, semi_major, semi_minor
            )
            if on_arc:
                devs = np.abs(q - 1.0)
            else:
                devs = np.maximum(np.abs(x) / semi_major,
                                  np.maximum(0.0, np.abs(y) - semi_minor) / semi_minor)
            tested += devs.size
            failures += int(np.count_nonzero(devs > tol))
            worst.append(devs.max())
    return VerificationReport(
        check_name="image-ellipse",
        params=_fmt_params(
            n=p.n, a=p.a, c=p.c, k=k, semi_major=semi_major, semi_minor=semi_minor, tol=tol
        ),
        samples=tested,
        failures=failures,
        worst_margin=float(np.max(worst)),
    )


def verify_containment(p: MapParams, k: int, samples: int = 2000) -> VerificationReport:
    """Certify that the open k-th critical rectangle maps into the half-ellipse of its
    parity (even k -> the half containing c + 2*sqrt(a), odd k -> the other).

    Boundary samples are pulled inward by a relative inset of 1e-6 (the rectangle is
    open and its exact boundary maps onto the half-ellipse boundary); the rest of the
    budget is an interior polar lattice. worst_margin is the smallest signed distance
    of any image from the half-ellipse boundary.
    """
    if samples < 16:
        raise ValueError(f"samples must be >= 16, got {samples}")
    _check_chunked(samples, f"containment with {samples} samples")
    half_sign = 1 if k % 2 == 0 else -1
    spec = ellipse_spec(p, half_sign)  # refuses n >= 1024 before u_prime_rect refuses a
    rect = u_prime_rect(p, k)

    per = max(4, samples // 8)
    g = max(2, int(math.sqrt(max(samples - 4 * per, 4))))
    interior = _lattice(
        np.linspace(rect.r_inner, rect.r_outer, g + 2)[1:-1],
        np.linspace(rect.arg_center - rect.arg_halfwidth, rect.arg_center + rect.arg_halfwidth,
                    g + 2)[1:-1],
    )

    tested, failures, worst = 0, 0, []
    for z in itertools.chain(*_uprime_boundary(p, k, per, BOUNDARY_INSET), interior):
        inside, margins = half_ellipse_membership(spec, _map_array(z, p.n, p.a, p.c))
        tested += z.size
        failures += int(np.count_nonzero(~inside))
        worst.append(margins.min())
    return VerificationReport(
        check_name="containment",
        params=_fmt_params(n=p.n, a=p.a, c=p.c, k=k, half=half_sign, inset=BOUNDARY_INSET),
        samples=tested,
        failures=failures,
        worst_margin=float(np.min(worst)),
    )


def _turns(angles: Iterable[np.ndarray]) -> tuple[float, float]:
    """(turns, max_step_radians) of a closed loop of nonzero complex samples, from
    their arguments chunk by chunk. A chunk's first step comes from the previous
    chunk's last angle, and the step from the last angle to the first closes the
    loop. Each step is wrapped into [-pi, pi) as (d + pi) mod 2*pi - pi, and only
    the running sum and largest modulus are kept, which a NaN step carries through.
    Raises UnderSamplingError if a step reaches pi/2."""
    total, max_step, first, last = 0.0, 0.0, None, None
    for ang in itertools.chain(angles, [None]):  # None: the closing step
        if ang is None:
            steps = np.array([first - last])
        else:
            steps = np.diff(ang) if first is None else np.diff(ang, prepend=last)
            first = ang[0] if first is None else first
            last = ang[-1]
        steps += math.pi
        np.remainder(steps, 2.0 * math.pi, out=steps)
        steps -= math.pi
        total += steps.sum()
        max_step = np.maximum(max_step, np.abs(steps, out=steps).max(initial=0.0))
    if max_step >= math.pi / 2.0:
        raise UnderSamplingError(
            f"largest argument step {max_step:.3f} rad >= pi/2; increase boundary_samples"
        )
    return float(total / (2.0 * math.pi)), float(max_step)


def verify_winding(w: WRegionSpec, boundary_samples: int = 4096) -> VerificationReport:
    """Certify that, as the parameter walks once around the boundary of the W region
    (the four segments in order: outer arc forward, ray down, inner arc backward, ray
    up, i.e. the boundary of the V rectangle pushed through a = ((v - c)/2)**2), the
    matching critical value winds exactly once around its critical point and stays in
    the half-ellipse minus the open critical rectangle.

    The walk parameterizes the critical value v directly on the V-rectangle boundary,
    and the critical point is tracked continuously from w_j via
    xi(v) = |(v-c)/2|**(1/n) * exp(i*(Arg w_j + Arg((v-c)/(w_j-c))/n)),
    which satisfies xi**n = (v-c)/2 exactly (so the map sends xi to v). Tracking in
    this frame is branch-free even when the parameter loop crosses the negative real
    axis, but it needs (v - c)/(w_j - c) in binary64: ValueError refuses the critical
    point near a small c (w_j - c, about 2*c**n, is 0 at n = 4 from |c| = 1e-6 down).
    Raises UnderSamplingError if any argument step reaches pi/2.
    """
    if boundary_samples < 256:
        raise ValueError(f"boundary_samples must be >= 256, got {boundary_samples}")
    _check_chunked(boundary_samples, f"winding with {boundary_samples} boundary samples")
    n, c, wj = w.n, w.c, w.w_j
    rect = v_rect(w)
    r_in, r_out, th_c, hw = rect.r_inner, rect.r_outer, rect.arg_center, rect.arg_halfwidth
    lo, hi = th_c - hw, th_c + hw
    m = boundary_samples // 4

    def walk():
        # each segment's radii and angles formed when the walk reaches it
        yield from _lattice([r_out], np.linspace(lo, hi, m, endpoint=False))
        yield from _lattice(np.linspace(r_out, r_in, m, endpoint=False), [hi])
        yield from _lattice([r_in], np.linspace(hi, lo, m, endpoint=False))
        yield from _lattice(np.linspace(r_in, r_out, m, endpoint=False), [lo])

    wjn = (wj - c) / 2.0
    if not abs(wjn) * sys.float_info.max > (r_out + abs(c)) / 2.0:  # |v - c| <= r_out + |c|
        raise ValueError(f"w_j - c = {wj - c!r} is too small: (v - c)/(w_j - c) overflows")
    failed, worst = [], []

    def angles():
        # each chunk's failures and worst margin, kept here, and the argument of v - xi
        for vc in walk():
            half = (vc - c) / 2.0
            abs_half = np.abs(half)
            # The ellipse at each sample's parameter a(v) = ((v - c)/2)**2; for n >= 1024
            # its semi-axes overflow, which refuses the check at the first chunk.
            semi_major, semi_minor = ellipse_semi_axes(n, abs_half ** 2)
            xi = abs_half ** (1.0 / n) * np.exp(1j * (th_c + np.angle(half / wjn) / n))

            # Membership of v in (half-ellipse including minor axis) minus the open
            # critical rectangle, at the pulled-back parameter a(v) of each sample.
            a_vals = half * half
            psi = np.angle(a_vals + 0.0)  # -0.0 + 0.0 is +0.0, as in np_principal_sqrt
            x, _, q, ell_margin = ellipse_frame(vc, c, psi / 2.0, semi_major, semi_minor)

            r1 = abs_half ** (2.0 / n) / 2.0
            rv = np.abs(vc)
            # conj(xi) first: the operand order of a complex product changes its bits.
            d_ang = np.abs(np.angle(np.conj(xi) * vc))
            depth = np.minimum(np.minimum(rv - r1, r_out - rv), (hw - d_ang) * rv)

            bad = (semi_minor <= 0.0) | ~np.isfinite(q)
            failed.append(int(np.count_nonzero(bad | (q >= 1.0) | (depth > 1e-9))))
            # |x|: the distance from the minor axis
            margins = np.minimum(np.minimum(ell_margin, -depth), np.abs(x))
            worst.append(np.where(bad, -1.0, margins).min())
            yield np.angle(vc - xi)

    turns, max_step = _turns(angles())
    winding = round(turns)
    failures = sum(failed) + (winding != 1)
    return VerificationReport(
        check_name="winding",
        params=_fmt_params(
            n=n, c=c, j=w.j, k=w.k, winding=winding, turns=f"{turns:.6f}",
            max_step=f"{max_step:.6f}",
        ),
        samples=4 * m,
        failures=failures,
        worst_margin=float(np.min(worst)),
    )


def _escape_margin(n, blocks, max_iter, orbits):
    """(failures, worst_margin) of the points in blocks, run through
    iterate_orbit_blocks. A block holds `orbits` runs of one orbit per point, a
    point's orbits at one index of each run, and a point fails when one of them
    stays bounded. worst_margin is -1 if a point failed, else the smallest unused
    fraction of the iteration budget: (max_iter + 1 - top)/(max_iter + 1) at the
    largest escape count top, since the fraction falls as the count grows."""
    failures, top = 0, 0
    for _, iters in iterate_orbit_blocks(n, blocks, max_iter):
        failures += int(np.count_nonzero(iters.reshape(orbits, -1).min(axis=0) < 0))
        top = max(top, int(iters.max()))
    return failures, -1.0 if failures else (max_iter + 1 - top) / (max_iter + 1)


def verify_annulus_escape(p: MapParams, grid: int = 64, max_iter: int = 1000) -> VerificationReport:
    """Certify that every sampled orbit outside the annulus (inner radius, escape
    radius) escapes: grid**2 points split between an outer band [s*(1+1e-6), 2s] and
    an inner band (0, t*(1-1e-6)], each a radius x angle lattice. worst_margin is the
    smallest unused fraction of the iteration budget (-1 if a sample failed to escape).
    A lattice whose radii leave binary64 (2s overflows, or t*1e-3 is not a normal
    float) raises ValueError. The lattice's orbits run through the orbit kernel
    one _lattice chunk a block, and only each block's failures and largest escape
    count are kept; counts do not depend on the split, so neither does the report.
    """
    if grid < 8:
        raise ValueError(f"grid must be >= 8, got {grid}")
    _check_chunked(grid * grid, f"annulus with grid {grid}")
    s = escape_radius(p)
    t = inner_radius(p)
    if not 2.0 * s < math.inf:
        raise ValueError(f"s = {s!r} is too large: the outer band's radius 2s overflows binary64")
    if not t * 1e-3 >= sys.float_info.min:
        raise ValueError(f"t_inner = {t!r} is too small: the inner band's radius t_inner*1e-3 "
                         "is not a normal binary64 number")
    radii = np.concatenate([np.linspace(s * (1.0 + BOUNDARY_DILATION), 2.0 * s, grid // 2),
                            np.geomspace(t * (1.0 - BOUNDARY_DILATION), t * 1e-3, grid - grid // 2)])
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    blocks = ((np.full(z.size, p.a), np.full(z.size, p.c), z, np.full(z.size, s))
              for z in _lattice(radii, theta))
    failures, worst = _escape_margin(p.n, blocks, max_iter, 1)
    return VerificationReport(
        check_name="annulus",
        params=_fmt_params(n=p.n, a=p.a, c=p.c, grid=grid, max_iter=max_iter, s=s, t_inner=t),
        samples=grid * grid,
        failures=failures,
        worst_margin=worst,
    )


def verify_spine_locus(
    n: int, t: complex, eps: float, grid: int = 200, max_iter: int = 200
) -> VerificationReport:
    """Certify that the diagonal-slice boundedness locus is contained in the eps
    neighborhood of the spine: on a grid**2 polar lattice over the annulus
    (l(t)-eps, u(t)+eps), every parameter farther than eps from the sampled spine must
    have both critical orbits escape within max_iter. Near-spine lattice points are
    exempt (the claim says nothing about them) but still counted in `samples`. An
    eps for which 4*eps, which bounds spine_within's clearing diameter, or
    2|t|(u(t) + eps), which bounds c = t*a and the critical values on the
    lattice, overflows binary64 raises ValueError. Each _lattice chunk's tested
    points give one orbit-kernel block of their two critical orbits, and only
    the tested count and each block's failures and largest escape count are
    kept; none depends on the split, so neither does the report. A scan that
    tested no point raises HypothesisError after it: it certified nothing.
    """
    check_exponent(n)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if grid < 32:
        raise ValueError(f"grid must be >= 32, got {grid}")
    _check_chunked(grid * grid, f"spine-locus with grid {grid}")
    t = complex(t)
    lo_r, hi_r = spine_radii(t)
    r_lo = max(lo_r - eps, 1e-9 * max(1.0, hi_r))
    r_hi = hi_r + eps
    if not (4.0 * eps < math.inf and 2.0 * abs(t) * r_hi < math.inf):
        raise ValueError(f"eps = {eps!r} is too large: 4*eps or 2|t|(u(t) + eps), which bound "
                         "spine_within's clearing diameter and c = t*a, overflows binary64")
    spec, count = SpineSpec(t), 0

    def blocks():
        # a block per chunk: its tested points' v_plus orbits, then their v_minus
        nonlocal count
        for a in _lattice(np.linspace(r_lo, r_hi, grid),
                          np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)):
            a = a[~spine_within(spec, a, eps)]
            count += a.size
            if a.size:
                yield tuple(map(np.concatenate, zip(*critical_blocks(a, t * a))))

    failures, worst = _escape_margin(n, blocks(), max_iter, 2)
    if count == 0:
        raise HypothesisError(
            f"no lattice point lies farther than eps = {eps!r} from the spine of "
            f"t = {t!r}: the check would test nothing"
        )
    return VerificationReport(
        check_name="spine-locus",
        params=_fmt_params(
            n=n, t=t, eps=eps, grid=grid, max_iter=max_iter,
            tested=count, skipped=grid * grid - count,
        ),
        samples=grid * grid,
        failures=failures,
        worst_margin=worst,
    )


def verify_vminus_sign(n: int, a: float, c: float) -> VerificationReport:
    """Classify real (a, c) into the three claimed sign regimes for the lower critical
    value v_minus = c - 2*sqrt(a), and record whether the directly computed sign
    matches the regime's claim. Mismatches are counted, not hidden, and the narrower
    c-bound c < a**(1/n)/max(4, a, c) is recorded in params rather than enforced.

    Regimes (a_star = (1/4)**(n/(n-1))):
      1: a > a_star            -> claims v_minus > 0
      2: a <= a_star, c < 2*sqrt(a) -> claims v_minus > 0
      3: a <= a_star, c >= 2*sqrt(a) -> claims v_minus <= 0

    As transcribed, regime 2 never passes (c < 2*sqrt(a) makes v_minus < 0) and
    regime 3 passes only at v_minus = 0; whether that is the paper's reading is
    open (ROADMAP direction 4).
    """
    check_exponent(n)
    a = float(a)
    c = float(c)
    if not 0.0 < a <= 4.0:
        raise HypothesisError(f"requires 0 < a <= 4, got a = {a}")
    if not c > 0.0:
        raise HypothesisError(f"requires c > 0, got c = {c}")
    a_star = 0.25 ** (n / (n - 1.0))
    p = MapParams(n, a, c)
    v = critical_values(p)[1].real
    if a > a_star:
        regime = 1
    elif v < 0.0:  # exactly when c < 2*sqrt(a): a float difference keeps the sign
        regime = 2
    else:
        regime = 3
    claim_positive = regime in (1, 2)
    match = (v > 0.0) if claim_positive else (v <= 0.0)
    margin = v if claim_positive else -v
    c_bound = inner_radius(p)
    return VerificationReport(
        check_name="vminus-sign",
        params=_fmt_params(
            n=n, a=a, c=c, regime=regime,
            claim="positive" if claim_positive else "nonpositive",
            v_minus=v, c_bound_ok=str(c < c_bound).lower(),
        ),
        samples=1,
        failures=0 if match else 1,
        worst_margin=float(margin),
    )
