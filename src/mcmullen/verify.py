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
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    iterate_orbits_bulk,
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

# Estimated peak bytes per sample point of the orbit checks (annulus, spine-locus):
# the orbit kernel's arrays (at most about 200 B measured).
_SAMPLE_BYTES = 512

# The sampled geometry checks (image-ellipse, containment, winding) evaluate their
# samples _CHUNK at a time, so their temporaries stay in a core's cache and no
# complex temporary reaches NumPy's 256 KiB elision threshold (an elided product is
# evaluated in place with its operands swapped, which changes its bits). Their
# estimate is a fixed _CHUNK_BYTES for one chunk's temporaries (at most 1.25 MB
# measured, in winding) plus the bytes per sample of what they keep at full length:
# image-ellipse its four boundary pieces (22 B per point measured), containment its
# four boundary pieces (11 B per sample), winding its walk, v - xi and the winding
# sum's float passes (73 B per sample).
_CHUNK = 8192
_CHUNK_BYTES = _CHUNK * 256
_IMAGE_ELLIPSE_BYTES = 32
_CONTAINMENT_BYTES = 16
_WINDING_BYTES = 96


def _check_points(points: int, what: str) -> None:
    check_memory_budget(points * _SAMPLE_BYTES, what)


def _check_chunked(points: int, point_bytes: int, what: str) -> None:
    check_memory_budget(_CHUNK_BYTES + points * point_bytes, what)


def _chunks(*pieces: np.ndarray):
    """Consecutive slices of at most _CHUNK samples, piece after piece."""
    for piece in pieces:
        for i in range(0, piece.size, _CHUNK):
            yield piece[i:i + _CHUNK]


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


def _uprime_boundary_pieces(
    p: MapParams, k: int, per_piece: int, inset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample the four boundary pieces (outer arc, inner arc, two rays) of the open
    critical rectangle; inset > 0 pulls samples inward by that relative amount."""
    rect = u_prime_rect(p, k)
    r1, r2 = rect.r_inner, rect.r_outer
    dr = (r2 - r1) * inset
    da = rect.arg_halfwidth * inset
    lo = rect.arg_center - rect.arg_halfwidth + da
    hi = rect.arg_center + rect.arg_halfwidth - da
    arc = np.exp(1j * np.linspace(lo, hi, per_piece))
    rr = np.linspace(r1 + dr, r2 - dr, per_piece)
    outer = (r2 - dr) * arc
    inner = (r1 + dr) * arc
    ray_hi = rr * np.exp(1j * hi)
    ray_lo = rr * np.exp(1j * lo)
    return outer, inner, ray_hi, ray_lo


def verify_image_ellipse(p: MapParams, k: int, samples: int = 1000) -> VerificationReport:
    """Certify the image geometry of the k-th critical rectangle: the two boundary
    arcs map onto the ellipse boundary and the two boundary rays map onto the minor
    axis segment, within 1e-8 relative deviation. `samples` counts per boundary piece.
    """
    if samples < 16:
        raise ValueError(f"samples must be >= 16, got {samples}")
    _check_chunked(4 * samples, _IMAGE_ELLIPSE_BYTES,
                   f"image-ellipse with {samples} samples per piece")
    spec = ellipse_spec(p, 0)
    semi_major, semi_minor = spec.semi_major, spec.semi_minor
    outer, inner, ray_hi, ray_lo = _uprime_boundary_pieces(p, k, samples, inset=0.0)

    tol = 1e-8
    tested, failures, worst = 0, 0, []
    # The outer and inner arcs map onto the ellipse, the two rays onto its minor axis.
    for on_arc, pieces in ((True, (outer, inner)), (False, (ray_hi, ray_lo))):
        for z in _chunks(*pieces):
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
    _check_chunked(samples, _CONTAINMENT_BYTES, f"containment with {samples} samples")
    rect = u_prime_rect(p, k)
    half_sign = 1 if k % 2 == 0 else -1
    spec = ellipse_spec(p, half_sign)

    per = max(4, samples // 8)
    pieces = _uprime_boundary_pieces(p, k, per, inset=BOUNDARY_INSET)

    g = max(2, int(math.sqrt(max(samples - 4 * per, 4))))
    r_lattice = np.linspace(rect.r_inner, rect.r_outer, g + 2)[1:-1]
    t_lattice = np.linspace(
        rect.arg_center - rect.arg_halfwidth, rect.arg_center + rect.arg_halfwidth, g + 2
    )[1:-1]
    arc = np.exp(1j * t_lattice)
    rows = max(1, _CHUNK // g)
    interior = ((r_lattice[i:i + rows, None] * arc[None, :]).ravel() for i in range(0, g, rows))

    tested, failures, worst = 0, 0, []
    for z in itertools.chain(_chunks(*pieces), interior):
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


def winding_turns(deltas: Sequence[complex]) -> tuple[float, float]:
    """Accumulate wrapped argument increments around a closed loop of nonzero complex
    samples. Returns (total_turns, max_step_radians); a constant loop gives 0 turns."""
    d = np.asarray(deltas, dtype=complex)
    if d.size < 1:
        raise ValueError("need at least one sample")
    ang = np.angle(d)
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    return float(steps.sum() / (2.0 * math.pi)), float(np.max(np.abs(steps)))


def _checked_winding(deltas: np.ndarray) -> tuple[float, float]:
    turns, max_step = winding_turns(deltas)
    if max_step >= math.pi / 2.0:
        raise UnderSamplingError(
            f"largest argument step {max_step:.3f} rad >= pi/2; increase boundary_samples"
        )
    return turns, max_step


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
    axis. Raises UnderSamplingError if any argument step reaches pi/2.
    """
    if boundary_samples < 256:
        raise ValueError(f"boundary_samples must be >= 256, got {boundary_samples}")
    _check_chunked(boundary_samples, _WINDING_BYTES,
                   f"winding with {boundary_samples} boundary samples")
    n, c, wj = w.n, w.c, w.w_j
    rect = v_rect(w)
    r_in, r_out, th_c, hw = rect.r_inner, rect.r_outer, rect.arg_center, rect.arg_halfwidth
    lo, hi = th_c - hw, th_c + hw
    m = boundary_samples // 4
    th_fwd = np.linspace(lo, hi, m, endpoint=False)
    r_down = np.linspace(r_out, r_in, m, endpoint=False)
    th_bwd = np.linspace(hi, lo, m, endpoint=False)
    r_up = np.linspace(r_in, r_out, m, endpoint=False)
    v = np.concatenate(
        [
            r_out * np.exp(1j * th_fwd),
            r_down * np.exp(1j * hi),
            r_in * np.exp(1j * th_bwd),
            r_up * np.exp(1j * lo),
        ]
    )

    # v - xi over the whole walk, for one winding sum; everything else per chunk.
    deltas = np.empty_like(v)
    wjn = (wj - c) / 2.0
    failures, worst = 0, []
    for i in range(0, v.size, _CHUNK):
        vc = v[i:i + _CHUNK]
        half = (vc - c) / 2.0
        abs_half = np.abs(half)
        # The ellipse at each sample's parameter a(v) = ((v - c)/2)**2; for n >= 1024
        # its semi-axes overflow, which refuses the check at the first chunk.
        semi_major, semi_minor = ellipse_semi_axes(n, abs_half ** 2)
        xi = abs_half ** (1.0 / n) * np.exp(1j * (th_c + np.angle(half / wjn) / n))
        np.subtract(vc, xi, out=deltas[i:i + _CHUNK])

        # Membership of v in (half-ellipse including minor axis) minus the open critical
        # rectangle, at the pulled-back parameter a(v) of each sample.
        a_vals = half * half
        psi = np.angle(a_vals + 0.0)  # -0.0 + 0.0 is +0.0, as in np_principal_sqrt
        x, _, q, ell_margin = ellipse_frame(vc, c, psi / 2.0, semi_major, semi_minor)

        r1 = abs_half ** (2.0 / n) / 2.0
        rv = np.abs(vc)
        # conj(xi) first: the operand order of a complex product changes its bits.
        d_ang = np.abs(np.angle(np.conj(xi) * vc))
        depth = np.minimum(np.minimum(rv - r1, r_out - rv), (hw - d_ang) * rv)

        bad = (semi_minor <= 0.0) | ~np.isfinite(q)
        failures += int(np.count_nonzero(bad | (q >= 1.0) | (depth > 1e-9)))
        margins = np.minimum(np.minimum(ell_margin, -depth), np.abs(x))  # |x|: minor-axis distance
        worst.append(np.where(bad, -1.0, margins).min())
    turns, max_step = _checked_winding(deltas)
    winding = round(turns)
    if winding != 1:
        failures += 1
    if abs(turns - winding) >= 0.01:
        failures += 1
    return VerificationReport(
        check_name="winding",
        params=_fmt_params(
            n=n, c=c, j=w.j, k=w.k, winding=winding, turns=f"{turns:.6f}",
            max_step=f"{max_step:.6f}",
        ),
        samples=int(v.size),
        failures=failures,
        worst_margin=float(np.min(worst)),
    )


def verify_annulus_escape(p: MapParams, grid: int = 64, max_iter: int = 1000) -> VerificationReport:
    """Certify that every sampled orbit outside the annulus (inner radius, escape
    radius) escapes: grid**2 points split between an outer band [s*(1+1e-6), 2s] and
    an inner band (0, t*(1-1e-6)], each a radius x angle lattice. worst_margin is the
    smallest unused fraction of the iteration budget (-1 if a sample failed to escape).
    """
    if grid < 8:
        raise ValueError(f"grid must be >= 8, got {grid}")
    _check_points(grid * grid, f"annulus with grid {grid}")
    s = escape_radius(p)
    t = inner_radius(p)
    n_out = grid // 2
    n_in = grid - n_out
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    r_out = np.linspace(s * (1.0 + BOUNDARY_DILATION), 2.0 * s, n_out)
    r_in = np.geomspace(t * (1.0 - BOUNDARY_DILATION), t * 1e-3, n_in)
    radii = np.concatenate([r_out, r_in])
    z0 = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    escaped, iters = iterate_orbits_bulk(p.n, p.a, p.c, z0, max_iter, s)
    failures = int(np.count_nonzero(~escaped))
    slack = (max_iter + 1 - iters) / (max_iter + 1)
    margins = np.where(escaped, slack, -1.0)
    return VerificationReport(
        check_name="annulus",
        params=_fmt_params(n=p.n, a=p.a, c=p.c, grid=grid, max_iter=max_iter, s=s, t_inner=t),
        samples=int(z0.size),
        failures=failures,
        worst_margin=float(margins.min()),
    )


def verify_spine_locus(
    n: int, t: complex, eps: float, grid: int = 200, max_iter: int = 200
) -> VerificationReport:
    """Certify that the diagonal-slice boundedness locus is contained in the eps
    neighborhood of the spine: on a grid**2 polar lattice over the annulus
    (l(t)-eps, u(t)+eps), every parameter farther than eps from the sampled spine must
    have both critical orbits escape within max_iter. Near-spine lattice points are
    exempt (the claim says nothing about them) but still counted in `samples`. A
    lattice with no point beyond eps raises HypothesisError: it would certify
    nothing.
    """
    check_exponent(n)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if grid < 32:
        raise ValueError(f"grid must be >= 32, got {grid}")
    _check_points(grid * grid, f"spine-locus with grid {grid}")
    t = complex(t)
    lo_r, hi_r = spine_radii(t)
    r_lo = max(lo_r - eps, 1e-9 * max(1.0, hi_r))
    r_hi = hi_r + eps
    radii = np.linspace(r_lo, r_hi, grid)
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    a = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    tested = ~spine_within(SpineSpec(t), a, eps)
    a_t = a[tested]
    if a_t.size == 0:
        raise HypothesisError(
            f"no lattice point lies farther than eps = {eps!r} from the spine of "
            f"t = {t!r}: the check would test nothing"
        )
    (esc_p, it_p), (esc_m, it_m) = (iterate_orbits_bulk(n, a_, c_, z0, max_iter, thr)
                                    for a_, c_, z0, thr in critical_blocks(a_t, t * a_t))
    both = esc_p & esc_m
    slack = (max_iter + 1 - np.maximum(it_p, it_m)) / (max_iter + 1)
    return VerificationReport(
        check_name="spine-locus",
        params=_fmt_params(
            n=n, t=t, eps=eps, grid=grid, max_iter=max_iter,
            tested=int(np.count_nonzero(tested)), skipped=int(np.count_nonzero(~tested)),
        ),
        samples=int(a.size),
        failures=int(np.count_nonzero(~both)),
        worst_margin=float(np.where(both, slack, -1.0).min()),
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
