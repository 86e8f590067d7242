"""The diagonal-slice spine: the closed curve of parameters a where a critical value
of the member (n, a, t*a) lands on the unit circle, |t*a + 2*sqrt(a)| = 1 or
|t*a - 2*sqrt(a)| = 1, together with its bounding annulus radii, distance queries and
the within-eps test that spine-locus certification asks."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .family import check_slope_scale, np_principal_sqrt, principal_sqrt

# spine_within answers _CHUNK queries per pass, and its exact stage groups the curve
# samples into bounding blocks of _BLOCK and holds temporaries of at most _PASS
# elements, so its memory does not grow with the query count.
_CHUNK = 2048
_BLOCK = 64
_PASS = 2**15
# Relative rounding slack of spine_within's clearing bound: far above the few ulps
# by which sampling, evaluating v(q) and the distance formula can each err.
_SLACK = 2.0**-30


@dataclass(frozen=True)
class SpineSpec:
    """Slice slope t and the theta-lattice size used by distance queries. t is
    refused as spine_radii refuses it."""

    t: complex
    samples: int = 8192

    def __post_init__(self) -> None:
        spine_radii(self.t)
        object.__setattr__(self, "t", complex(self.t))
        if self.samples < 16:
            raise ValueError(f"samples must be >= 16, got {self.samples}")


def spine_point(s: SpineSpec, theta: float, branch: int) -> complex:
    """One point of the spine: a = 2/t**2 + exp(i*theta)/t + branch*(2/t**2)*sqrt(1 + t*exp(i*theta))
    with the principal square root. The two branches together cover the full curve."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if not 0.0 <= theta <= 2.0 * math.pi:
        raise ValueError(f"theta must be in [0, 2*pi], got {theta}")
    t = s.t
    e = cmath.exp(1j * theta)
    return 2.0 / (t * t) + e / t + branch * (2.0 / (t * t)) * principal_sqrt(1.0 + t * e)


def spine_radii(t: complex) -> tuple[float, float]:
    """Annulus radii (l, u) bounding the spine (and, for large n, the diagonal-slice
    boundedness locus): 2/|t|**2 + 1/|t| -+ (2/|t|**2)*sqrt(1 + |t|). Refuses t
    as check_slope_scale does; for every other t, u is finite."""
    x = abs(check_slope_scale(t))
    scale = 2.0 / (x * x)
    base = scale + 1.0 / x
    spread = scale * math.sqrt(1.0 + x)
    return base - spread, base + spread


def spine_points(s: SpineSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The theta lattice (s.samples values in [0, 2*pi)) and the two branch curves
    evaluated on it, as (theta, plus_branch, minus_branch) arrays."""
    theta = np.linspace(0.0, 2.0 * math.pi, s.samples, endpoint=False)
    t = s.t
    e = np.exp(1j * theta)
    spread = (2.0 / (t * t)) * np_principal_sqrt(1.0 + t * e)
    base = 2.0 / (t * t) + e / t
    return theta, base + spread, base - spread


def spine_distances(s: SpineSpec, a: np.ndarray) -> np.ndarray:
    """Sampled distance from each parameter to the spine: the minimum of |a - p| over
    both branch curves on the theta lattice, which over-estimates the true distance
    by at most the local curve step. Each call builds one k-d tree over both branch
    curves; SciPy is imported here, so that only a distance query pays for it."""
    from scipy.spatial import cKDTree

    _, plus, minus = spine_points(s)
    pts = np.concatenate([plus, minus])
    xy = np.column_stack([pts.real, pts.imag])
    tree = cKDTree(xy, balanced_tree=False, compact_nodes=False)
    a = np.asarray(a, dtype=complex).ravel()
    d, _ = tree.query(np.column_stack([a.real, a.imag]))
    return d


def spine_within(s: SpineSpec, a: np.ndarray, eps: float) -> np.ndarray:
    """Whether each parameter lies within eps of the sampled spine: equal, element by
    element, to spine_distances(s, a) <= eps, without a k-d tree. Sample theta has
    critical value exp(i*theta), which gives three stages per query q:

    1. Clear (a sound bound): with v(q) = t*q +- 2*sqrt(q), |v'| is at most
       L = |t +- q**-0.5| + r/(2*(|q| - r)**1.5) on the disc |a - q| <= r, so no
       curve point lies in that disc once ||v(q)| - 1| exceeds r*L for both signs.
       r is eps plus a rounding slack relative to max(1, |q|, outer spine radius).
    2. Witness (exact): the samples at index round(Arg v(q) / (2*pi/samples)) + -1..1
       on both branches, by the k-d tree's own formula sqrt(dx*dx + dy*dy) <= eps.
    3. Exact: every block of 64 consecutive samples whose bounding disc comes
       within r of q, by the same formula.

    Only stage 1 is a bound, and it only clears; whatever it leaves is decided by
    stages 2 and 3 on the samples themselves."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    a = np.asarray(a, dtype=complex).ravel()
    _, plus, minus = spine_points(s)
    curve = np.concatenate([plus, minus])
    if not (np.isfinite(a).all() and np.isfinite(curve).all()):
        raise ValueError("spine_within needs finite parameters and spine samples")
    # A repeated sample pads the last block; it changes no minimum and no `any`.
    blocks = np.concatenate([curve, np.repeat(curve[-1:], -curve.size % _BLOCK)])
    blocks = blocks.reshape(-1, _BLOCK)
    centres = blocks.mean(axis=1)
    reach = np.abs(blocks - centres[:, None]).max(axis=1)
    scale = max(1.0, spine_radii(s.t)[1])
    out = np.zeros(a.size, dtype=bool)
    for lo in range(0, a.size, _CHUNK):
        q = a[lo:lo + _CHUNK]
        r = eps + _SLACK * np.maximum(np.abs(q), scale)
        rest = np.flatnonzero(~_cleared(s.t, q, r))
        near = _witnessed(s.t, q[rest], plus, minus, eps)
        todo = rest[~near]
        near[~near] = _exact(q[todo], r[todo], blocks, centres, reach, eps)
        out[lo + rest] = near
    return out


def _close(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """|q - p| <= eps with cKDTree's distance formula, so that each answer agrees
    with spine_distances to the bit."""
    dx = q.real - p.real
    dy = q.imag - p.imag
    # Near the spine's slope limit the samples reach about 1e300 and a square can
    # overflow to inf. That only rejects, and the tree's formula overflows alike.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(dx * dx + dy * dy) <= eps


def _cleared(t: complex, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stage 1 of spine_within: queries with no curve point within r."""
    far = np.abs(q) > 2.0 * r
    # The rest stand in as 2r, which keeps q**-0.5 and (|q| - r)**-1.5 finite.
    q = np.where(far, q, 2.0 * r)
    root = np_principal_sqrt(q)
    # For |q| near the float limit a product can overflow. An inf, or the nan of
    # inf - inf, fails the `>` below, so it only leaves a query to the exact
    # stages. The curvature is written without the power (|q| - r)**1.5, which
    # overflows from |q| of about 1e205 on and would read 0, a low bound.
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(q) - r
        curvature = r / gap / (2.0 * np.sqrt(gap))
        rounding = 1.0 + np.abs(t * q) + 2.0 * np.abs(root)
        for sign in (1.0, -1.0):
            bound = r * (np.abs(t + sign / root) + curvature)
            margin = np.abs(np.abs(t * q + sign * 2.0 * root) - 1.0) - bound
            far &= margin > _SLACK * (rounding + bound)
    return far


def _witnessed(t: complex, q: np.ndarray, plus: np.ndarray, minus: np.ndarray,
               eps: float) -> np.ndarray:
    """Stage 2 of spine_within: queries with a sample within eps at the index their
    critical values' arguments point to."""
    samples = plus.size
    root = np_principal_sqrt(q)
    hit = np.zeros(q.size, dtype=bool)
    for sign in (1.0, -1.0):
        k = np.rint(np.angle(t * q + sign * 2.0 * root) * (samples / (2.0 * math.pi)))
        k = k.astype(np.intp)
        for dk in (-1, 0, 1):
            idx = (k + dk) % samples
            hit |= _close(q, plus[idx], eps) | _close(q, minus[idx], eps)
    return hit


def _exact(q: np.ndarray, r: np.ndarray, blocks: np.ndarray, centres: np.ndarray,
           reach: np.ndarray, eps: float) -> np.ndarray:
    """Stage 3 of spine_within: every sample of every block that can come within r."""
    hit = np.zeros(q.size, dtype=bool)
    rows, pairs = max(1, _PASS // centres.size), _PASS // _BLOCK
    for lo in range(0, q.size, rows):
        gap = np.abs(q[lo:lo + rows, None] - centres) - reach
        pq, pb = np.nonzero(gap <= r[lo:lo + rows, None])
        pq += lo
        for i in range(0, pq.size, pairs):
            qi = pq[i:i + pairs]
            found = _close(q[qi, None], blocks[pb[i:i + pairs]], eps).any(axis=1)
            hit[qi[found]] = True
    return hit
