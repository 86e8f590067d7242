"""The diagonal-slice spine: the closed curve of parameters a where a critical value
of the member (n, a, t*a) lands on the unit circle, |t*a + 2*sqrt(a)| = 1 or
|t*a - 2*sqrt(a)| = 1, together with its bounding annulus radii and distance queries."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .family import np_principal_sqrt, principal_sqrt


@dataclass(frozen=True)
class SpineSpec:
    """Slice slope t (nonzero) and the theta-lattice size used by distance queries."""

    t: complex
    samples: int = 8192

    def __post_init__(self) -> None:
        t = complex(self.t)
        if t == 0:
            raise ValueError("t must be nonzero")
        if not cmath.isfinite(t):
            raise ValueError("t must be finite")
        object.__setattr__(self, "t", t)
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
    boundedness locus): 2/|t|**2 + 1/|t| -+ (2/|t|**2)*sqrt(1 + |t|)."""
    t = complex(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    x = abs(t)
    base = 2.0 / (x * x) + 1.0 / x
    spread = (2.0 / (x * x)) * math.sqrt(1.0 + x)
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


def spine_distance(s: SpineSpec, a: complex) -> float:
    """Sampled distance from a to the spine: the minimum of |a - p| over both branch
    curves on the theta lattice. Over-estimates the true distance by at most the
    local curve step."""
    return float(spine_distances(s, np.array([a]))[0])


def spine_distances(s: SpineSpec, a: np.ndarray) -> np.ndarray:
    """Vectorized spine_distance over an array of parameters. Each call builds one
    k-d tree over both branch curves; SciPy is imported here, so that only a distance
    query pays for it."""
    from scipy.spatial import cKDTree

    _, plus, minus = spine_points(s)
    pts = np.concatenate([plus, minus])
    xy = np.column_stack([pts.real, pts.imag])
    tree = cKDTree(xy, balanced_tree=False, compact_nodes=False)
    a = np.asarray(a, dtype=complex).ravel()
    d, _ = tree.query(np.column_stack([a.real, a.imag]))
    return d
