"""Polynomial root finding (simultaneous Aberth-Ehrlich iteration) and the
fixed-critical-point solvers that locate the principal cluster centers in both the
fixed-c and diagonal (c = t*a) parameter slices."""
from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import InconsistencyError, RootFindingError, check_memory_budget
from .family import (
    MapParams,
    check_exponent,
    check_modulus,
    check_slope_scale,
    fixed_point_residual,
    pow_int,
)
from .regions import WRegionSpec, sector_index

# Coefficients are given highest degree first, like numpy.polyval.
PolyCoeffs = Sequence[complex]

_MAX_SWEEPS = 200
# Peak bytes per d**2, measured with tracemalloc: 17 for one Aberth sweep (the d x d
# complex reciprocal matrix and its zero mask), 24 for the d x d comparison of the
# centers dedupe that follows it; the budget takes the larger.
_BYTES_PER_D2 = 24
# Relative tolerance within which the slice solvers count two a-values as one.
_DEDUPE_TOL = 1e-9


def poly_roots(coeffs: PolyCoeffs, tol: float = 1e-12) -> list[complex]:
    """All d roots (with multiplicity) of a degree-d polynomial, via simultaneous
    Aberth-Ehrlich iteration.

    Initial guesses sit evenly on the circle of radius |c_0/c_d|**(1/d), the geometric
    mean of the root moduli (radius 1 when the constant term is 0), at angles
    (2*pi*k + 0.7)/d, so output is reproducible. Each returned root r satisfies
    |p(r)| <= tol * max(1 + max_j |c_j|, sum_j |c_j| * |r|**j), a bound that grows
    with the terms evaluated at r (the moduli of large roots), else RootFindingError
    carries the residuals and bounds of up to three failing roots, worst first.
    Roots are sorted by (Re, Im).
    """
    c = [complex(x) for x in coeffs]
    if len(c) < 2:
        raise ValueError("need a polynomial of degree >= 1 (at least two coefficients)")
    if c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = len(c) - 1
    check_memory_budget(_BYTES_PER_D2 * d * d, f"root finding at degree {d}")
    coeff_arr = np.array(c, dtype=complex)
    max_mod = float(np.max(np.abs(coeff_arr)))
    monic = coeff_arr / coeff_arr[0]
    deriv = monic[:-1] * np.arange(d, 0, -1)

    radius = abs(c[-1] / c[0]) ** (1.0 / d) if c[-1] != 0 else 1.0
    z = radius * np.exp(1j * (2.0 * math.pi * np.arange(d) + 0.7) / d)

    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            pv = np.polyval(monic, z)
            dv = np.polyval(deriv, z)
            dv = np.where(dv == 0, 1e-300, dv)
            w = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            diff[diff == 0] = 1e-300
            s = np.divide(1.0, diff, out=diff).sum(axis=1) - 1.0
            del diff
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-300, denom)
            delta = w / denom
            z = z - delta
            if np.all(np.abs(delta) <= 1e-14 * (1.0 + np.abs(z))):
                break
        residuals = np.abs(np.polyval(coeff_arr, z))
        bound = tol * np.maximum(1.0 + max_mod, np.polyval(np.abs(coeff_arr), np.abs(z)))
        failing = np.flatnonzero(~(np.isfinite(residuals) & (residuals <= bound)))
        ratio = np.nan_to_num(residuals[failing] / bound[failing], nan=np.inf)
    if failing.size:
        worst = failing[np.argsort(-ratio, kind="stable")[:3]]
        raise RootFindingError(
            f"no convergence within {_MAX_SWEEPS} iterations: {failing.size} of {d} "
            f"roots fail; worst residuals {residuals[worst].tolist()} exceed bounds "
            f"{bound[worst].tolist()}"
        )
    return sorted((complex(r) for r in z), key=lambda r: (r.real, r.imag))


def _centers(n: int, coeffs: PolyCoeffs, param: str) -> list[tuple[complex, complex]]:
    """The slices' one centers pipeline: roots w != 0 of coeffs, paired with
    a = w**(2n); a pair is dropped when its a equals an already kept pair's a within
    relative _DEDUPE_TOL (|a - b| <= _DEDUPE_TOL * max(1, |a|, |b|)). The kept pairs are
    sorted by (Re a, Im a), where Re parts equal within that tolerance count as equal,
    so each conjugate pair of a-values is adjacent with Im a < 0 first. An a that is
    0 or not finite raises ValueError naming the slice's parameter, param ("c = ..."
    or "t = ...")."""
    pairs = [(w, pow_int(w, 2 * n)) for w in poly_roots(coeffs) if w != 0]
    if any(b == 0 or not cmath.isfinite(b) for _, b in pairs):
        raise ValueError(f"{param} puts a center's a = w**(2n) outside binary64: "
                         "0 or not finite")
    a = np.array([b for _, b in pairs], dtype=complex)
    scale = _DEDUPE_TOL * np.maximum(1.0, np.abs(a))
    # close[i, j]: pair j < i has an a-value within tolerance of pair i's
    close = np.tril(np.abs(a[:, None] - a[None, :]) <= np.maximum.outer(scale, scale), -1)
    keep = np.ones(a.size, dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):  # only pairs near an earlier one
        keep[i] = not (close[i] & keep).any()
    kept = np.flatnonzero(keep)
    by_re = kept[np.argsort(a.real[kept], kind="stable")]
    tied = np.diff(a.real[by_re]) <= np.maximum(scale[by_re[1:]], scale[by_re[:-1]])
    group = np.concatenate([[0], np.cumsum(~tied)])
    return [pairs[i] for i in by_re[np.lexsort((a.imag[by_re], group))]]


def fixed_critical_params(n: int, c: complex) -> list[WRegionSpec]:
    """Fixed critical points of the fixed-c slice: roots w of 2*w**n - w + c = 0, each
    giving the parameter a = w**(2n) whose member fixes its k-th critical point w.

    Returns one spec per distinct a (relative dedupe within _DEDUPE_TOL), sorted by
    (Re a, Im a). The count is asserted to equal n when |c| >= 1 (there the roots'
    a-values are provably distinct); below |c| = 1 the deduped count is returned as
    found, with no law enforced. A c refused by check_modulus, or one whose centers'
    a = w**(2n) are 0 or not finite, raises ValueError naming c.
    """
    check_exponent(n)
    c = check_modulus("c", c)
    if c == 0:
        raise ValueError("c must be nonzero")
    kept = _centers(n, [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j, c], f"c = {c!r}")
    if abs(c) >= 1.0 and len(kept) != n:
        raise InconsistencyError(
            f"expected {n} distinct fixed-critical parameters for |c| >= 1, found {len(kept)}"
        )
    return [
        WRegionSpec(c=c, n=n, j=j, w_j=w, a_j=a, k=sector_index(n, w, a))
        for j, (w, a) in enumerate(kept)
    ]


def diagonal_fixed_params(n: int, t: complex) -> list[tuple[complex, complex]]:
    """Fixed critical points of the diagonal slice c = t*a: roots w of
    t*w**(2n-1) + 2*w**(n-1) - 1 = 0 (the fixed-point condition 2*w**n + c = w with
    c = t*w**(2n), divided by w), each giving a = w**(2n).

    Returns the 2n-1 (w, a) pairs, w != 0, sorted by (Re a, Im a); every w passes
    family.fixed_point_residual for (n, a, t*a). A slope whose centers' a leave
    binary64 (check_slope_scale, or some a = w**(2n) 0 or not finite) raises
    ValueError naming t. Distinct roots give distinct a except at isolated t, so
    where the dedupe merges any (their a agree within _DEDUPE_TOL: the n roots with
    t*w**n near -2 at small |t|, the a near 0 at large |t|) the list would be
    incomplete, and InconsistencyError names t instead.
    """
    check_exponent(n)
    # For a small |t|, n of the roots have t*w**n near -2, so their a = w**(2n) is
    # near 4/|t|**2; where that overflows no sweep converges.
    t = check_slope_scale(t)
    coeffs = [t] + [0j] * (n - 1) + [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j]
    kept = _centers(n, coeffs, f"t = {t!r}")
    if len(kept) != 2 * n - 1:
        raise InconsistencyError(
            f"t = {t!r}: {2 * n - 1 - len(kept)} of the {2 * n - 1} centers have an "
            "a-value within the dedupe tolerance of another's, so the list is incomplete"
        )
    for w, a in kept:
        residual, bound = fixed_point_residual(MapParams(n, a, t * a), w)
        if not residual <= bound:
            raise InconsistencyError(
                f"diagonal root w = {w} is not fixed by (n={n}, a={a}, c=t*a): "
                f"residual {residual:.3e} exceeds {bound:.3e}"
            )
    return kept
