"""Polynomial root finding (simultaneous Aberth-Ehrlich iteration) and the
fixed-critical-point solvers that locate the principal cluster centers in both the
fixed-c and diagonal (c = t*a) parameter slices."""
from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

import numpy as np

from .errors import InconsistencyError, RootFindingError, check_memory_budget
from .family import (
    _U,
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
# Peak bytes per d**2 of a centers solve, measured with tracemalloc: 17.2, 16.5 and
# 16.3 at d = 600, 1000 and 1500, nearly all of it the one d x d complex reciprocal
# matrix that _poly_roots reuses across its sweeps (the dedupe after it is O(d)).
_BYTES_PER_D2 = 18
# Relative tolerance within which the slice solvers count two a-values as one.
_DEDUPE_TOL = 1e-9
# Relative residual bound of an accepted root (see _centers).
_ROOT_TOL = 1e-12
# The |c| from which the fixed-c centers' a, about |c|**2/4, is at least twice
# the float limit, so a component of it overflows: about 3.79e154.
_MAX_CENTER_C = 4.0 * math.sqrt(sys.float_info.max / 2.0)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, x) for coefficients and x of one dtype, by the same
    operations in place, less the additions of zero coefficients, of which the
    slice polynomials (trinomials) are mostly made."""
    y = np.zeros_like(x)
    for coeff in coeffs.tolist():
        np.multiply(y, x, out=y)
        if coeff:
            y += coeff
    return y


def _horner_steps(monic: np.ndarray) -> list[tuple[complex, complex]]:
    """The Horner coefficients of a monic p and of p', paired by step for
    _sweep_values: p' runs one step behind p, so its first step adds nothing."""
    d = monic.size - 1
    deriv = monic[:-1] * np.arange(d, 0, -1)
    return list(zip(monic.tolist(), [0j] + deriv.tolist()))


def _sweep_values(steps: list[tuple[complex, complex]], z: np.ndarray):
    """(p(z), p'(z)) as the two _horner calls give them, bit for bit, from one Horner
    pass over an array that holds p in its first half and p' in its second: one
    multiply per step, and each half's coefficient added only where it is nonzero."""
    d = z.size
    y = np.zeros(2 * d, dtype=complex)
    zz = np.concatenate([z, z])
    pv, dv = y[:d], y[d:]
    for coeff, coeff_d in steps:
        np.multiply(y, zz, out=y)
        if coeff:
            pv += coeff
        if coeff_d:
            dv += coeff_d
    return pv, dv


def _sweep_sums(z: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for each i, with diff as the d x d scratch matrix.
    An exact zero z_i - z_j counts as 1e-300; only a row whose sum comes out not
    finite can hold one, so only such rows are summed again with that substitution."""
    np.subtract(z[:, None], z[None, :], out=diff)
    np.fill_diagonal(diff, 1.0)
    s = np.divide(1.0, diff, out=diff).sum(axis=1)
    for i in np.flatnonzero(~np.isfinite(s)):
        row = z[i] - z
        row[i] = 1.0
        row[row == 0] = 1e-300
        s[i] = np.divide(1.0, row, out=row).sum()
    s -= 1.0
    return s


def _seeds(c: list[complex]) -> np.ndarray:
    """Aberth's d starting points for the coefficients c (highest degree first), read
    off the upper convex hull of the points (m, log|c_m|), c_m the nonzero
    coefficient of w**m (Bini 1996). An edge from power i to power k stands for
    k - i roots of modulus about |c_i/c_k|**(1/(k-i)), taken in logs so that no
    ratio overflows; adjacent edges whose radii differ by less than a factor 4
    form one group. A lone edge's seeds are the roots of its binomial
    c_k w**(k-i) + c_i, a group's sit at angles (2*pi*j + 0.7)/(k-i) on its
    circle. A group spanning the whole degree, or a zero constant term, gives the
    one circle of radius |c_0/c_d|**(1/d) (1 for a zero c_0) bit for bit, so the
    rows of such slices (the diagonal at t = 2) do not move."""
    d = len(c) - 1
    if c[-1] == 0:
        return np.exp(1j * (2.0 * math.pi * np.arange(d) + 0.7) / d)
    hull: list[tuple[int, float]] = []
    for p in [(m, math.log(abs(x))) for m, x in enumerate(reversed(c)) if x]:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    log_r = [(y0 - y1) / (m1 - m0) for (m0, y0), (m1, y1) in zip(hull, hull[1:])]
    groups = [[0, 1]]  # hull indices [first, last] of each group of edges
    for e in range(1, len(log_r)):
        if abs(log_r[e] - log_r[e - 1]) < math.log(4.0):
            groups[-1][1] = e + 1
        else:
            groups.append([e, e + 1])
    parts = []
    for first, last in groups:
        (i, yi), (k, yk) = hull[first], hull[last]
        j = np.arange(k - i)
        radius = math.exp((yi - yk) / (k - i))
        if last == first + 1:
            turn = cmath.phase(-c[d - i]) - cmath.phase(c[d - k]) + 2.0 * math.pi * j
        else:
            turn = 2.0 * math.pi * j + 0.7
            if k - i == d and 0 < abs(c[-1] / c[0]) < math.inf:
                radius = abs(c[-1] / c[0]) ** (1.0 / d)
        parts.append(radius * np.exp(1j * turn / (k - i)))
    return np.concatenate(parts)


def _poly_roots(coeffs: PolyCoeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All d roots (with multiplicity) of a degree-d polynomial, via simultaneous
    Aberth-Ehrlich iteration, with the one Horner pair that judges them:
    (roots, |p(r)|, sum_j |c_j| * |r|**j), each sorted by the roots' (Re, Im).

    Initial guesses are read off the Newton polygon of the coefficients (_seeds),
    with no randomness: 4 sweeps at the fixed-c trinomial with c = 6i, n = 48 to 190,
    against 14-16 from one circle. Each sweep evaluates p and p' in one
    Horner pass (_sweep_values) and fills one d x d reciprocal matrix, allocated once
    per call (_sweep_sums). The roots are returned after at most _MAX_SWEEPS sweeps,
    whatever they read: the caller holds them to its residual rule (_centers).
    """
    c = [complex(x) for x in coeffs]
    if len(c) < 2:
        raise ValueError("need a polynomial of degree >= 1 (at least two coefficients)")
    if c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    d = len(c) - 1
    check_memory_budget(_BYTES_PER_D2 * d * d, f"root finding at degree {d}")
    coeff_arr = np.array(c, dtype=complex)
    monic = coeff_arr / coeff_arr[0]
    steps = _horner_steps(monic)
    diff = np.empty((d, d), dtype=complex)

    z = _seeds(c)

    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            pv, dv = _sweep_values(steps, z)
            dv = np.where(dv == 0, 1e-300, dv)
            w = pv / dv
            s = _sweep_sums(z, diff)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-300, denom)
            delta = w / denom
            z = z - delta
            if np.all(np.abs(delta) <= 1e-14 * (1.0 + np.abs(z))):
                break
        residuals = np.abs(_horner(coeff_arr, z))
        terms = _horner(np.abs(coeff_arr), np.abs(z))
    order = np.lexsort((z.imag, z.real))
    return z[order], residuals[order], terms[order]


def _root_radii(c: PolyCoeffs, z: np.ndarray, residual: np.ndarray,
                terms: np.ndarray) -> np.ndarray:
    """Radii r with exactly one root of p = sum_m c_m w**m (c highest degree first)
    in each disc |w - z_i| < r_i, inf where that is not proved, from _poly_roots'
    residual |p(z)| and terms sum_m |c_m| |z|**m. By Rouche against p'(z) h: with
    B >= |p(z)|, D <= |p'(z)| and Q(r) = sum_{m>=2} |c_m| C(m, 2) (|z| + r)**(m-2),
    the radius r = 2B/D holds one root when D r > B + Q(r) r**2. B adds Horner's
    rounding (relative 8(d + 1)u of the terms, plus an absolute part for
    underflow) to the residual, D takes p' over the nonzero terms less its
    rounding, and every bound is rounded up (D down). O(d) per root."""
    d = len(c) - 1
    monomials = [(d - k, x) for k, x in enumerate(c) if x != 0]
    with np.errstate(all="ignore"):
        az = np.abs(z) * (1 + 2 * _U)
        tiny = (d + 2) * 2.0**-1070 * (1.0 + az**d)
        b = (residual * (1 + 2 * _U) + 8 * (d + 1) * _U * terms + tiny) * (1 + 8 * _U)
        dp = sum(m * x * (pow_int(z, m - 1) if m > 1 else 1) for m, x in monomials if m)
        dmod = sum(m * abs(x) * az ** (m - 1) for m, x in monomials if m)
        dlow = np.abs(dp) * (1 - 8 * _U) - 2 * (8 * (d + 2) * _U * dmod + tiny)
        dlow *= 1 - 4 * _U
        r = 2 * b / dlow
        q = sum(abs(x) * (m * (m - 1) // 2) * (az + r) ** (m - 2)
                for m, x in monomials if m > 1) * (1 + 8 * (d + 2) * _U)
        proved = (dlow > 0) & (dlow * r * (1 - 4 * _U) > (b + q * r * r) * (1 + 8 * _U))
    return np.where(proved, r, np.inf)


def _a_radii(n: int, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Radii that hold, about each pow_int(z_i, 2n), the a = w**(2n) of every w with
    |w - z_i| < r_i: 2n r (|z| + r)**(2n-1) for the move of w, plus pow_int's
    rounding ((1 + 3u)**(2n-1) - 1)|z|**(2n) and its absolute part (family's
    rounding comment), rounded up."""
    m = 2 * n
    with np.errstate(all="ignore"):
        az = np.abs(z) * (1 + 2 * _U)
        power = az ** (m - 1)
        moved = m * r * (az + r) ** (m - 1)
        rounding = math.expm1((m - 1) * math.log1p(3 * _U)) * power * az
        tiny = m * 2.0**-1070 * (1.0 + power)
        return (moved + rounding + tiny) * (1 + 8 * (m + 2) * _U)


def _dedupe(a: np.ndarray, scale: np.ndarray, by_re: np.ndarray,
            radius: np.ndarray) -> np.ndarray:
    """Which a-values to keep: each, in index order, unless |a_i - a_j| <=
    max(scale_i, scale_j) and <= radius_i + radius_j (the discs meet) for an
    earlier kept a_j. by_re sorts a by Re. A close pair is at most max(scale)
    apart in Re, and the Re gap of pairs k places apart in by_re only grows with
    k, so offsets k = 1, 2, ... are compared until one has no pair within
    max(scale) in Re: O(d log d) for a-values spread out in Re."""
    re, reach = a.real[by_re], scale.max(initial=0.0)
    later, earlier = [], []
    for k in range(1, a.size):
        near = np.flatnonzero(re[k:] - re[:-k] <= reach)
        if not near.size:
            break
        i, j = by_re[near + k], by_re[near]
        gap = np.abs(a[i] - a[j])
        close = (gap <= np.maximum(scale[i], scale[j])) & (gap <= radius[i] + radius[j])
        later.extend(np.maximum(i, j)[close].tolist())
        earlier.extend(np.minimum(i, j)[close].tolist())
    keep = np.ones(a.size, dtype=bool)
    for i, j in sorted(zip(later, earlier)):  # keep[j], j < i, is final at i
        if keep[j]:
            keep[i] = False
    return keep


Row = tuple[complex, complex, int, float]  # a center row: (w, a, k, residual)


def _centers(n: int, c: complex | None = None, t: complex | None = None) -> list[Row]:
    """The slices' one path from roots to center rows, for the roots w of
    2*w**n - w + c (c given) or t*w**(2n-1) + 2*w**(n-1) - 1 (t given); errors
    name "c = ..." or "t = ...". One residual rule: every root, 0 included, needs
    a finite |p(w)| <= _ROOT_TOL * sum_j |c_j| |w|**j (_poly_roots' Horner pair),
    else RootFindingError lists up to three failing roots, worst (nan) first.
    Each w != 0 gives a = w**(2n), and an a that is 0 or not finite raises
    ValueError. A pair is dropped when its a equals an already kept pair's a
    within relative _DEDUPE_TOL (|a - b| <= _DEDUPE_TOL * max(1, |a|, |b|)) and
    their a-discs (_root_radii mapped by _a_radii) meet, compared only with its
    neighbours in Re order (_dedupe): disjoint discs prove distinct a-values. The
    kept pairs are sorted by (Re a, Im a), where Re parts equal within that
    tolerance count as equal, so each conjugate pair of a-values is adjacent with
    Im a < 0 first. Each gives the row (w, a, sector_index(n, w, a), residual),
    whose family.fixed_point_residual for (n, a, c or t*a) above its bound
    raises InconsistencyError."""
    if t is None:
        param = f"c = {c!r}"
        coeffs = [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j, c]
    else:
        param = f"t = {t!r}"
        coeffs = [t] + [0j] * (n - 1) + [2.0 + 0j] + [0j] * (n - 2) + [-1.0 + 0j]
    roots, p_abs, terms = _poly_roots(coeffs)
    with np.errstate(all="ignore"):
        limit = _ROOT_TOL * terms
        failing = np.flatnonzero(~(np.isfinite(p_abs) & (p_abs <= limit)))
        ratio = np.nan_to_num(p_abs[failing] / limit[failing], nan=np.inf)
    if failing.size:
        worst = failing[np.argsort(-ratio, kind="stable")[:3]]
        raise RootFindingError(
            f"{param}: no convergence within {_MAX_SWEEPS} iterations: {failing.size} of "
            f"{roots.size} roots fail; worst residuals {p_abs[worst].tolist()} exceed "
            f"bounds {limit[worst].tolist()}"
        )
    nonzero = roots != 0
    pairs = [(w, pow_int(w, 2 * n)) for w in roots[nonzero].tolist()]
    if any(b == 0 or not cmath.isfinite(b) for _, b in pairs):
        raise ValueError(f"{param} puts a center's a = w**(2n) outside binary64: "
                         "0 or not finite")
    r = _root_radii(coeffs, roots, p_abs, terms)
    radius = _a_radii(n, roots[nonzero], r[nonzero])
    a = np.array([b for _, b in pairs], dtype=complex)
    scale = _DEDUPE_TOL * np.maximum(1.0, np.abs(a))
    by_re = np.argsort(a.real, kind="stable")
    by_re = by_re[_dedupe(a, scale, by_re, radius)[by_re]]
    tied = np.diff(a.real[by_re]) <= np.maximum(scale[by_re[1:]], scale[by_re[:-1]])
    group = np.concatenate([[0], np.cumsum(~tied)])
    rows = []
    for w, b in (pairs[i] for i in by_re[np.lexsort((a.imag[by_re], group))]):
        k = sector_index(n, w, b)
        residual, bound = fixed_point_residual(MapParams(n, b, c if t is None else t * b), w)
        if not residual <= bound:
            raise InconsistencyError(f"{param}: root w = {w!r} is not fixed by its member "
                                     f"a = {b!r}: residual {residual:.3e} > {bound:.3e}")
        rows.append((w, b, k, residual))
    return rows


def _fixed_rows(n: int, c: complex) -> list[Row]:
    """fixed_critical_params' rows, from _centers after the checks of n and c."""
    check_exponent(n)
    c = check_modulus("c", c)
    if c == 0:
        raise ValueError("c must be nonzero")
    if abs(c) >= _MAX_CENTER_C:
        raise ValueError(f"c = {c!r} is too large: the centers' a, about |c|**2/4, "
                         "overflows binary64")
    rows = _centers(n, c=c)
    if abs(c) >= 1.0 and len(rows) != n:
        raise InconsistencyError(
            f"expected {n} distinct fixed-critical parameters for |c| >= 1, found {len(rows)}"
        )
    return rows


def fixed_critical_params(n: int, c: complex) -> list[WRegionSpec]:
    """Fixed critical points of the fixed-c slice: roots w of 2*w**n - w + c = 0, each
    giving the parameter a = w**(2n) whose member fixes its k-th critical point w.

    Returns one spec per row of _centers (one per distinct a, sorted by (Re a, Im a)).
    The count is asserted to equal n when |c| >= 1 (there the roots' a-values are
    provably distinct); below |c| = 1 the deduped count is returned as found, with
    no law enforced. A c refused by check_modulus, or one whose centers' a = w**(2n)
    are 0 or not finite (the root near a tiny c gives an a that underflows), raises
    ValueError naming c; from |c| = _MAX_CENTER_C that is before solving, since near
    the float limit the Aberth sweep itself overflows.
    """
    return [WRegionSpec(c=c, n=n, j=j, w_j=w, a_j=a, k=k)
            for j, (w, a, k, _) in enumerate(_fixed_rows(n, c))]


def diagonal_fixed_params(n: int, t: complex) -> list[tuple[complex, complex]]:
    """Fixed critical points of the diagonal slice c = t*a: roots w of
    t*w**(2n-1) + 2*w**(n-1) - 1 = 0 (the fixed-point condition 2*w**n + c = w with
    c = t*w**(2n), divided by w), each giving a = w**(2n).

    Returns the 2n-1 (w, a) pairs, w != 0, sorted by (Re a, Im a): _centers' rows
    less their k and residual, so every w has passed family.fixed_point_residual
    for (n, a, t*a). A slope whose centers' a leave binary64 (check_slope_scale, or
    some a = w**(2n) 0 or not finite) raises ValueError naming t. Distinct roots give
    distinct a except at isolated t, so where the dedupe merges any (their a agree
    within _DEDUPE_TOL and their a-discs meet: the n roots with t*w**n near -2 at
    small |t|) the list would be incomplete, and InconsistencyError names t instead.
    """
    return [(w, a) for w, a, _, _ in _diagonal_rows(n, t)]


def _diagonal_rows(n: int, t: complex) -> list[Row]:
    """diagonal_fixed_params' rows, from _centers after the checks of n and t."""
    check_exponent(n)
    # For a small |t|, n of the roots have t*w**n near -2, so their a = w**(2n) is
    # near 4/|t|**2; where that overflows no sweep converges.
    t = check_slope_scale(t)
    rows = _centers(n, t=t)
    if len(rows) != 2 * n - 1:
        raise InconsistencyError(
            f"t = {t!r}: {2 * n - 1 - len(rows)} of the {2 * n - 1} centers have an "
            "a-value within the dedupe tolerance of another's, so the list is incomplete"
        )
    return rows
