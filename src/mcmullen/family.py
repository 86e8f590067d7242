"""The rational family z ** n + a / z ** n + c: parameters, critical data, and orbits.

All complex arithmetic is binary64. Every fractional power uses the principal
branch with argument in (-pi, pi] and the branch cut on the negative real axis;
a real-axis input with a negative-zero imaginary part is treated as approaching
the cut from above, so Arg(-4 - 0j) is +pi, not -pi.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

_INF = complex(math.inf, 0.0)


def wrap_angle(theta: float) -> float:
    """Wrap an angle (radians) to the principal interval (-pi, pi]."""
    t = math.remainder(theta, math.tau)
    if t <= -math.pi:
        t += math.tau
    return t


def principal_arg(z: complex) -> float:
    """Arg(z) in (-pi, pi]; negative real inputs give +pi even with -0.0 imaginary part."""
    z = complex(z)
    im = 0.0 if z.imag == 0.0 else z.imag
    return math.atan2(im, z.real)


def principal_sqrt(z: complex) -> complex:
    """Square root with Arg of the result in (-pi/2, pi/2]."""
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def principal_root(z: complex, m: int) -> complex:
    """Principal m-th root |z|**(1/m) * exp(i*Arg(z)/m)."""
    z = complex(z)
    if z == 0:
        return 0j
    return abs(z) ** (1.0 / m) * cmath.exp(1j * principal_arg(z) / m)


def np_principal_sqrt(a: np.ndarray) -> np.ndarray:
    """Vectorized principal_sqrt: adding 0.0 turns -0.0 into +0.0 and changes nothing else."""
    return np.sqrt(np.add(a, 0.0, dtype=complex))


def safe_abs(z: complex) -> float:
    """|z| that saturates to inf instead of raising when the modulus of a finite
    complex value overflows the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def check_modulus(name: str, value) -> complex:
    """value as a complex, or ValueError naming it when a component is nan or
    infinite, or when its finite components have a modulus that overflows binary64
    (safe_abs is inf)."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if safe_abs(value) == math.inf:
        raise ValueError(f"{name} = {value!r} has a modulus that overflows binary64")
    return value


def pow_int(z, n: int):
    """z ** n by binary exponentiation; identical operation order for scalars and arrays,
    so the scalar and vectorized orbit engines agree to rounding (compiler fusing only)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = None
    base = z
    e = n
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def check_exponent(n) -> None:
    """Raise ValueError unless the family exponent n is an int >= 3 (not a bool)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")


def check_slope(t) -> complex:
    """The slope t of c = t*a as a complex if finite and nonzero, else ValueError;
    a t whose modulus overflows is refused by check_modulus."""
    t = complex(t)
    if t == 0 or not cmath.isfinite(t):
        raise ValueError(f"t must be finite and nonzero, got {t!r}")
    return check_modulus("t", t)


# The largest iteration budget. The pool's int32 iteration counts, the render
# palette and verify's max_iter + 1 slack in int64 all hold it.
_MAX_ITER = 2**31 - 1


def check_max_iter(max_iter) -> None:
    """Raise ValueError unless max_iter is an int (not a bool) from 1 to 2**31 - 1."""
    ok = isinstance(max_iter, int) and not isinstance(max_iter, bool)
    if not (ok and 1 <= max_iter <= _MAX_ITER):
        raise ValueError(f"max_iter must be an integer from 1 to {_MAX_ITER}, got {max_iter!r}")


def _check_thresholds(thr) -> None:
    """Raise ValueError unless every escape threshold is finite. Only parameters
    beyond binary64 give a nan or inf one, where _within and the rule can differ."""
    if not np.isfinite(thr).all():
        raise ValueError("every escape threshold must be finite; a nan or inf one comes "
                         "from parameters whose modulus overflows binary64")


# The smallest |t| whose 4/|t|**2 is finite in binary64, about 1.49e-154.
_MIN_SCALED_SLOPE = 2.0 / math.sqrt(sys.float_info.max)


def check_slope_scale(t) -> complex:
    """check_slope, and ValueError for a t so small that 4/|t|**2 overflows
    binary64. That is the size of the outer spine radius and of the diagonal
    centers' a, so neither can be computed below it; a diagonal render can.
    A t so large that 2/t**2 is nan (t = 1e200 + 1e200j, whose t*t is nan + inf j)
    is refused too, since the spine's points would be nan."""
    t = check_slope(t)
    if abs(t) < _MIN_SCALED_SLOPE:
        raise ValueError(f"t = {t!r} is too small: 4/|t|**2, the size of the outer "
                         "spine radius and of the diagonal centers' a, overflows binary64")
    if cmath.isnan(2.0 / (t * t)):
        raise ValueError(f"t = {t!r} is too large: 2/t**2 is nan in binary64")
    return t


@dataclass(frozen=True)
class MapParams:
    """One member of the family z -> z**n + a/z**n + c."""

    n: int
    a: complex
    c: complex

    def __post_init__(self) -> None:
        check_exponent(self.n)
        a = check_modulus("a", self.a)
        c = check_modulus("c", self.c)
        if a == 0:
            raise ValueError("a must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def psi(self) -> float:
        """Principal argument of a, in (-pi, pi]."""
        return principal_arg(self.a)


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of iterating one point: whether it escaped, after how many map
    applications the decision fell, and the modulus at decision time (inf when the
    orbit hit the pole or overflowed)."""

    escaped: bool
    iterations: int
    final_modulus: float


def eval_map(p: MapParams, z: complex) -> complex:
    """One application of the map. z = 0 raises PoleError; overflow returns a
    non-finite value rather than raising."""
    z = complex(z)
    if z == 0:
        raise PoleError("the map has a pole at z = 0")
    zn = pow_int(z, p.n)
    if zn == 0:
        return _INF
    return zn + p.a / zn + p.c


def fixed_point_residual(p: MapParams, w: complex) -> tuple[float, float]:
    """(|R(w) - w|, 1e-8 * max(1, |w**n| + |a/w**n| + |c| + |w|)): w counts as a
    fixed point of p when the residual is within the bound, which grows with the
    terms R(w) - w adds, as the rounding error of evaluating them does. w = 0
    raises PoleError; a residual that is not finite gets the bound 0."""
    w = complex(w)
    if w == 0:
        raise PoleError("the map has a pole at z = 0")
    zn = pow_int(w, p.n)
    if zn == 0:  # w**n underflowed, where eval_map gives inf
        return math.inf, 0.0
    quotient = p.a / zn
    residual = safe_abs(zn + quotient + p.c - w)  # eval_map's R(w), less w
    if not math.isfinite(residual):  # R(w) overflowed
        return residual, 0.0
    terms = safe_abs(zn) + safe_abs(quotient) + safe_abs(p.c) + safe_abs(w)
    return residual, 1e-8 * max(1.0, terms)


def _map_array(z, n, a, c):
    """z**n + a/z**n + c elementwise, as a/z**n, then + z**n, then + c, in place,
    so that at most two arrays of z's size live at once."""
    zn = pow_int(z, n)
    out = a / zn
    out += zn
    del zn
    out += c
    return out


def critical_values_bulk(a, c):
    """(c + 2*sqrt(a), c - 2*sqrt(a)) of elementwise (a, c), principal square root."""
    root = np_principal_sqrt(a)
    root *= 2.0
    return c + root, c - root


def critical_values(p: MapParams) -> tuple[complex, complex]:
    """(v_plus, v_minus) = critical_values_bulk(a, c). Even-k critical points map to
    v_plus, odd-k to v_minus."""
    v_plus, v_minus = critical_values_bulk(p.a, p.c)
    return complex(v_plus), complex(v_minus)


def escape_radius_bulk(a, c):
    """max(4, |c|, |a|) of elementwise (a, c), |.| as np.abs gives it."""
    return np.maximum(4.0, np.maximum(np.abs(c), np.abs(a)))


def escape_radius(p: MapParams) -> float:
    """s = escape_radius_bulk(a, c); orbits beyond modulus s grow at least like s**m."""
    return float(escape_radius_bulk(p.a, p.c))


def critical_blocks(a, c):
    """The two orbit-kernel blocks (a, c, z0, threshold) of elementwise (a, c),
    a != 0: one from each critical value of critical_values_bulk, both with
    threshold escape_radius_bulk(a, c)."""
    thr = escape_radius_bulk(a, c)
    v_plus, v_minus = critical_values_bulk(a, c)
    return (a, c, v_plus, thr), (a, c, v_minus, thr)


def inner_radius(p: MapParams) -> float:
    """|a|**(1/n) / s; orbits inside this modulus escape (they pass near the pole)."""
    return abs(p.a) ** (1.0 / p.n) / escape_radius(p)


def iterate_orbit(p: MapParams, z0: complex, max_iter: int, threshold: float) -> OrbitResult:
    """Iterate z <- eval_map(p, z) from z0 until |z| > threshold or max_iter applications.

    Decision rule per application m = 1..max_iter: a pole (z = 0) or non-finite value
    encountered when the next application is attempted reports escaped with
    final_modulus = inf; |z| > threshold (strict) reports escaped at m; otherwise the
    orbit is bounded with iterations = max_iter. max_iter must pass check_max_iter,
    and the threshold must be finite (else ValueError).
    """
    check_max_iter(max_iter)
    _check_thresholds(threshold)
    z = complex(z0)
    if not cmath.isfinite(z):
        return OrbitResult(True, 0, math.inf)
    for m in range(1, max_iter + 1):
        if z == 0:
            return OrbitResult(True, m - 1, math.inf)
        z = eval_map(p, z)
        if not cmath.isfinite(z):
            return OrbitResult(True, m, math.inf)
        mod = safe_abs(z)
        if mod > threshold:
            return OrbitResult(True, m, mod)
    return OrbitResult(False, max_iter, safe_abs(z))


def _within(mod, thr, out=None):
    """The kernel's whole escape decision on mod = np.abs(z): True where an orbit
    stays, |z| <= thr. For a finite thr this is exactly the negation of "z is
    non-finite or |z| > thr": np.abs of a non-finite z is inf or nan, and a
    finite z whose modulus overflows reads inf; both fail <=."""
    return np.less_equal(mod, thr, out=out)


def iterate_orbits_bulk(n, a, c, z0, max_iter, threshold):
    """Vectorized iterate_orbit with elementwise (a, c, z0, threshold), broadcast together.

    Returns (escaped, iterations) boolean/int arrays of the broadcast shape, with the
    same decision rule as iterate_orbit: a non-finite start escapes at 0; at step
    m = 1..max_iter a pole (z = 0) escapes at m - 1, a non-finite value or
    |z| > threshold (strict, |z| as np.abs gives it) escapes at m; every other
    orbit is bounded with iterations = max_iter. The whole input is one block of
    iterate_orbit_blocks, whose results do not depend on order or split, and
    which refuses a non-finite threshold or a max_iter outside check_max_iter.
    """
    a, c, z0, thr = np.broadcast_arrays(
        np.asarray(a, dtype=complex),
        np.asarray(c, dtype=complex),
        np.asarray(z0, dtype=complex),
        np.asarray(threshold, dtype=float),
    )
    block = (a.ravel(), c.ravel(), z0.ravel(), thr.ravel())
    ((_, iters),) = iterate_orbit_blocks(n, [block], max_iter)
    iters = iters.astype(np.int64)
    escaped = iters >= 0
    iters[~escaped] = max_iter
    return escaped.reshape(z0.shape), iters.reshape(z0.shape)


# iterate_orbit_blocks admits the next block while its pool holds at most
# _POOL_MIN live orbits and fewer than _OPEN_MAX blocks are open, and else runs
# one window of at most _WINDOW steps. A step costs about 10 us of fixed NumPy
# overhead plus about 10 ns per orbit, so a pool of a few thousand orbits keeps
# the overhead small; the cap on open blocks bounds the per-block results held
# at once. A window records, retires and removes the orbits that left once,
# not at every step, for at most _WINDOW - 1 throwaway steps per orbit that
# left, and ends at a step of _STOPS where half the pool failed: 0.16 M window
# steps on render-wide's seed-1 ops, not 2.07 M, and 207 ms a pass, not 221 ms
# with no stops (faster in 8 of 10 alternating pairs). On render-deep's (four
# 200x200, max_iter 1000 zooms of the paper's n = 4, c = 6i centers) 4096, 12
# and 16 take 5,931 loop steps, 371 windows and 12.97 M orbit steps. In 7
# alternating in-process pairs each there, 2048 or 8192 live orbits (7,039 or
# 5,479 loop steps), 6 or 24 open blocks (9,399 or 5,292) and 24-step windows
# (6,003) were faster in 1, 3, 1, 4 and 3 pairs; 8-step windows never pass
# _LAG, so nothing retires (17,223, three times the time). On render-wide
# (804 loop steps) none was faster in more than 4 of 7.
_POOL_MIN = 4096
_OPEN_MAX = 12
_WINDOW = 16
_STOPS = (1, 2, 4, 8)

# Exact and proved retirement. A window of more than _LAG steps retires the
# live orbits whose state equals their state _LAG steps before, and nominates
# those whose state came back to within _TOL max(1, |z|) of it. When at least
# _BATCH orbits are nominated, one _proved_bounded call tries them all, with
# discs of radius _GROW times the drift and chains of up to _CHAIN steps. On
# the four 200x200, max_iter 1000 zooms of n = 4, c = 6i (the benchmark's
# render-deep at seed 1) that is 110 calls, 69,427 nominations (at most 1,669
# a call), 64,250 proofs and 12.97 M kernel steps. Measured there:
# - _LAG = 12 retires exact cycles of periods 1, 2, 3, 4, 6 and 12 unproved;
#   proof chains of 6 and 12 steps as well proved 9 to 78 more orbits a pass,
#   and took 267 ms a pass, not 229 ms, run for every chain (faster in 2 of 14);
# - _TOL 1e-5 saves 0.68 M steps for twice the nominations and proof time;
# - _GROW 16 and 1,024 make 232,401 and 86,816 nominations for 15.1 and 13.2 M steps;
# - a call costs about 0.2 ms plus 0.1 us a nominee, and a nominee left to the
#   next window 16 steps, which _BATCH = 256 balances: proving from one
#   nominee on took 304 ms a pass, not 229 ms (faster in 0 of 14 pairs).
_LAG = 12
_CHAIN = 4
_TOL = 1e-6
_GROW = 256.0
_BATCH = 256

# Rounding of _map_array. In binary64, with unit roundoff u = _U = 2**-53, a
# real + or - rounds by at most u relatively, and a * or / by at most u
# relatively plus 2**-1075 absolutely. For complex x, y, NumPy's ac - bd and
# ad + bc, with or without a fused multiply-add, give |fl(xy) - xy| <=
# 3u|x||y| + 2**-1073, so pow_int's n - 1 products give |P - w**n| <=
# ((1 + 3u)**(n-1) - 1)|w|**n, plus an absolute part that is negligible when
# every |w|**k, k <= n, is at least _TINY. NumPy divides by Smith's method (r =
# d/c, then (a + b r)/(c + d r) and (b - a r)/(c + d r) if |c| >= |d|, the
# mirror image if not); c and d r have one sign, so the denominator does not
# cancel, and |fl(x/y) - x/y| <= 9u|x/y| + 2**-1070 (1 + (1 + |x|)/|y|).
# With A >= |w|**n >= _TINY, B >= |a|/|w|**n and the two rounded additions,
#   |_map_array(w) - R(w)| <= u ((3n - 1) A + (3n + 8) B + |c|) + 2**-569 (1 + |a|)
#                          <= _KAPPA u ((n + 5)(A + B) + |c|) + _FLOOR (1 + |a|)
# for every n >= 1, _KAPPA = 8 being 8/3 times what the terms need; the margin
# covers the rounding of evaluating the bound. tests/test_family.py checks it
# against mpmath, at random points and where it is tight.
_U = 2.0**-53
_KAPPA = 8.0
_FLOOR = 2.0**-560
_TINY = 2.0**-500
# np.abs rounds by under one ulp and a sum of two moduli by u, so a disc whose
# outer modulus is at most thr * _INSET has fl(|w|) <= thr at every point.
_INSET = 1.0 - 8 * _U


def _map_error(n, big, small, c_mod, a_mod):
    """The bound above on |_map_array(w) - R(w)|, for every w with
    |w|**n <= big, |a|/|w|**n <= small and |w|**n >= _TINY, where c_mod = |c|
    and a_mod = |a|."""
    return _KAPPA * _U * ((n + 5) * (big + small) + c_mod) + _FLOOR * (1 + a_mod)


@np.errstate(all="ignore")
def _proved_bounded(n, a, c, thr, z, rho0):
    """Whether each orbit in state z is proved bounded, with the disc D_0 of
    radius rho0 about z.

    The chain c_0 = z, c_{j+1} = _map_array(c_j) closes at the least p from 1
    to _CHAIN = 4 with |c_p - c_0| <= _TOL max(1, |z|). D_j is the disc of
    radius rho_j about c_j, where
        rho_{j+1} = (|R'(c_j)| + rho_j sup|R''|) rho_j + 2 E_j,
    sup over a disc of radius tau |c_j|, tau = 1/(8n), and E_j bounds the
    rounding of _map_array (the comment above) over that disc. By the mean
    value theorem and the rounding bound, _map_array sends D_j into D_{j+1},
    for every point of D_j and for c_j, whose image is c_{j+1}.

    One pass steps the chains: step j drops from the open ones those whose
    D_{j-1} does not fit (rho_{j-1} <= tau |c_{j-1}|, D_{j-1} in 0 < |w| <=
    thr * _INSET, so each point passes the kernel's test and is no pole, and
    |w|**n >= _TINY), evaluates the bounds at c_{j-1}, and forms rho_j and
    c_j. A chain that closes at j = p is proved when D_p lies in D_0:
    |c_p - c_0| + rho_p <= rho_0. Then z, in D_0, which p steps map into
    itself, never escapes. Every bound is rounded up by the factor `up`. A
    mask drops the chains and the arrays keep their size: shrinking them
    saved at most 3% of the time and left NumPy's cache of small buffers up
    to 0.6 MB fuller.

    |R'(c_j)| is bounded through n |c**n - a/c**n| / |c| at the centre, which
    keeps the cancellation of the two terms near the critical points; ball
    arithmetic, bounding z**n and a/z**n apart, reads about 2n |c|**(n-1)
    there, and no cycle that passes near a critical point would contract."""
    tau = 1.0 / (8 * n)
    up = 1.0 + 8 * (n + 32) * _U
    grow, shrink = (1 + tau) ** n * up, (1 - tau) ** -n * up
    least = _TINY ** (1 / n) / (1 - tau) * up
    proved = np.zeros(z.size, dtype=bool)
    top, scale = thr * _INSET, _TOL * np.maximum(np.abs(z), 1.0)
    c_mod, a_mod = np.abs(c), np.abs(a)
    cen, rho, live = z, rho0, np.ones(z.size, dtype=bool)  # c_{j-1}, rho_{j-1}, the open chains
    for j in range(1, _CHAIN + 1):
        r = np.abs(cen)
        live &= (rho * (up / tau) <= r) & (r + rho <= top) & (r >= least)  # D_{j-1} fits
        zn = pow_int(cen, n)
        q = a / zn
        slope = np.abs(zn - q)
        cen = q + zn  # c_j: _map_array's operations, in its order
        cen += c
        big = np.abs(zn)
        big *= grow
        small = np.abs(q)
        small *= shrink
        del zn, q
        err = _map_error(n, big, small, c_mod, a_mod)
        err *= 2
        slope *= n * up
        slope += err * (n * up / (2 * (1 - tau)))
        slope /= r
        curve = big  # the bound on sup|R''| over the disc of radius tau |c_{j-1}|
        curve *= n * (n - 1)
        small *= n * (n + 1)
        curve += small
        del big, small
        curve /= r * r * (1 - tau) ** 2
        rho = (curve * rho + slope) * rho + err
        del curve, slope, err
        drift = np.abs(cen - z)  # prove the chains that close at j, and drop them
        closed = live & (drift <= scale)
        proved |= closed & (drift * up + rho <= rho0)
        live &= ~closed
        del drift, closed
        if not live.any():
            break
    return proved


def iterate_orbit_blocks(n, blocks, max_iter):
    """iterate_orbits_bulk over a sequence of input blocks through one working set.

    Each block is a tuple (a, c, z0, threshold) of 1-D arrays of one length
    (complex, complex, complex, float). One loop admits the next block, read
    lazily, while the working set holds at most _POOL_MIN orbits and fewer than
    _OPEN_MAX blocks are open, and else runs one window. Yields (k, iters) for
    block k = 0, 1, ... in the order the blocks complete: iters holds each
    orbit's count as iterate_orbits_bulk gives it if it escaped, -1 if bounded.
    Every orbit runs the same arithmetic and reaches the same decision whatever
    block it is in and whatever else shares the working set, so the results do
    not depend on how the inputs are ordered or split into blocks.

    Every step decides every orbit with one comparison, |z| <= threshold
    (_within), which equals the documented rule for every finite threshold; a
    block with a nan or infinite threshold, or an n that check_exponent
    refuses, raises ValueError. A new block takes its first step alone (most
    orbits of a wide view leave there). Its survivors join the pool of live
    orbits of all open blocks. Each block counts its own steps from its birth,
    so iteration counts, pole dating and the max_iter cut are each block's own.
    Three shortcuts never change a result:
    - a pole is the step after z = 0: R(0) evaluates to a non-finite value (a / 0),
      so it fails the comparison, and the pre-step z = 0 dates it at m - 1;
    - the pool steps in windows of up to _WINDOW steps, cut short at a
      block's max_iter-th step, where the block is cut, and at a step of
      _STOPS (1, 2, 4, 8) that half the pool failed; one pass at the window's
      end records, retires and removes the orbits that left, and closes blocks.
      Every step still decides every orbit and keeps masks of the comparison
      and of z == 0, so an orbit's count comes from its first failing step, a
      pole when z == 0 the step before, for every finite threshold and
      whatever the orbit computes after that. An orbit that left computes at
      most _WINDOW - 1 further steps;
    - at the end of a window of more than _LAG steps, an orbit that passed
      every step and whose state z equals its state _LAG steps before is
      retired as bounded. The map is deterministic, so z repeats the states
      from then on, each of which was nonzero and finite and passed every
      test. Signed zeros can differ between the two, but they change only the
      sign of zero results, never a modulus, a pole or a finiteness test. An
      orbit that passed every step and whose z came back to within a relative
      _TOL of that state is nominated, and retired as bounded if
      _proved_bounded proves a disc D_0 about z, with p floating-point steps
      of the map (p = 1, 2, 3 or 4) sending D_0 into discs D_1, ..., D_p and
      D_p into D_0, for every rounding within an a-priori bound.
      Every disc lies in 0 < |w| <= threshold with room for np.abs's
      rounding, so every later state of the orbit, as this kernel computes
      it, is nonzero and finite and passes the comparison: its count is
      max_iter, as running on would give. Which orbits are retired, and
      when, depends on the schedule; no count does.
    """
    check_exponent(n)
    check_max_iter(max_iter)
    pool = _Pool(n, max_iter)
    blocks = enumerate(blocks)
    more = True
    while more or pool.open:
        if more and pool.size <= _POOL_MIN and len(pool.open) < _OPEN_MAX:
            nxt = next(blocks, None)
            more = nxt is not None
            if more:
                done = pool.admit(*nxt)
                del nxt  # the pool keeps only the block's survivors
                yield from done
        else:
            yield from pool._window()


class _Pool:
    """The working set of iterate_orbit_blocks. Per live orbit (_FIELDS): its
    position in its block, its block's slot, z, a, c and thr. Per open block,
    by slot: its key and iters, and the pool step before its first step
    (birth). A block is closed, with its live orbits, at the end of the window
    in which its last orbit leaves or in which it takes its max_iter-th step.
    An orbit's arithmetic does not depend on its position, so orbits that leave
    are replaced by the last ones, which moves a few elements per array instead
    of compacting every array."""

    _FIELDS = ("idx", "slot", "z", "a", "c", "thr")

    def __init__(self, n, max_iter):
        self.n, self.max_iter = n, max_iter
        self.steps = 0
        self.open = {}  # slot -> (key, iters) of an open block
        self.births = np.zeros(_OPEN_MAX, dtype=np.int64)
        self.idx = np.empty(0, dtype=np.intp)
        self.slot = np.empty(0, dtype=np.int8)
        self.z = self.a = self.c = np.empty(0, dtype=complex)
        self.thr = np.empty(0)

    @property
    def size(self):
        return self.idx.size

    @np.errstate(all="ignore")
    def admit(self, k, block):
        """Step 1 of block k alone; its survivors join the pool. Returns the
        blocks done: [(k, iters)] if none survive or max_iter is 1, else []."""
        a, c, z0, thr = block
        _check_thresholds(thr)
        # a non-finite start maps to a non-finite z (each product with a nan or
        # inf factor has a non-finite real part), which fails _within
        z = _map_array(z0, self.n, a, c)
        mod = np.abs(z)
        keep = _within(mod, thr)
        # -1 until the orbit escapes, 1 for an escape at step 1, and 0 for a
        # pole (z0 = 0, so z = a/0) or a non-finite start: both give a non-finite |z|
        iters = keep.astype(np.int32)
        iters *= -2
        iters += 1
        bad = np.flatnonzero(~np.isfinite(mod))
        iters[bad[(z0[bad] == 0) | ~np.isfinite(z0[bad])]] = 0
        idx = np.flatnonzero(keep)
        if idx.size < z0.size:
            z, a, c, thr = z[idx], a[idx], c[idx], thr[idx]
        if idx.size == 0 or self.max_iter == 1:
            return [(k, iters)]
        s = min(set(range(_OPEN_MAX)) - self.open.keys())
        self.open[s] = (k, iters)
        self.births[s] = self.steps
        joining = dict(idx=idx, slot=np.full(idx.size, s, dtype=np.int8), z=z, a=a, c=c, thr=thr)
        del idx, z, a, c, thr, z0, block
        for name in self._FIELDS:
            setattr(self, name, np.concatenate([getattr(self, name), joining.pop(name)]))
        return []

    @np.errstate(all="ignore")
    def _window(self):
        """Up to _WINDOW steps of every pooled orbit, ending at the next
        max_iter cut at the latest or after a step of _STOPS that at least
        half the pool failed; returns the blocks it closes, in key order.

        Every step decides every orbit and keeps two masks: _within and z == 0.
        An orbit escapes at the first step it fails _within, a pole when its
        state before that step is 0. One pass then records the escapes,
        retires the orbits _prove finds bounded, closes the blocks at their
        cut or with no live orbit, and removes all of these orbits at once."""
        cut = min(int(self.births[s]) for s in self.open) + self.max_iter - 1  # oldest block's
        steps = min(_WINDOW, cut - self.steps)
        keep = np.empty((steps, self.size), dtype=bool)
        zero = np.empty((steps + 1, self.size), dtype=bool)  # row j: z == 0 after j steps
        z = self.z
        np.equal(np.abs(z), 0.0, out=zero[0])
        back = None
        for j in range(steps):
            z = _map_array(z, self.n, self.a, self.c)
            mod = np.abs(z)  # 0 exactly where z is 0
            _within(mod, self.thr, out=keep[j])
            np.equal(mod, 0.0, out=zero[j + 1])
            if j == steps - 1 - _LAG:
                back = z
            if j + 1 in _STOPS and 2 * np.count_nonzero(keep[j]) <= self.size:
                steps, keep, back = j + 1, keep[:j + 1], None  # half the pool failed
                break
        start = self.steps
        self.steps += steps
        self.z = z
        gone = ~keep.all(axis=0)  # the escapes, then the retired orbits too
        out = np.flatnonzero(gone)
        if out.size:
            first = keep[:, out].argmin(axis=0)
            self._record(out, start + 1 + first - zero[first, out])
        del keep, zero
        if back is not None:
            self._prove(z, mod, back, gone)
            del back
        if self.steps < cut and not gone.any():
            return []
        stay = ~gone
        live = np.bincount(self.slot[stay], minlength=_OPEN_MAX).tolist()
        born = self.steps + 1 - self.max_iter  # the birth of a block at its max_iter-th step
        closed = [s for s in sorted(self.open, key=lambda s: self.open[s][0])
                  if self.births[s] == born or live[s] == 0]
        if any(live[s] for s in closed):  # a block cut with orbits live: they go too
            shut = np.zeros(_OPEN_MAX, dtype=bool)
            shut[closed] = True
            stay &= ~shut[self.slot]
        self._remove(stay)
        return [self.open.pop(s) for s in closed]

    def _prove(self, z, mod, back, gone):
        """Set gone for the orbits whose state z (of modulus mod) equals back,
        their state _LAG steps before: from there they repeat states that
        passed, so they cannot fail later. Then nominate the orbits not gone
        whose z came back to within _TOL max(1, |z|) of back, and set gone
        where _proved_bounded proves one bounded."""
        drift = np.abs(np.subtract(z, back, out=back))  # back and mod are the window's
        gone |= drift == 0
        near = drift <= np.multiply(np.maximum(mod, 1.0, out=mod), _TOL, out=mod)
        near &= ~gone
        nominees = np.flatnonzero(near)
        if nominees.size >= _BATCH:
            proved = _proved_bounded(self.n, self.a[nominees], self.c[nominees], self.thr[nominees],
                                     z[nominees], _GROW * drift[nominees])
            gone[nominees[proved]] = True

    def _record(self, out, at):
        """Iteration counts of the escaping orbits at pool positions out: each
        counts the pool steps of its block up to `at`, its escape step, or the
        step before it for a pole."""
        slots = self.slot[out]
        m = at + 1 - self.births[slots]
        present = np.flatnonzero(np.bincount(slots, minlength=_OPEN_MAX))
        for s in present.tolist():
            sel = slots == s if present.size > 1 else slice(None)
            self.open[s][1][self.idx[out[sel]]] = m[sel]

    def _remove(self, keep):
        """Keep the orbits where keep is set: the last kept orbits move into the
        places of the others in front of them."""
        size = int(np.count_nonzero(keep))
        holes = np.flatnonzero(~keep[:size])
        fill = size + np.flatnonzero(keep[size:])
        for name in self._FIELDS:
            arr = getattr(self, name)
            if holes.size:
                arr[holes] = arr[fill]
            setattr(self, name, arr[:size])
