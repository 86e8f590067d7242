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
    """Vectorized principal square root with the same -0.0 handling as principal_sqrt."""
    a = np.asarray(a, dtype=complex)
    a = np.where(a.imag == 0.0, a.real + 0.0j, a)
    return np.sqrt(a)


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
    """The slope t of c = t*a as a complex if finite and nonzero, else ValueError."""
    t = complex(t)
    if t == 0 or not cmath.isfinite(t):
        raise ValueError(f"t must be finite and nonzero, got {t!r}")
    return t


# The largest iteration budget. The pool's iteration counts (int32 here), the
# render palette and verify's max_iter + 1 slack in int64 all hold it.
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
    centers' a, so neither can be computed below it; a diagonal render can."""
    t = check_slope(t)
    if abs(t) < _MIN_SCALED_SLOPE:
        raise ValueError(f"t = {t!r} is too small: 4/|t|**2, the size of the outer "
                         "spine radius and of the diagonal centers' a, overflows binary64")
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
    residual = safe_abs(eval_map(p, w) - w)
    if not math.isfinite(residual):  # R(w) overflowed, or w**n underflowed to 0
        return residual, 0.0
    zn = pow_int(w, p.n)
    terms = safe_abs(zn) + safe_abs(p.a / zn) + safe_abs(p.c) + safe_abs(w)
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
    return c + 2.0 * root, c - 2.0 * root


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


def _within(z, thr):
    """The kernel's whole escape decision: True where an orbit stays, |z| <= thr,
    |z| as np.abs gives it. For a finite thr this is exactly the negation of
    "z is non-finite or |z| > thr": np.abs of a non-finite z is inf or nan,
    and a finite z whose modulus overflows reads inf; both fail <=."""
    return np.abs(z) <= thr


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


# iterate_orbit_blocks admits the next block once its pool holds at most
# _POOL_MIN live orbits and fewer than _OPEN_MAX blocks are open. A step costs
# about 14 us of fixed NumPy overhead plus about 12 ns per orbit, so a pool of a
# few thousand orbits keeps the overhead small; the cap on open blocks bounds
# the per-block results held at once. On the 200x200, max_iter 1000 zooms of
# the paper's n = 4, c = 6i centers, 4096 and 12 take 7,507 loop steps per four
# zooms (46,667 one band at a time) for the same 24.4 M orbit steps.
_POOL_MIN = 4096
_OPEN_MAX = 12


def iterate_orbit_blocks(n, blocks, max_iter):
    """iterate_orbits_bulk over a sequence of input blocks through one working set.

    Each block is a tuple (a, c, z0, threshold) of 1-D arrays of one length
    (complex, complex, complex, float). Blocks are read lazily, one at a time,
    when the working set runs low. Yields (k, iters) for block k = 0, 1, ... in
    the order the blocks complete: iters holds each orbit's iteration count as
    iterate_orbits_bulk gives it for an escaped orbit, and -1 for a bounded one.
    Every orbit runs the same arithmetic and reaches the same decision whatever
    block it is in and whatever else shares the working set, so the results do
    not depend on how the inputs are ordered or split into blocks.

    Every step decides every orbit with one comparison, |z| <= threshold
    (_within), which equals the documented rule for every finite threshold; a
    block with a nan or infinite threshold raises ValueError. A new block takes
    its first step alone (most orbits of a wide view leave there). Its survivors
    join the pool of live orbits of all open blocks. Each block counts its own
    steps from its birth, so iteration counts, pole dating, Brent reference steps
    and the max_iter cut are each block's own. Two shortcuts never change a
    result:
    - a pole is the step after z = 0: R(0) evaluates to a non-finite value (a / 0),
      so it fails the comparison, and the pre-step z = 0 dates it at m - 1;
    - an orbit whose z equals its Brent reference (z at steps 1, 2, 4, 8, ...)
      is retired as bounded. The map is deterministic, so z repeats the states
      from the reference on, each of which was nonzero and passed every test.
      Signed zeros can differ between the two, but they change only the sign of
      zero results, never a modulus, a pole or a finiteness test.
    """
    check_max_iter(max_iter)
    pool = _Pool(n, max_iter)
    blocks = enumerate(blocks)
    more = True
    while True:
        while more and pool.size <= _POOL_MIN and len(pool.open) < _OPEN_MAX:
            nxt = next(blocks, None)
            more = nxt is not None
            if more:
                done = pool.admit(*nxt)
                del nxt  # the pool keeps only the block's survivors
                yield from done
        if not pool.open:
            return
        yield from pool.run(_POOL_MIN if more else -1)


class _Pool:
    """The working set of iterate_orbit_blocks. Per live orbit (_FIELDS): its
    position in its block, its block's slot, z, a, c, thr and the Brent reference
    ref. Per open block, by slot: its key and iters, and the pool step before its
    first step (birth). A block is closed at the first event (a power-of-two or
    max_iter-th step of any block) after its last orbit has left, or at once when
    the pool is empty. An orbit's arithmetic does not depend on its position, so
    orbits that leave are replaced by the last ones, which moves a few elements
    per array instead of compacting every array."""

    _FIELDS = ("idx", "slot", "z", "a", "c", "thr", "ref")

    def __init__(self, n, max_iter):
        self.n, self.max_iter = n, max_iter
        self.steps = 0
        self.next_event = 0  # the next step at which a block reaches 2**j or max_iter
        self.open = {}  # slot -> (key, iters) of an open block
        self.births = np.zeros(_OPEN_MAX, dtype=np.int64)
        self.idx = np.empty(0, dtype=np.intp)
        self.slot = np.empty(0, dtype=np.int8)
        self.z = self.a = self.c = self.ref = np.empty(0, dtype=complex)
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
        finite = np.isfinite(z0)
        # -1 until the orbit escapes, in the smallest signed integer type that holds
        # both -1 and max_iter (max_iter = 128 needs int16: int8 stops at 127)
        iters = np.full(z0.size, -1, dtype=np.min_scalar_type(-self.max_iter - 1))
        iters[~finite] = 0
        if finite.all():
            idx = np.arange(z0.size)
        else:
            idx = np.flatnonzero(finite)
            z0, a, c, thr = z0[idx], a[idx], c[idx], thr[idx]
        if idx.size:
            z = _map_array(z0, self.n, a, c)
            keep = _within(z, thr)
            out = np.flatnonzero(~keep)
            if out.size:
                iters[idx[out]] = 1 - (z0[out] == 0)
                idx, z, a, c, thr = idx[keep], z[keep], a[keep], c[keep], thr[keep]
        if idx.size == 0 or self.max_iter == 1:
            return [(k, iters)]
        s = min(set(range(_OPEN_MAX)) - self.open.keys())
        self.open[s] = (k, iters)
        self.births[s] = self.steps
        joining = dict(idx=idx, slot=np.full(idx.size, s, dtype=np.int8), z=z, a=a, c=c,
                       thr=thr, ref=z)
        del idx, z, a, c, thr, z0, block
        for name in self._FIELDS:
            setattr(self, name, np.concatenate([getattr(self, name), joining.pop(name)]))
        self.next_event = min(self.next_event, self.steps + 1)
        return []

    @np.errstate(all="ignore")
    def run(self, low):
        """Step until a block closes or at most `low` orbits are left; returns the
        closed blocks."""
        while True:
            closed = self._step()
            if closed or self.size <= low:
                return closed

    def _step(self):
        """One step of every pooled orbit; returns the blocks it closes."""
        self.steps += 1
        znew = _map_array(self.z, self.n, self.a, self.c)
        keep = _within(znew, self.thr)
        gone = not keep.all()
        if gone:
            out = np.flatnonzero(~keep)
            self._record(out, self.z[out] == 0)
        same = znew == self.ref
        if same.any():
            gone = True
            keep &= ~same
        self.z = znew
        del znew
        if gone:
            self._remove(keep)
        return self._settle() if self.steps >= self.next_event or not self.size else []

    def _record(self, out, pole):
        """Iteration counts of the escaping orbits at pool positions out."""
        slots = self.slot[out]
        m = (self.steps + 1) - self.births[slots] - pole
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

    def _settle(self):
        """Close the blocks that have taken max_iter steps or have no live orbits
        left, and set the Brent references of the others at a power-of-two step.
        Returns the closed blocks in key order."""
        closed = []
        self.next_event = math.inf
        live = np.bincount(self.slot, minlength=_OPEN_MAX)
        for s in sorted(self.open, key=lambda s: self.open[s][0]):
            birth = int(self.births[s])
            m = self.steps - birth + 1
            if m == self.max_iter or live[s] == 0:
                closed.append(s)
                continue
            if m & (m - 1) == 0:
                mine = self.slot == s
                self.ref[mine] = self.z[mine]
            event = birth + min(1 << m.bit_length(), self.max_iter) - 1
            self.next_event = min(self.next_event, event)
        if closed:
            keep = ~np.isin(self.slot, closed)
            if not keep.all():
                self._remove(keep)
        return [self.open.pop(s) for s in closed]


def critical_orbits_bulk(n, a, c, max_iter):
    """iterate_orbits_bulk from both critical values c +- 2*sqrt(a) of elementwise
    (a, c), a != 0, with threshold escape_radius_bulk(a, c): ((esc+, it+), (esc-, it-))."""
    thr = escape_radius_bulk(a, c)
    v_plus, v_minus = critical_values_bulk(a, c)
    plus = iterate_orbits_bulk(n, a, c, v_plus, max_iter, thr)
    minus = iterate_orbits_bulk(n, a, c, v_minus, max_iter, thr)
    return plus, minus
