"""The benchmark's workloads: fixed op lists generated from a seed.

Every op is one `mcmullen` CLI call (run through `mcmullen.cli.main`) at the
default single thread; no op passes `--threads`, so a parallel speed-up has to
show at the default settings.

Why these three workloads, and what each one should and should not move:

- render-wide: three seeded-offset `fixed-c` renders (n=4, c=6i, 10x10 view,
  800x800, max_iter 256), one `diagonal` render (n=8, t=2, 600x600) and the
  README's dynamical plane at 400x400 with max_iter 1000. Almost every orbit
  escapes within a few steps, so time goes to pixel assembly, PPM encoding and
  writing about 5 MB per pass. A kernel-only change should barely move it.
- render-deep: 200x200 `fixed-c` zooms (n=4, c=6i, half-width about 0.1)
  around the four centers of `fixed_critical_params(4, 6j)`, max_iter 1000.
  About half of the minus orbits stay bounded for all 1000 steps, so the orbit
  kernel does most of the work. An image-assembly change should barely move it.
- certify: `centers` for fixed c = 6i and for the diagonal t = 2 at n = 48,
  96, 144 and 190, `verify` spine-locus, winding, containment and annulus. It
  runs no render code and writes only small CSVs; the Aberth solver takes a
  visible share, and spine-locus time goes mostly to the spine distance
  queries, since its orbits escape within a step or two.

Seeded choices jitter positions and arguments but keep the amount of work per
pass nearly the same for every seed, so that runs with different seeds measure
the same thing.

The spine's distance queries keep their curve trees in an `lru_cache` keyed on
(t, samples). A CLI user starts every call with that cache empty, so each pass
of certify nudges the spine-locus `t` by a relative 1e-12 * pass index: the key
is new, the cache is cold, and the work is the same to within rounding.
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, replace

# The README's dynamical plane (section "Command line").
README_DYNAMICAL_A = complex(-13.122875503987459, 2.008554506696609)
README_DYNAMICAL_C = 6j

# Relative nudge of the spine-locus t per pass; far below any lattice spacing.
SPINE_T_NUDGE = 1e-12


def fmt_complex(z: complex) -> str:
    """`re,im` with every digit, so the CLI parses back the exact double."""
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


@dataclass(frozen=True)
class RenderOp:
    op_id: str
    n: int
    slice: str  # fixed-c | diagonal | dynamical
    value: complex  # c for fixed-c and dynamical, t for diagonal
    view: tuple[float, float, float, float]
    size: tuple[int, int]
    max_iter: int
    a: complex | None = None  # dynamical only
    expected_rc: int = 0

    @property
    def suffix(self) -> str:
        return "ppm"

    @property
    def pixels(self) -> int:
        return self.size[0] * self.size[1]

    def argv(self, out: str) -> list[str]:
        argv = ["render", "--n", str(self.n), "--slice", self.slice]
        if self.slice == "diagonal":
            argv += ["--t", fmt_complex(self.value)]
        else:
            argv += ["--c", fmt_complex(self.value)]
        if self.slice == "dynamical":
            argv += ["--a", fmt_complex(self.a)]
        argv += [
            "--view", ",".join(repr(float(v)) for v in self.view),
            "--size", f"{self.size[0]}x{self.size[1]}",
            "--max-iter", str(self.max_iter),
            "--out", out,
        ]
        return argv


@dataclass(frozen=True)
class CentersOp:
    op_id: str
    n: int
    c: complex | None = None
    t: complex | None = None
    expected_rc: int = 0

    @property
    def suffix(self) -> str:
        return "csv"

    def argv(self, out: str) -> list[str]:
        flag, value = ("--c", self.c) if self.c is not None else ("--t", self.t)
        return ["centers", "--n", str(self.n), flag, fmt_complex(value), "--out", out]


@dataclass(frozen=True)
class VerifyOp:
    op_id: str
    check: str
    n: int
    samples: int
    c: complex | None = None
    a: complex | None = None
    t: complex | None = None
    eps: float | None = None
    max_iter: int | None = None
    expected_rc: int = 0

    @property
    def suffix(self) -> str:
        return "csv"

    def argv(self, out: str) -> list[str]:
        argv = ["verify", "--check", self.check, "--n", str(self.n)]
        for flag, value in (("--c", self.c), ("--a", self.a), ("--t", self.t)):
            if value is not None:
                argv += [flag, fmt_complex(value)]
        if self.eps is not None:
            argv += ["--eps", repr(float(self.eps))]
        if self.max_iter is not None:
            argv += ["--max-iter", str(self.max_iter)]
        argv += ["--samples", str(self.samples), "--out", out]
        return argv


Op = RenderOp | CentersOp | VerifyOp


def _square_view(center: complex, half: float) -> tuple[float, float, float, float]:
    return (center.real - half, center.real + half, center.imag - half, center.imag + half)


def render_wide(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"render-wide:{seed}")
    big, mid, small = (32, 24, 16) if tiny else (800, 600, 400)
    ops: list[Op] = []
    for i in range(3):
        offset = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        ops.append(RenderOp(f"fixed-c-{i}", 4, "fixed-c", 6j, _square_view(offset, 5.0),
                            (big, big), 256))
    ops.append(RenderOp("diagonal", 8, "diagonal", 2 + 0j, (-2.0, 2.0, -2.0, 2.0),
                        (mid, mid), 256))
    # max_iter stays at 1000: it shows the known shading defect for escapes at m = 1.
    ops.append(RenderOp("dynamical", 4, "dynamical", README_DYNAMICAL_C, (-2.0, 2.0, -2.0, 2.0),
                        (small, small), 1000, a=README_DYNAMICAL_A))
    return ops


def render_deep(seed: int, tiny: bool = False) -> list[Op]:
    from mcmullen.solvers import fixed_critical_params

    rng = random.Random(f"render-deep:{seed}")
    centers = [spec.a_j for spec in fixed_critical_params(4, 6j)]
    rng.shuffle(centers)
    size = 16 if tiny else 200
    max_iter = 50 if tiny else 1000
    ops: list[Op] = []
    # Each center once per pass, so every seed renders the same mix of cheap and
    # costly zooms; the jitter is kept small because the number of orbit steps
    # follows the frame (a 5% jitter moved it by 4% between seeds).
    for i, center in enumerate(centers):
        half = 0.1 * rng.uniform(0.998, 1.002)
        jitter = complex(rng.uniform(-0.0005, 0.0005), rng.uniform(-0.0005, 0.0005))
        ops.append(RenderOp(f"zoom-{i}", 4, "fixed-c", 6j, _square_view(center + jitter, half),
                            (size, size), max_iter))
    return ops


def certify(seed: int, tiny: bool = False) -> list[Op]:
    from mcmullen.solvers import fixed_critical_params

    rng = random.Random(f"certify:{seed}")
    ops: list[Op] = []
    # The centers inputs do not follow the seed: the Aberth iteration count, and
    # so the solve time, moves by up to 20% with n and with the argument of c or t.
    ladder = (3, 4, 5, 6) if tiny else (48, 96, 144, 190)
    for i, n in enumerate(ladder):
        ops.append(CentersOp(f"centers-c-{i}", n, c=6j))
    for i, n in enumerate(ladder):
        ops.append(CentersOp(f"centers-t-{i}", n, t=2 + 0j))
    spine_t = rng.uniform(1.95, 2.05) * cmath.exp(1j * rng.uniform(-0.05, 0.05))
    ops.append(VerifyOp("spine-locus", "spine-locus", 20, 32 if tiny else 300, t=spine_t,
                        eps=0.25, max_iter=50 if tiny else 200))
    # winding at n=8, c=6 fails by design (README "Testing"): exit code 3 is expected.
    ops.append(VerifyOp("winding", "winding", 8, 256 if tiny else 65536, c=6 + 0j,
                        expected_rc=3))
    ops.append(VerifyOp("containment", "containment", 8, 64 if tiny else 200_000, c=6 + 0j))
    # Two annulus checks make 13 ops a pass: with an odd count the median op
    # latency falls inside one op's cluster of latencies, not in a gap between two.
    for i, spec in enumerate(rng.sample(fixed_critical_params(4, 6j), 2)):
        ops.append(VerifyOp(f"annulus-{i}", "annulus", 4, 8 if tiny else 128, c=6j, a=spec.a_j,
                            max_iter=50 if tiny else 1000))
    return ops


_BY_NAME = {"render-wide": render_wide, "render-deep": render_deep, "certify": certify}
WORKLOADS = tuple(_BY_NAME)


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    return _BY_NAME[name](seed, tiny)


def for_pass(op: Op, pass_index: int) -> Op:
    """The op as run in a given pass: identical, except that spine-locus gets a
    pass-specific t so the spine cache starts cold (see the module docstring)."""
    if isinstance(op, VerifyOp) and op.check == "spine-locus":
        return replace(op, t=op.t * (1.0 + SPINE_T_NUDGE * pass_index))
    return op
