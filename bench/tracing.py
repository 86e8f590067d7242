"""The traced run: each op through the public library functions the CLI calls,
with spans recorded around every call into a layer, plus labelled probes.

Spans are recorded from the benchmark's own code, around the calls into each
layer: the library itself is not instrumented. A span has a name
`<layer>.<what>`, a start, an end, its parent and the op id; spans stay in
memory and are written out when the run ends. Each op is one root span
`cli.op`; its self time is the glue between library calls plus the span
bookkeeping, which is the tracing overhead.

Probes re-run work on the op's exact inputs to time one layer in isolation.
They are root spans of their own, not on the op's path:
- `family.kernel`: `iterate_orbits_bulk` for both critical orbits (one orbit
  for a dynamical plane) on the inputs `render_slice` gives it: one call per
  orbit per fixed 16-row band (README "Determinism"). For certify, the
  spine-locus lattice points farther than eps from the spine;
- `spine.distances`: `spine_distances` on the spine-locus lattice, run after
  the op, so the curve tree is already built and the probe times the queries.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mcmullen.family import (
    MapParams,
    escape_radius,
    eval_map,
    iterate_orbits_bulk,
    np_principal_sqrt,
)
from mcmullen.regions import sector_index
from mcmullen.render import RenderConfig, encode_ppm, render_slice
from mcmullen.solvers import diagonal_fixed_params, fixed_critical_params
from mcmullen.spine import SpineSpec, spine_distances, spine_radii
from mcmullen.verify import (
    reports_to_csv,
    verify_annulus_escape,
    verify_containment,
    verify_spine_locus,
    verify_winding,
)

from gate import slice_spec, viewport
from workloads import CentersOp, Op, RenderOp, VerifyOp

# render_slice works in fixed 16-row bands (README "Determinism").
ROW_BAND = 16

# Computed bytes per orbit step (one active element, one map application): the
# kernel gathers z, a, c (complex128) and the threshold (float64) through an
# index (intp) and scatters z back through it. Temporaries are not counted and
# cache misses are ignored, so this is computed from array sizes, not measured.
_C16, _F8, _I8 = 16, 8, np.dtype(np.intp).itemsize
BYTES_PER_STEP = 3 * (_C16 + _I8) + (_F8 + _I8) + (_C16 + _I8)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].start, self.spans[index].end = start, end

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


@dataclass
class KernelProbe:
    seconds: float = 0.0
    steps: int = 0
    orbits: int = 0
    bounded: int = 0
    largest_call: int = 0  # elements in the largest single kernel call

    def run(self, tracer: Tracer, calls: list[tuple]) -> None:
        """Time `iterate_orbits_bulk` on prepared argument tuples."""
        with tracer.span("family.kernel"):
            start = time.perf_counter()
            results = [iterate_orbits_bulk(*args) for args in calls]
            self.seconds += time.perf_counter() - start
        for args, (escaped, iters) in zip(calls, results):
            self.steps += int(iters.sum())
            self.orbits += int(escaped.size)
            self.bounded += int(escaped.size - np.count_nonzero(escaped))
            self.largest_call = max(self.largest_call, int(escaped.size))


def render_kernel_calls(op: RenderOp) -> list[tuple]:
    """The kernel calls render_slice makes for this op, as argument tuples."""
    vp = viewport(op)
    calls = []
    for r0 in range(0, vp.height, ROW_BAND):
        pts = np.concatenate([vp.row_points(r) for r in range(r0, min(r0 + ROW_BAND, vp.height))])
        if op.slice == "dynamical":
            p = MapParams(op.n, op.a, op.value)
            calls.append((p.n, p.a, p.c, pts, op.max_iter, escape_radius(p)))
            continue
        a = np.where(pts == 0, 1.0 + 0.0j, pts)
        c = np.full(pts.shape, op.value) if op.slice == "fixed-c" else op.value * pts
        thr = np.maximum(4.0, np.maximum(np.abs(c), np.abs(a)))
        root = np_principal_sqrt(a)
        calls.append((op.n, a, c, c + 2.0 * root, op.max_iter, thr))
        calls.append((op.n, a, c, c - 2.0 * root, op.max_iter, thr))
    return calls


def spine_locus_lattice(op: VerifyOp) -> np.ndarray:
    """The polar lattice verify_spine_locus samples (same construction)."""
    lo_r, hi_r = spine_radii(op.t)
    r_lo = max(lo_r - op.eps, 1e-9 * max(1.0, hi_r))
    radii = np.linspace(r_lo, hi_r + op.eps, op.samples)
    theta = np.linspace(0.0, 2.0 * math.pi, op.samples, endpoint=False)
    return (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()


@dataclass
class OpTrace:
    """What the traced path and the probes of one op measured."""

    data: bytes
    reports: list = None
    residuals: list[float] = None
    degree: int = 0
    spine_points: int = 0


def _centers_csv(rows: list[tuple]) -> str:
    lines = ["j,k,re_w,im_w,re_a,im_a,residual"]
    for j, k, w, a, residual in rows:
        lines.append(f"{j},{k},{w.real!r},{w.imag!r},{a.real!r},{a.imag!r},{residual!r}")
    return "\n".join(lines) + "\n"


def _write(tracer: Tracer, out: Path, data: bytes) -> None:
    with tracer.span("cli.write"):
        out.write_bytes(data)


def run_traced(op: Op, tracer: Tracer, out: Path, kernel: KernelProbe) -> OpTrace:
    """One op through the library calls the CLI makes, then its probes; spans
    get the tracer's current op_id."""
    result = OpTrace(b"")
    with tracer.span("cli.op"):
        if isinstance(op, RenderOp):
            cfg = RenderConfig(max_iter=op.max_iter)
            with tracer.span("render.render_slice"):
                img = render_slice(op.n, slice_spec(op), viewport(op), cfg)
            with tracer.span("render.encode_ppm"):
                result.data = encode_ppm(img)
        elif isinstance(op, CentersOp):
            if op.c is not None:
                result.degree = op.n
                with tracer.span("solvers.fixed_c"):
                    specs = fixed_critical_params(op.n, op.c)
                with tracer.span("family.residuals"):
                    rows = [(s.j, s.k, s.w_j, s.a_j,
                             abs(eval_map(MapParams(op.n, s.a_j, op.c), s.w_j) - s.w_j))
                            for s in specs]
            else:
                result.degree = 2 * op.n - 1
                with tracer.span("solvers.diagonal"):
                    pairs = diagonal_fixed_params(op.n, op.t)
                with tracer.span("family.residuals"):
                    rows = [(j, sector_index(op.n, w, a), w, a,
                             abs(eval_map(MapParams(op.n, a, op.t * a), w) - w))
                            for j, (w, a) in enumerate(pairs)]
            result.residuals = [r[-1] for r in rows]
            with tracer.span("cli.format"):
                result.data = _centers_csv(rows).encode("ascii")
        else:
            result.reports = _traced_verify(op, tracer, result)
            with tracer.span("cli.format"):
                result.data = reports_to_csv(result.reports).encode("ascii")
        _write(tracer, out, result.data)

    if isinstance(op, RenderOp):
        kernel.run(tracer, render_kernel_calls(op))
    elif isinstance(op, VerifyOp) and op.check == "spine-locus":
        a = spine_locus_lattice(op)
        with tracer.span("spine.distances"):
            dist = spine_distances(SpineSpec(op.t), a)
        result.spine_points = int(a.size)
        a_t = a[dist > op.eps]
        c_t = op.t * a_t
        thr = np.maximum(4.0, np.maximum(np.abs(c_t), np.abs(a_t)))
        root = np_principal_sqrt(a_t)
        kernel.run(tracer, [(op.n, a_t, c_t, c_t + 2.0 * root, op.max_iter, thr),
                            (op.n, a_t, c_t, c_t - 2.0 * root, op.max_iter, thr)])
    return result


def _traced_verify(op: VerifyOp, tracer: Tracer, result: OpTrace) -> list:
    """The verify_* calls the CLI makes for the checks the benchmark uses."""
    if op.check == "spine-locus":
        with tracer.span("verify.spine_locus"):
            return [verify_spine_locus(op.n, op.t, op.eps, op.samples, op.max_iter)]
    if op.check == "annulus":
        with tracer.span("verify.annulus"):
            return [verify_annulus_escape(MapParams(op.n, op.a, op.c), op.samples, op.max_iter)]
    result.degree = op.n
    with tracer.span("solvers.fixed_c"):
        specs = fixed_critical_params(op.n, op.c)
    if op.check == "winding":
        with tracer.span("verify.winding"):
            return [verify_winding(s, op.samples) for s in specs]
    with tracer.span("verify.containment"):
        return [verify_containment(MapParams(op.n, s.a_j, op.c), s.k, op.samples) for s in specs]
