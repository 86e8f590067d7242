"""Correctness gate for every benchmark op, and the shading-defect probe.

- render: the PPM header and byte size are right, and a seeded sample of pixels
  recomputed with the scalar `classify_pixel` matches exactly. The one
  exception is a pixel whose scalar color itself changes when its center moves
  by one ulp: there the orbit is so sensitive to rounding that scalar and array
  arithmetic may part ways before max_iter, so the oracle fixes no exact value.
  Such a mismatch is listed and counted (`Gate.unstable`), not failed;
- centers: the CSV parses and every `residual` is finite and <= 1e-8;
- verify: the CSV parses, `pass == (failures == 0)` on every row, and the exit
  code is the expected one (3 for the winding check that fails by design).

An output that repeats, byte for byte, an already checked output of the same
argv gets that output's verdict; an output that differs from an earlier output
of the same argv fails, since every op is deterministic.
"""
from __future__ import annotations

import hashlib
import math
import random

from mcmullen.family import MapParams, escape_radius, iterate_orbit, principal_sqrt
from mcmullen.render import (
    Diagonal,
    Dynamical,
    FixedC,
    RenderConfig,
    Viewport,
    classify_pixel,
)

from workloads import CentersOp, Op, RenderOp, VerifyOp

PIXEL_SAMPLE = 48
RESIDUAL_BOUND = 1e-8
CENTERS_HEADER = "j,k,re_w,im_w,re_a,im_a,residual"
VERIFY_HEADER = "check,params,samples,failures,worst_margin,pass"


def slice_spec(op: RenderOp):
    if op.slice == "fixed-c":
        return FixedC(op.value)
    if op.slice == "diagonal":
        return Diagonal(op.value)
    return Dynamical(MapParams(op.n, op.a, op.value))


def viewport(op: RenderOp) -> Viewport:
    return Viewport(*op.view, *op.size)


def pixel_sample(op: RenderOp, seed: int, k: int = PIXEL_SAMPLE) -> list[tuple[int, int]]:
    """Seeded (col, row) sample of distinct pixels of the op's frame."""
    w, h = op.size
    rng = random.Random(f"pixels:{op.op_id}:{seed}")
    return [(i % w, i // w) for i in rng.sample(range(w * h), min(k, w * h))]


def ppm_header(op: RenderOp) -> bytes:
    return f"P6\n{op.size[0]} {op.size[1]}\n255\n".encode("ascii")


def pixel_at(op: RenderOp, data: bytes, col: int, row: int) -> tuple[int, int, int]:
    i = len(ppm_header(op)) + 3 * (row * op.size[0] + col)
    return data[i], data[i + 1], data[i + 2]


def _one_ulp_moves(z: complex) -> list[complex]:
    dx, dy = math.ulp(z.real), math.ulp(z.imag)
    return [z + dx, z - dx, z + 1j * dy, z - 1j * dy]


def check_render(op: RenderOp, data: bytes, seed: int) -> tuple[list[str], list[str]]:
    """(problems, unstable): failed checks, and mismatched pixels whose scalar
    color changes under a one-ulp move of the pixel center."""
    header = ppm_header(op)
    if not data.startswith(header):
        return [f"bad PPM header {data[:20]!r}"], []
    if len(data) != len(header) + 3 * op.pixels:
        return [f"PPM has {len(data)} bytes, expected {len(header) + 3 * op.pixels}"], []
    slc, vp, cfg = slice_spec(op), viewport(op), RenderConfig(max_iter=op.max_iter)
    problems, unstable = [], []
    for col, row in pixel_sample(op, seed):
        point = vp.point_at(col, row)
        want = classify_pixel(op.n, slc, point, cfg)
        got = pixel_at(op, data, col, row)
        if got == want:
            continue
        note = f"pixel ({col}, {row}) is {got}, classify_pixel gives {want}"
        moved = {classify_pixel(op.n, slc, z, cfg) for z in _one_ulp_moves(point)}
        if moved == {want}:
            problems.append(note)
        else:
            unstable.append(f"{note}, and {sorted(moved)} one ulp away")
    return problems, unstable


def _csv_rows(text: str, header: str, width: int) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"bad CSV header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        return [], ["CSV has no rows"]
    bad = [i for i, r in enumerate(rows) if len(r) != width]
    return rows, [f"row {i} does not have {width} fields" for i in bad]


def check_centers(op: CentersOp, text: str) -> list[str]:
    rows, problems = _csv_rows(text, CENTERS_HEADER, 7)
    for i, r in enumerate(rows):
        try:
            int(r[0]), int(r[1])
            residual = [float(x) for x in r[2:]][-1]
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if not residual <= RESIDUAL_BOUND:
            problems.append(f"row {i}: residual {residual!r} > {RESIDUAL_BOUND}")
    return problems


def parse_verify(text: str) -> tuple[list[dict], list[str]]:
    rows, problems = _csv_rows(text, VERIFY_HEADER, 6)
    reports = []
    for i, r in enumerate(rows):
        try:
            rep = {"check": r[0], "samples": int(r[2]), "failures": int(r[3]),
                   "worst_margin": float(r[4]), "pass": {"true": True, "false": False}[r[5]]}
        except (ValueError, KeyError) as exc:
            problems.append(f"row {i}: cannot parse {r!r} ({exc!r})")
            continue
        if rep["pass"] != (rep["failures"] == 0):
            problems.append(f"row {i}: pass={r[5]} but failures={rep['failures']}")
        reports.append(rep)
    return reports, problems


def check_verify(op: VerifyOp, text: str, rc: int) -> list[str]:
    reports, problems = parse_verify(text)
    problems += [f"row check is {r['check']!r}, expected {op.check!r}"
                 for r in reports if r["check"] != op.check]
    if reports and not problems:
        implied = 0 if all(r["pass"] for r in reports) else 3
        if rc != implied:
            problems.append(f"exit code {rc} disagrees with the rows (imply {implied})")
    return problems


class Gate:
    """Checks op outputs and keeps each argv's first output and verdict."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seen: dict[tuple[str, ...], tuple[str, list[str]]] = {}
        self.unstable: list[str] = []  # see the module docstring

    def check(self, op: Op, argv: list[str], rc: int, data: bytes | None) -> tuple[str, list[str]]:
        """(sha256 of the output, problems); no problems means the op passed."""
        if data is None:
            return "", [f"exit code {rc} (expected {op.expected_rc}) and no output"]
        sha = hashlib.sha256(data).hexdigest()
        problems = [] if rc == op.expected_rc else [f"exit code {rc}, expected {op.expected_rc}"]
        key = tuple(argv)
        if key in self._seen:
            first_sha, verdict = self._seen[key]
            if sha != first_sha:
                return sha, problems + ["output differs from an earlier run of the same argv"]
            return sha, problems + verdict
        if isinstance(op, RenderOp):
            verdict, unstable = check_render(op, data, self.seed)
            self.unstable += [f"{op.op_id}: {u}" for u in unstable]
        else:
            try:
                text = data.decode("ascii")
            except UnicodeDecodeError as exc:
                verdict = [f"output is not ASCII: {exc}"]
            else:
                verdict = (check_centers(op, text) if isinstance(op, CentersOp)
                           else check_verify(op, text, rc))
        self._seen[key] = (sha, verdict)
        return sha, problems + verdict


def bounded_mismatch(op: RenderOp, data: bytes, seed: int) -> tuple[int, int]:
    """(mismatches, sampled pixels): sampled pixels painted bounded_color while the
    scalar `iterate_orbit` says an orbit escaped, or the reverse. This counts the
    known shading defect; it is reported as a count, not as an op failure."""
    cfg = RenderConfig(max_iter=op.max_iter)
    vp = viewport(op)
    sample = pixel_sample(op, seed)
    mismatches = 0
    for col, row in sample:
        point = vp.point_at(col, row)
        if op.slice == "dynamical":
            p = MapParams(op.n, op.a, op.value)
            bounded = not iterate_orbit(p, point, op.max_iter, escape_radius(p)).escaped
        elif point == 0:
            bounded = True  # a = 0 is painted bounded_color by definition
        else:
            a, c = (point, op.value) if op.slice == "fixed-c" else (point, op.value * point)
            p = MapParams(op.n, a, c)
            thr, root = escape_radius(p), principal_sqrt(a)
            bounded = not (iterate_orbit(p, c + 2.0 * root, op.max_iter, thr).escaped
                           or iterate_orbit(p, c - 2.0 * root, op.max_iter, thr).escaped)
        painted = pixel_at(op, data, col, row) == cfg.bounded_color
        mismatches += painted != bounded
    return mismatches, len(sample)
