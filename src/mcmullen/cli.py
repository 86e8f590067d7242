"""Command-line surface: escape-time rendering, hypothesis verification, fixed
critical-point centers, and spine-curve emission.

Exit codes: 0 success (and, for `verify`, all checks passed); 1 I/O or solver
failure; 2 flag errors, sizes above the memory budget, or parameters outside a
check's hypotheses (refused rather than reported as a misleading failure); 3 a
verification ran and failed.

Complex flags are written "re,im" (a bare real is also accepted); --view is
"re_min,re_max,im_min,im_max"; --size is "WIDTHxHEIGHT". All subcommands write CSV
(or PPM for render) deterministically: renders run in fixed 16-row bands, so the
output is a pure function of the inputs.
"""
from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (
    HypothesisError,
    InconsistencyError,
    RootFindingError,
    UnderSamplingError,
)
from .family import MapParams, eval_map, inner_radius
from .regions import ellipse_semi_axes, l_c_rect, polar_contains, sector_index, w_region_contains
from .render import (
    Diagonal,
    Dynamical,
    FixedA,
    FixedC,
    RenderConfig,
    Viewport,
    encode_ppm,
    render_slice,
)
from .solvers import diagonal_fixed_params, fixed_critical_params
from .spine import SpineSpec, spine_points
from .verify import (
    reports_to_csv,
    verify_annulus_escape,
    verify_containment,
    verify_image_ellipse,
    verify_spine_locus,
    verify_vminus_sign,
    verify_winding,
)

_CHECKS = (
    "image-ellipse",
    "containment",
    "winding",
    "annulus",
    "spine-locus",
    "vminus-sign",
)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected 're,im', got {text!r}")


def _parse_view(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 're_min,re_max,im_min,im_max', got {text!r}")
    a, b, c, d = (float(p) for p in parts)
    return a, b, c, d


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected 'WIDTHxHEIGHT', got {text!r}")
    w, h = int(parts[0]), int(parts[1])
    return w, h


# Values such as "--view -5,5,-5,5" or "--a -13.1,2.0" start with "-" but are
# data, not flags; argparse only waives dash-led tokens matching its built-in
# negative-number pattern, so widen that pattern to dash + digit + tuple chars.
_NEGATIVE_TUPLE = re.compile(r"^-\d[\d.,eEj+\-]*$")


# The flags several subcommands share: name -> (type, help).
_SHARED_FLAGS = {
    "n": (int, "family exponent (integer >= 3)"),
    "c": (_parse_complex, "parameter c as re,im"),
    "a": (_parse_complex, "parameter a as re,im"),
    "t": (_parse_complex, "slice slope t as re,im"),
    "out": (str, "output file path"),
    "samples": (int, "sample/grid count"),
    "max-iter": (int, "iteration budget"),
    "eps": (float, "neighborhood radius"),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._negative_number_matcher = _NEGATIVE_TUPLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcmullen",
        description="Escape-time rendering and numerical certification for the "
        "family z**n + a/z**n + c.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_shared(sp: argparse.ArgumentParser, names: str) -> None:
        """Add the shared flags a subcommand reads, so any other is refused."""
        for name in names.split():
            kind, help_text = _SHARED_FLAGS[name]
            sp.add_argument(f"--{name}", type=kind, default=None, help=help_text)

    p_render = sub.add_parser("render", help="render a slice to a binary PPM image")
    add_shared(p_render, "n c a t out max-iter")
    p_render.add_argument(
        "--slice", choices=("fixed-c", "fixed-a", "diagonal", "dynamical"), default=None
    )
    p_render.add_argument("--view", type=_parse_view, default=None,
                          help="re_min,re_max,im_min,im_max")
    p_render.add_argument("--size", type=_parse_size, default=None, help="WIDTHxHEIGHT")

    p_verify = sub.add_parser("verify", help="run a certification check, emit CSV")
    add_shared(p_verify, "n c a t out samples max-iter eps")
    p_verify.add_argument("--check", choices=_CHECKS, default=None)

    p_centers = sub.add_parser("centers", help="fixed-critical-point parameters as CSV")
    add_shared(p_centers, "n c t out")

    p_spine = sub.add_parser("spine", help="sampled spine curve as CSV")
    add_shared(p_spine, "t samples out")

    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _given(**kwargs):
    """The keyword arguments whose flag was given; the library's own defaults
    apply to the rest."""
    return {name: value for name, value in kwargs.items() if value is not None}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _cmd_render(args: argparse.Namespace) -> int:
    _require(args.slice is not None, "--slice is required")
    _require(args.n is not None, "--n is required")
    _require(args.view is not None, "--view is required")
    _require(args.size is not None, "--size is required")
    _require(args.out is not None, "--out is required")

    if args.slice == "fixed-c":
        _require(args.c is not None, "--slice fixed-c requires --c")
        slc = FixedC(args.c)
    elif args.slice == "fixed-a":
        _require(args.a is not None, "--slice fixed-a requires --a")
        slc = FixedA(args.a)
    elif args.slice == "diagonal":
        _require(args.t is not None, "--slice diagonal requires --t")
        slc = Diagonal(args.t)
    else:
        _require(args.a is not None and args.c is not None,
                 "--slice dynamical requires --a and --c")
        slc = Dynamical(MapParams(args.n, args.a, args.c))

    re_min, re_max, im_min, im_max = args.view
    width, height = args.size
    vp = Viewport(re_min, re_max, im_min, im_max, width, height)
    cfg = RenderConfig(**_given(max_iter=args.max_iter))

    t0 = time.perf_counter()
    img = render_slice(args.n, slc, vp, cfg)
    data = encode_ppm(img)
    Path(args.out).write_bytes(data)
    elapsed = time.perf_counter() - t0
    bounded = int(np.count_nonzero((img.pixels == cfg.bounded_color).all(axis=-1)))
    print(f"pixels={width * height} bounded={bounded} elapsed={elapsed:.3f}s")
    return 0


def _mt1_hypotheses(n: int, c: complex) -> bool:
    # 2 ** (n + 1) is an int, so the comparison is exact and cannot overflow
    return abs(c) >= 6.0 and 4.0 * abs(c) + 8.0 <= 2 ** (n + 1)


def _containment_reports(args: argparse.Namespace):
    """Route --check containment to the hypothesis regime the flags satisfy:
    large |c| (rows for every solved center, or the single region containing --a),
    real c < -1 with a in its admissible polar rectangle, or small real c > 0 with
    odd n. Anything else is refused."""
    n, c = args.n, args.c
    sizes = _given(samples=args.samples)

    if _mt1_hypotheses(n, c):
        specs = fixed_critical_params(n, c)
        if args.a is None:
            return [
                verify_containment(MapParams(n, spec.a_j, c), spec.k, **sizes)
                for spec in specs
            ]
        hits = [spec for spec in specs if w_region_contains(spec, args.a)]
        if not hits:
            raise HypothesisError(
                f"a = {args.a} lies in none of the {len(specs)} admissible parameter "
                "regions for these (n, c)"
            )
        return [verify_containment(MapParams(n, args.a, c), hits[0].k, **sizes)]

    _require(args.a is not None, "--check containment requires --a outside the large-|c| regime")
    a = args.a
    if c.imag == 0.0 and c.real < -1.0:
        eps = args.eps if args.eps is not None else 0.1
        if c.real >= -(1.0 + eps):
            raise HypothesisError(f"requires c < -(1+eps) = {-(1.0 + eps)}, got c = {c.real}")
        if 6.0 * abs(c) + 4.0 >= 2 ** (n + 1):
            raise HypothesisError(
                f"requires 6|c|+4 < 2**(n+1): {6.0 * abs(c) + 4.0} vs {2 ** (n + 1)}"
            )
        if not polar_contains(l_c_rect(c, eps), a):
            raise HypothesisError(
                f"a = {a} is outside the admissible polar rectangle for c = {c}, eps = {eps}"
            )
        return [verify_containment(MapParams(n, a, c), 0, **sizes)]

    if c.imag == 0.0 and c.real > 0.0:
        if n % 2 == 0:
            raise HypothesisError("the small positive-c regime requires odd n")
        if abs(a) > 4.0:
            raise HypothesisError(f"requires |a| <= 4, got |a| = {abs(a)}")
        if a.imag == 0.0 and a.real < 0.0:
            raise HypothesisError("requires a off the negative real axis")
        p = MapParams(n, a, c)
        bound = inner_radius(p)
        if not c.real < bound:
            raise HypothesisError(f"requires c < |a|**(1/n)/max(4,|a|,|c|) = {bound:.6g}")
        return [verify_containment(p, n, **sizes)]

    raise HypothesisError(
        "containment hypotheses not satisfied: need |c| >= 6 with 4|c|+8 <= 2**(n+1), "
        "or real c < -1, or small real c > 0 with odd n"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    _require(args.check is not None, "--check is required")
    check = args.check
    if check in ("containment", "winding") and args.n is not None:
        ellipse_semi_axes(args.n, 0.0)  # refuses n >= 1024 before any center is solved

    if check == "image-ellipse":
        _require(args.n is not None and args.a is not None and args.c is not None,
                 "--check image-ellipse requires --n, --a, --c")
        p = MapParams(args.n, args.a, args.c)
        sizes = _given(samples=args.samples)
        reports = [verify_image_ellipse(p, k, **sizes) for k in range(2 * args.n)]
    elif check == "containment":
        _require(args.n is not None and args.c is not None,
                 "--check containment requires --n and --c")
        reports = _containment_reports(args)
    elif check == "winding":
        _require(args.n is not None and args.c is not None,
                 "--check winding requires --n and --c")
        if not _mt1_hypotheses(args.n, args.c):
            raise HypothesisError(
                f"winding requires |c| >= 6 and 4|c|+8 <= 2**(n+1); "
                f"got |c| = {abs(args.c):.6g}, n = {args.n}"
            )
        sizes = _given(boundary_samples=args.samples)
        specs = fixed_critical_params(args.n, args.c)
        reports = [verify_winding(spec, **sizes) for spec in specs]
    elif check == "annulus":
        _require(args.n is not None and args.a is not None and args.c is not None,
                 "--check annulus requires --n, --a, --c")
        p = MapParams(args.n, args.a, args.c)
        sizes = _given(grid=args.samples, max_iter=args.max_iter)
        reports = [verify_annulus_escape(p, **sizes)]
    elif check == "spine-locus":
        _require(args.n is not None and args.t is not None and args.eps is not None,
                 "--check spine-locus requires --n, --t, --eps")
        sizes = _given(grid=args.samples, max_iter=args.max_iter)
        reports = [verify_spine_locus(args.n, args.t, args.eps, **sizes)]
    else:  # vminus-sign
        _require(args.n is not None and args.a is not None and args.c is not None,
                 "--check vminus-sign requires --n, --a, --c")
        _require(args.a.imag == 0.0 and args.c.imag == 0.0,
                 "--check vminus-sign requires real --a and --c")
        reports = [verify_vminus_sign(args.n, args.a.real, args.c.real)]

    _emit(reports_to_csv(reports), args.out)
    return 0 if all(r.passed for r in reports) else 3


def _cmd_centers(args: argparse.Namespace) -> int:
    _require(args.n is not None, "--n is required")
    _require(
        (args.c is None) != (args.t is None),
        "exactly one of --c or --t is required",
    )
    n = args.n
    if args.c is not None:
        rows = [(s.w_j, s.a_j, s.k, args.c) for s in fixed_critical_params(n, args.c)]
    else:
        pairs = diagonal_fixed_params(n, args.t)
        rows = [(w, a, sector_index(n, w, a), args.t * a) for w, a in pairs]
    lines = ["j,k,re_w,im_w,re_a,im_a,residual"]
    for j, (w, a, k, c) in enumerate(rows):
        residual = abs(eval_map(MapParams(n, a, c), w) - w)
        lines.append(f"{j},{k},{w.real!r},{w.imag!r},{a.real!r},{a.imag!r},{residual!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_spine(args: argparse.Namespace) -> int:
    _require(args.t is not None, "--t is required")
    spec = SpineSpec(args.t, **_given(samples=args.samples))
    theta, plus, minus = spine_points(spec)
    lines = ["theta,branch,re,im"]
    for th, z in zip(theta, plus):
        lines.append(f"{float(th)!r},1,{float(z.real)!r},{float(z.imag)!r}")
    for th, z in zip(theta, minus):
        lines.append(f"{float(th)!r},-1,{float(z.real)!r},{float(z.imag)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.subcommand == "render":
            return _cmd_render(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        if args.subcommand == "centers":
            return _cmd_centers(args)
        return _cmd_spine(args)
    except HypothesisError as exc:
        print(f"mcmullen: hypothesis not satisfied: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"mcmullen: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (RootFindingError, InconsistencyError, UnderSamplingError) as exc:
        print(f"mcmullen: solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mcmullen: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
