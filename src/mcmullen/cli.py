"""Command-line surface: escape-time rendering, hypothesis verification, fixed
critical-point centers, and spine-curve emission.

Exit codes: 0 success (and, for `verify`, all checks passed); 1 I/O or solver
failure; 2 flag errors, sizes above the memory budget, or parameters outside a
check's hypotheses (refused rather than reported as a misleading failure); 3 a
verification ran and failed.

The parser states the flags each subcommand must be given, and _NEEDS those
each --slice and --check reads besides; a missing flag exits 2 with a message
naming it. main parses with one parser per process, built at its first call;
build_parser() returns a new one.

Complex flags are written "re,im" (a bare real is also accepted); --view is
"re_min,re_max,im_min,im_max"; --size is "WIDTHxHEIGHT". All subcommands write CSV
(or PPM for render) deterministically: renders run in fixed 16-row bands, so the
output is a pure function of the inputs.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
import time

import numpy as np

from .errors import (
    HypothesisError,
    InconsistencyError,
    RootFindingError,
    UnderSamplingError,
)
from .family import MapParams, check_modulus, inner_radius, safe_abs
from .regions import ellipse_semi_axes, l_c_rect, polar_contains, w_region_contains
from .render import (
    Diagonal,
    Dynamical,
    FixedA,
    FixedC,
    RenderConfig,
    Viewport,
    _ppm_header,
    render_slice,
)
from .solvers import _diagonal_rows, _fixed_rows, fixed_critical_params
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


# Values such as "--view -5,5,-5,5", "--a -13.1,2.0" or "--size -3x4" start with
# "-" but are data, not flags; argparse only waives dash-led tokens matching its
# built-in negative-number pattern, so widen that pattern to dash + digit + the
# characters of a tuple or a size.
_NEGATIVE_TUPLE = re.compile(r"^-\d[\d.,eEjxX+\-]*$")


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

# The shared flags each --slice and --check reads beyond its subcommand's
# required ones; the keys are the flag's choices.
_NEEDS = {
    "slice": {"fixed-c": "c", "fixed-a": "a", "diagonal": "t", "dynamical": "a c"},
    "check": {"image-ellipse": "a c", "containment": "c", "winding": "c",
              "annulus": "a c", "spine-locus": "t eps", "vminus-sign": "a c"},
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

    def add_shared(sp, names: str, required: str = "") -> None:
        """Add the shared flags a subcommand reads, so any other is refused;
        those in required must be given."""
        for name in names.split():
            kind, help_text = _SHARED_FLAGS[name]
            sp.add_argument(f"--{name}", type=kind, help=help_text,
                            required=name in required.split())

    p_render = sub.add_parser("render", help="render a slice to a binary PPM image")
    add_shared(p_render, "n c a t out max-iter", required="n out")
    p_render.add_argument("--slice", choices=_NEEDS["slice"], required=True)
    p_render.add_argument("--view", type=_parse_view, required=True,
                          help="re_min,re_max,im_min,im_max")
    p_render.add_argument("--size", type=_parse_size, required=True, help="WIDTHxHEIGHT")
    p_render.set_defaults(run=_cmd_render)

    p_verify = sub.add_parser("verify", help="run a certification check, emit CSV")
    add_shared(p_verify, "n c a t out samples max-iter eps", required="n")
    p_verify.add_argument("--check", choices=_NEEDS["check"], required=True)
    p_verify.set_defaults(run=_cmd_verify)

    p_centers = sub.add_parser("centers", help="fixed-critical-point parameters as CSV")
    add_shared(p_centers, "n", required="n")
    add_shared(p_centers.add_mutually_exclusive_group(required=True), "c t")
    add_shared(p_centers, "out")
    p_centers.set_defaults(run=_cmd_centers)

    p_spine = sub.add_parser("spine", help="sampled spine curve as CSV")
    add_shared(p_spine, "t samples out", required="t")
    p_spine.set_defaults(run=_cmd_spine)

    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_needs(args: argparse.Namespace) -> None:
    """Refuse a --slice or --check that was given without all the flags it
    reads, naming the missing ones."""
    for mode, needs in _NEEDS.items():
        if mode in args:
            value = getattr(args, mode)
            missing = [f"--{name}" for name in needs[value].split()
                       if getattr(args, name) is None]
            if missing:
                raise ValueError(f"--{mode} {value} requires {' and '.join(missing)}")


def _given(**kwargs):
    """The keyword arguments whose flag was given; the library's own defaults
    apply to the rest."""
    return {name: value for name, value in kwargs.items() if value is not None}


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks, in order, to the file out or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="ascii") as f:
            f.writelines(chunks)


def _cmd_render(args: argparse.Namespace) -> int:
    if args.slice == "fixed-c":
        slc = FixedC(args.c)
    elif args.slice == "fixed-a":
        slc = FixedA(args.a)
    elif args.slice == "diagonal":
        slc = Diagonal(args.t)
    else:
        slc = Dynamical(MapParams(args.n, args.a, args.c))

    re_min, re_max, im_min, im_max = args.view
    width, height = args.size
    vp = Viewport(re_min, re_max, im_min, im_max, width, height)
    cfg = RenderConfig(**_given(max_iter=args.max_iter))

    t0 = time.perf_counter()
    img = render_slice(args.n, slc, vp, cfg)
    with open(args.out, "wb") as f:  # the pixels as they are, with no encoded copy
        f.write(_ppm_header(img))
        f.write(img.pixels.data)
    elapsed = time.perf_counter() - t0
    # one channel at a time, combined in place: no (height, width, 3) mask
    is_bounded = img.pixels[..., 0] == cfg.bounded_color[0]
    for ch in (1, 2):
        is_bounded &= img.pixels[..., ch] == cfg.bounded_color[ch]
    bounded = int(np.count_nonzero(is_bounded))
    print(f"pixels={width * height} bounded={bounded} elapsed={elapsed:.3f}s")
    return 0


def _mt1_hypotheses(n: int, c: complex) -> bool:
    # 2 ** (n + 1) is an int, so the comparison is exact and cannot overflow; a |c|
    # that overflows reads inf and fails it
    return safe_abs(c) >= 6.0 and 4.0 * safe_abs(c) + 8.0 <= 2 ** (n + 1)


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
        a = check_modulus("a", args.a)
        hits = [spec for spec in specs if w_region_contains(spec, a)]
        if not hits:
            raise HypothesisError(
                f"a = {args.a} lies in none of the {len(specs)} admissible parameter "
                "regions for these (n, c)"
            )
        return [verify_containment(MapParams(n, args.a, c), hits[0].k, **sizes)]

    _require(args.a is not None, "--check containment requires --a outside the large-|c| regime")
    p = MapParams(n, args.a, c)
    a = p.a
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
        return [verify_containment(p, 0, **sizes)]

    if c.imag == 0.0 and c.real > 0.0:
        if n % 2 == 0:
            raise HypothesisError("the small positive-c regime requires odd n")
        if abs(a) > 4.0:
            raise HypothesisError(f"requires |a| <= 4, got |a| = {abs(a)}")
        if a.imag == 0.0 and a.real < 0.0:
            raise HypothesisError("requires a off the negative real axis")
        bound = inner_radius(p)
        if not c.real < bound:
            raise HypothesisError(f"requires c < |a|**(1/n)/max(4,|a|,|c|) = {bound:.6g}")
        return [verify_containment(p, n, **sizes)]

    raise HypothesisError(
        "containment hypotheses not satisfied: need |c| >= 6 with 4|c|+8 <= 2**(n+1), "
        "or real c < -1, or small real c > 0 with odd n"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    check = args.check
    if check in ("containment", "winding"):
        ellipse_semi_axes(args.n, 0.0)  # refuses n >= 1024 before any center is solved

    if check == "image-ellipse":
        p = MapParams(args.n, args.a, args.c)
        sizes = _given(samples=args.samples)
        reports = [verify_image_ellipse(p, k, **sizes) for k in range(2 * args.n)]
    elif check == "containment":
        reports = _containment_reports(args)
    elif check == "winding":
        if not _mt1_hypotheses(args.n, args.c):
            raise HypothesisError(
                f"winding requires |c| >= 6 and 4|c|+8 <= 2**(n+1); "
                f"got |c| = {safe_abs(args.c):.6g}, n = {args.n}"
            )
        sizes = _given(boundary_samples=args.samples)
        specs = fixed_critical_params(args.n, args.c)
        reports = [verify_winding(spec, **sizes) for spec in specs]
    elif check == "annulus":
        p = MapParams(args.n, args.a, args.c)
        sizes = _given(grid=args.samples, max_iter=args.max_iter)
        reports = [verify_annulus_escape(p, **sizes)]
    elif check == "spine-locus":
        sizes = _given(grid=args.samples, max_iter=args.max_iter)
        reports = [verify_spine_locus(args.n, args.t, args.eps, **sizes)]
    else:  # vminus-sign
        _require(args.a.imag == 0.0 and args.c.imag == 0.0,
                 "--check vminus-sign requires real --a and --c")
        reports = [verify_vminus_sign(args.n, args.a.real, args.c.real)]

    _emit([reports_to_csv(reports)], args.out)
    return 0 if all(r.passed for r in reports) else 3


def _cmd_centers(args: argparse.Namespace) -> int:
    rows = _fixed_rows(args.n, args.c) if args.c is not None else _diagonal_rows(args.n, args.t)
    lines = ["j,k,re_w,im_w,re_a,im_a,residual"]
    for j, (w, a, k, residual) in enumerate(rows):
        lines.append(f"{j},{k},{w.real!r},{w.imag!r},{a.real!r},{a.imag!r},{residual!r}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_spine(args: argparse.Namespace) -> int:
    spec = SpineSpec(args.t, **_given(samples=args.samples))
    _emit(_spine_csv(*spine_points(spec)), args.out)
    return 0


# _spine_csv formats _CSV_ROWS rows at a time, so that the CSV's text never
# outgrows a chunk, whatever the sample count.
_CSV_ROWS = 1024


def _spine_csv(theta, plus, minus):
    """The spine CSV in chunks: the header, then the rows of branch 1 and of
    branch -1, each row theta,branch,re,im."""
    yield "theta,branch,re,im\n"
    for branch, curve in (("1", plus), ("-1", minus)):
        for lo in range(0, theta.size, _CSV_ROWS):
            rows = zip(theta[lo:lo + _CSV_ROWS].tolist(), curve[lo:lo + _CSV_ROWS].tolist())
            yield "".join(f"{th!r},{branch},{z.real!r},{z.imag!r}\n" for th, z in rows)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main parses with: built at its first call, not at import, and
    then kept, since parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_needs(args)
        return args.run(args)
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
