"""Command-line surface: flags, CSV/PPM outputs, exit codes."""
import contextlib
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _edge_values import complex_value, real
from mcmullen import cli, solvers, spine
from mcmullen.cli import main
from mcmullen.family import MapParams, escape_radius, fixed_point_residual, iterate_orbit
from mcmullen.render import (
    FixedC,
    RenderConfig,
    Viewport,
    classify_pixel,
    encode_ppm,
    render_bytes,
    render_slice,
)
from mcmullen.solvers import fixed_critical_params
from mcmullen.spine import SpineSpec, spine_points
from mcmullen.verify import (
    CSV_HEADER,
    reports_to_csv,
    verify_annulus_escape,
    verify_containment,
    verify_image_ellipse,
    verify_spine_locus,
    verify_vminus_sign,
    verify_winding,
)

_SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRenderCommand:
    def test_writes_ppm_with_exact_size(self, tmp_path, capsys):
        out = tmp_path / "a.ppm"
        code, stdout, _ = run(
            capsys,
            "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-5,5,-5,5", "--size", "40x30", "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n40 30\n255\n")
        assert len(data) == len(b"P6\n40 30\n255\n") + 40 * 30 * 3
        assert "pixels=1200" in stdout and "elapsed=" in stdout

    def test_dash_led_values_parse(self, tmp_path, capsys):
        # both "--view -5,5,-5,5" and "--view=-5,5,-5,5" are accepted
        for view_args in (["--view", "-5,5,-5,5"], ["--view=-5,5,-5,5"]):
            out = tmp_path / "b.ppm"
            code, _, _ = run(
                capsys,
                "render", "--n", "4", "--slice", "dynamical",
                "--a", "-13.122875503987459,2.008554506696609", "--c", "0,6",
                *view_args, "--size", "8x8", "--out", str(out),
            )
            assert code == 0

    def test_diagonal_slice(self, tmp_path, capsys):
        out = tmp_path / "d.ppm"
        code, _, _ = run(
            capsys,
            "render", "--n", "6", "--slice", "diagonal", "--t", "1,0",
            "--view", "-1,7,-4,4", "--size", "16x16", "--out", str(out),
        )
        assert code == 0
        assert out.stat().st_size == len(b"P6\n16 16\n255\n") + 16 * 16 * 3

    def test_diagonal_slice_tiny_slope_renders(self, tmp_path, capsys):
        # the diagonal slice needs no spine, so the spine's slope limit does not apply
        out = tmp_path / "tiny.ppm"
        code, _, _ = run(
            capsys,
            "render", "--n", "4", "--slice", "diagonal", "--t", "1e-200",
            "--view", "-1,1,-1,1", "--size", "8x8", "--out", str(out),
        )
        assert code == 0
        assert out.stat().st_size == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_threads_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.ppm"
        code, _, _ = run(
            capsys,
            "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-16,-3,-6.5,6.5", "--size", "32x32",
            "--out", str(out), "--threads", "1",
        )
        assert code == 2
        assert not out.exists()

    def test_bounded_count_at_large_max_iter(self, tmp_path, capsys):
        # a zoom on a superattracting basin of the README's dynamical plane
        p = MapParams(4, -13.122875503987459 + 2.008554506696609j, 6j)
        vp = Viewport(-0.60, -0.50, -1.32, -1.22, 16, 16)
        out = tmp_path / "m.ppm"
        for max_iter in (511, 1000, 4096):
            code, stdout, _ = run(
                capsys,
                "render", "--n", "4", "--slice", "dynamical",
                "--a", "-13.122875503987459,2.008554506696609", "--c", "0,6",
                "--view", "-0.60,-0.50,-1.32,-1.22", "--size", "16x16",
                "--max-iter", str(max_iter), "--out", str(out),
            )
            assert code == 0
            want = sum(
                not iterate_orbit(p, vp.point_at(col, row), max_iter, escape_radius(p)).escaped
                for row in range(16)
                for col in range(16)
            )
            assert 0 < want < 256
            assert f"bounded={want} " in stdout, (max_iter, stdout)

    @pytest.mark.parametrize("max_iter", [1, 2, 256])
    def test_bounded_count_matches_pixels(self, tmp_path, capsys, max_iter):
        # 5x5 on [-1, 1]**2: the center pixel is a = 0, and at max_iter 1 six more
        # pixels are bounded; the count equals the scalar classifier's and the
        # bounded triples of the written PPM
        vp, cfg = Viewport(-1.0, 1.0, -1.0, 1.0, 5, 5), RenderConfig(max_iter=max_iter)
        assert vp.point_at(2, 2) == 0
        out = tmp_path / "z.ppm"
        code, stdout, _ = run(
            capsys, "render", "--n", "3", "--slice", "fixed-c", "--c", "-0.2,0",
            "--view", "-1,1,-1,1", "--size", "5x5", "--max-iter", str(max_iter),
            "--out", str(out),
        )
        assert code == 0
        want = sum(classify_pixel(3, FixedC(-0.2), vp.point_at(col, row), cfg)
                   == cfg.bounded_color for row in range(5) for col in range(5))
        body = out.read_bytes()[len(b"P6\n5 5\n255\n"):]
        triples = [tuple(body[i:i + 3]) for i in range(0, len(body), 3)]
        assert triples.count(cfg.bounded_color) == want
        assert want >= (7 if max_iter == 1 else 1)
        assert f"bounded={want} " in stdout

    def test_peak_within_render_bytes(self, tmp_path, capsys):
        # the whole command, the bounded count included, on a wide 800x800 view
        # (most orbits leave at their first step) stays within the estimate
        vp = Viewport(-5.0, 5.0, -5.0, 5.0, 800, 800)
        tracemalloc.start()
        try:
            assert main(["render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
                         "--view", "-5,5,-5,5", "--size", "800x800",
                         "--out", str(tmp_path / "w.ppm")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "pixels=640000 " in capsys.readouterr().out
        assert peak <= render_bytes(vp)

    def test_peak_grows_by_one_image(self, tmp_path, capsys):
        # from an 800x400 to an 800x1600 wide view the command's traced peak
        # grows by at most 4 B per pixel: the 3-byte grid, written after its
        # header with no encoded copy, and the bounded count's masks (7.6 B per
        # pixel when the encoded bytes were built twice and kept alive)
        peaks = []
        for height in (400, 1600):
            tracemalloc.start()
            try:
                assert main(["render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
                             "--view", "-5,5,-5,5", "--size", f"800x{height}",
                             "--out", str(tmp_path / "w.ppm")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert (peaks[1] - peaks[0]) / (800 * 1200) <= 4.0

    def test_non_finite_slice_parameters(self, tmp_path, capsys):
        out = tmp_path / "nf.ppm"
        common = ["--view", "-1,1,-1,1", "--size", "4x4", "--out", str(out)]
        assert run(capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "nan,0",
                   *common)[0] == 2
        assert run(capsys, "render", "--n", "4", "--slice", "diagonal", "--t", "inf,0",
                   *common)[0] == 2
        # c = t*a whose modulus overflows gives an escape threshold of inf or nan,
        # which the orbit kernel refuses without a warning
        code, stdout, err = run(capsys, "render", "--n", "4", "--slice", "diagonal",
                                "--t", "1e300", "--view", "-1e10,1e10,-1e10,1e10",
                                "--size", "8x8", "--out", str(out))
        assert code == 2 and stdout == "" and "threshold must be finite" in err
        # a held parameter whose modulus overflows is refused by name
        for slc, name in ((["--slice", "fixed-a", "--a", "1.5e308,1.5e308"], "a"),
                          (["--slice", "fixed-c", "--c", "1.5e308,1.5e308"], "c"),
                          (["--slice", "diagonal", "--t", "1.5e308,1.5e308"], "t"),
                          (["--slice", "dynamical", "--a", "1.5e308,1.5e308", "--c", "6"], "a")):
            code, stdout, err = run(capsys, "render", "--n", "4", *slc, *common)
            assert code == 2 and stdout == "" and f"{name} = (1.5e+308+1.5e+308j)" in err
        assert not out.exists()

    def test_max_iter_bound(self, tmp_path, capsys):
        # a view far outside the set, where every orbit leaves at once, runs at the
        # largest budget; one past it exits 2 before rendering
        out = tmp_path / "far.ppm"
        common = ["render", "--n", "4", "--slice", "fixed-c", "--c", "100,0",
                  "--view", "1000,1010,1000,1010", "--size", "8x8", "--out", str(out)]
        code, stdout, _ = run(capsys, *common, "--max-iter", "2147483647")
        assert code == 0 and "bounded=0 " in stdout
        out.unlink()
        for bad in ("2147483648", "100000000000000000000", "0"):
            code, stdout, err = run(capsys, *common, "--max-iter", bad)
            assert code == 2 and stdout == "" and "max_iter must be an integer" in err
        assert not out.exists()

    def test_missing_required_flags(self, tmp_path, capsys):
        out = tmp_path / "x.ppm"
        base = ["render", "--slice", "fixed-c", "--c", "0,6", "--view", "-1,1,-1,1",
                "--size", "4x4", "--out", str(out)]
        assert run(capsys, *base)[0] == 2  # no --n
        assert run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--view", "-1,1,-1,1",
            "--size", "4x4", "--out", str(out),
        )[0] == 2  # fixed-c without --c

    def test_bad_geometry_flags(self, tmp_path, capsys):
        out = tmp_path / "x.ppm"
        assert run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-1,1,-1", "--size", "4x4", "--out", str(out),
        )[0] == 2  # three view floats
        assert run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-1,1,-1,1", "--size", "4by4", "--out", str(out),
        )[0] == 2
        code, _, err = run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-1,1,-1,1", "--size", "-3x4", "--out", str(out),
        )  # a dash-led size is read as a value, and refused by the size check
        assert code == 2 and "width and height must be integers >= 1, got -3 x 4" in err
        for view in ("0,inf,-5,5", "0,1e308,-1e308,1e308"):  # inf bound; pixel_dy overflows
            code, _, err = run(
                capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
                "--view", view, "--size", "8x8", "--out", str(out),
            )
            assert code == 2 and "viewport" in err
        assert not out.exists()

    def test_memory_budget_exit_2(self, tmp_path, capsys):
        out = tmp_path / "huge.ppm"
        code, _, err = run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-5,5,-5,5", "--size", "100000x100000", "--out", str(out),
        )
        assert code == 2 and "memory budget" in err
        assert not out.exists()

    def test_io_error_exit_1(self, capsys):
        code, _, err = run(
            capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
            "--view", "-1,1,-1,1", "--size", "4x4", "--out", "/nonexistent-dir/x.ppm",
        )
        assert code == 1
        assert "io error" in err


class TestVerifyCommand:
    def test_image_ellipse_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "image-ellipse", "--n", "3",
            "--a", "1,1", "--c", "0.5,0", "--samples", "100",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 6  # one row per sector, 2n = 6
        assert all(line.endswith(",true") for line in lines[1:])

    def test_containment_small_c(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "containment", "--n", "3",
            "--a", "1,0", "--c", "0.2,0", "--samples", "200",
        )
        assert code == 0
        assert "containment," in out

    def test_winding_hypothesis_gate(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "winding", "--n", "3", "--c", "0,0.5")
        assert code == 2
        assert "hypothesis" in err

    def test_winding_reports_failures_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "winding", "--n", "4", "--c", "0,6",
            "--samples", "512",
        )
        assert code == 3  # membership violations are reported, not hidden
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all("winding=1" in line for line in lines[1:])

    @pytest.mark.parametrize("check, samples, rc, digest", [
        ("containment", "200000", 0,
         "c87cb1744f4c53828f5e63dc0df3ce919cde8793907bb605c667ea6964c4178f"),
        ("winding", "65536", 3,
         "186d7e65d4de2ed1c558835f02e98a3fa2b03e3dd7dacd70bc529aede5833c1b"),
    ])
    def test_golden_csv(self, capsys, check, samples, rc, digest):
        # sha256 of the CSV: the benchmark's own containment and winding ops.
        # The chunking may change; these bytes may not. Containment's centers
        # moved by ulps with the Newton-polygon seeds, and its worst margins by
        # up to 4.3e-9 relative.
        code, out, _ = run(capsys, "verify", "--check", check, "--n", "8", "--c", "6",
                           "--samples", samples)
        assert code == rc
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["--check", "annulus", "--n", "4", "--c", "0,6", "--a",
          "-13.122875503987459,2.008554506696609", "--max-iter", "1000", "--samples", "128"],
         "435bf551a07b8ca26226d270e2a382f1db715016382ebf377d5c3b324ba8e537"),
        (["--check", "annulus", "--n", "4", "--c", "0,6", "--a",
          "-7.068231743314014,3.172512758208529", "--max-iter", "1000", "--samples", "128"],
         "630f43de403cfce065b454bed9c2e6b7c6a2320b7f27adfc229d9127fcec3d50"),
        (["--check", "spine-locus", "--n", "20", "--t", "2.017228050435922,0.02732673218497765",
          "--eps", "0.25", "--max-iter", "200", "--samples", "300"],
         "44fb5791d23f5c1c4bc9c64f4b4b0867badc45cd9cbc96a071daa5e1d9372017"),
    ])
    def test_golden_kernel_csv(self, capsys, argv, digest):
        # sha256 of the CSV of the two checks that run the orbit kernel, taken
        # before orbits were retired on proofs: the benchmark's annulus ops at
        # its two centers (seed 1) and its spine-locus op. The kernel's
        # schedule and retirement may change; these bytes may not.
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, bound_mib", [
        ("--check containment --n 8 --c 6 --samples 200000", 1.38),
        ("--check winding --n 8 --c 6 --samples 65536", 2.27),
        ("--check annulus --n 4 --c 0,6 --a -13.122875503987459,2.008554506696609 "
         "--max-iter 1000 --samples 128", 1.05),
        ("--check annulus --n 4 --c 0,6 --a -7.068231743314014,3.172512758208529 "
         "--max-iter 1000 --samples 128", 1.05),
        ("--check spine-locus --n 20 --t 2.017228050435922,0.02732673218497765 "
         "--eps 0.25 --max-iter 200 --samples 300", 2.56),
    ])
    def test_certify_peaks(self, capsys, argv, bound_mib):
        # the five CSVs pinned above, the benchmark's verify ops, each within its
        # traced peak plus 10% (1.25, 2.06, 0.95, 0.95 and 2.32 MiB): containment
        # streams its boundary from _lattice, spine-locus its lattice through
        # spine_within and the kernel, and winding forms each walk segment when
        # the walk reaches it
        tracemalloc.start()
        try:
            assert main(["verify", *argv.split()]) in (0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= bound_mib * 2**20

    def test_annulus(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "annulus", "--n", "5", "--a", "2,0",
            "--c", "1,1", "--samples", "12", "--max-iter", "200",
        )
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",true")

    def test_annulus_max_iter_bound(self, capsys):
        # every annulus orbit leaves within a few steps, so the largest budget runs
        args = ["verify", "--check", "annulus", "--n", "4", "--a", "1", "--c", "6",
                "--samples", "8", "--max-iter"]
        code, out, _ = run(capsys, *args, "2147483647")
        assert code == 0 and out.splitlines()[1].endswith(",true")
        for check in (args, ["verify", "--check", "spine-locus", "--n", "4", "--t", "2",
                             "--eps", "0.25", "--samples", "32", "--max-iter"]):
            for bad in ("2147483648", "100000000000000000000"):
                code, out, err = run(capsys, *check, bad)
                assert code == 2 and out == "" and "max_iter must be an integer" in err

    @pytest.mark.parametrize("argv", [
        ["--check", "containment", "--n", "8", "--c", "-3"],
        ["--check", "containment", "--n", "3", "--c", "0.01"],
        ["--check", "image-ellipse", "--n", "4", "--c", "6", "--samples", "16"],
        ["--check", "annulus", "--n", "4", "--c", "6", "--samples", "8", "--max-iter", "10"],
    ])
    def test_overflowing_a_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--a", "1.5e308,1.5e308")
        assert code == 2 and out == ""
        assert "a = (1.5e+308+1.5e+308j) has a modulus that overflows" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", ["inf,0", "nan,0", "0,-inf"])
    def test_containment_non_finite_a_exit_2_naming_a(self, capsys, a):
        # refused by name before the region test, which would warn and then
        # report that a lies in no region
        code, out, err = run(capsys, "verify", "--check", "containment", "--n", "4",
                             "--c", "0,6", "--a", a, "--samples", "16")
        assert code == 2 and out == "" and "a must be finite" in err

    def test_spine_locus_slope_whose_scale_is_nan_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--check", "spine-locus", "--n", "4",
                             "--t", "-1e300,1e8", "--eps", "13", "--samples", "32",
                             "--max-iter", "5")
        assert code == 2 and out == "" and "t = " in err and "too large" in err

    def test_overflowing_c_fails_the_large_c_hypotheses(self, capsys):
        code, out, err = run(capsys, "verify", "--check", "winding", "--n", "8",
                             "--c", "1.5e308,1.5e308")
        assert code == 2 and out == "" and "|c| = inf" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_spine_locus_non_finite_eps_exit_2(self, capsys, eps):
        code, out, err = run(
            capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", "2,0",
            f"--eps={eps}", "--samples", "32", "--max-iter", "50",
        )
        assert code == 2
        assert out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("refused, name, runs", [
        # 2s overflows: the outer band's samples were inf or nan and "escaped"
        (["annulus", "--n", "4", "--a", "1", "--c", "1e308", "--samples", "8", "--max-iter", "3"],
         "s = 1e+308",
         ["annulus", "--n", "4", "--a", "1e300", "--c", "8e307", "--samples", "8",
          "--max-iter", "3"]),
        # t_inner underflows to 0, which np.geomspace refused with its own message
        (["annulus", "--n", "3", "--a", "1e-300", "--c", "1e300"], "t_inner = 0.0",
         ["annulus", "--n", "3", "--a", "1e-300", "--c", "5e196", "--samples", "8"]),
        # t_inner * 1e-3 is subnormal
        (["annulus", "--n", "4", "--a", "1", "--c", "0,1e306", "--samples", "8"],
         "t_inner = 1e-306",
         ["annulus", "--n", "4", "--a", "1", "--c", "0,1e300", "--samples", "8"]),
        # spine_within's clearing diameter 2r overflows
        (["spine-locus", "--n", "4", "--t", "0.5", "--eps", "1e308", "--samples", "32",
          "--max-iter", "5"], "eps = 1e+308",
         ["spine-locus", "--n", "4", "--t", "0.5", "--eps", "1e307", "--samples", "32",
          "--max-iter", "5"]),
        # c = t*a overflows on the lattice as well
        (["spine-locus", "--n", "4", "--t", "2", "--eps", "1e308", "--samples", "32",
          "--max-iter", "5"], "eps = 1e+308",
         ["spine-locus", "--n", "4", "--t", "2", "--eps", "1e307", "--samples", "32",
          "--max-iter", "5"]),
        # u(t) + eps overflows near the slope limit
        (["spine-locus", "--n", "4", "--t", "1.5e-154", "--eps", "1e307", "--samples", "32"],
         "eps = 1e+307",
         ["spine-locus", "--n", "20", "--t", "1e-150", "--eps", "1e300", "--samples", "32",
          "--max-iter", "5"]),
    ])
    def test_lattice_beyond_binary64_exit_2(self, capsys, refused, name, runs):
        # refused before any sample is formed, so with no NumPy warning either;
        # a lattice just inside binary64 runs quietly and passes
        code, out, err = run(capsys, "verify", "--check", *refused)
        assert code == 2 and out == ""
        assert name in err and "binary64" in err
        code, out, err = run(capsys, "verify", "--check", *runs)
        assert code == 0 and err == "" and out.splitlines()[1].endswith(",true")

    @pytest.mark.parametrize("t", ["1e-200,0", "1e-160,0"])
    def test_spine_locus_tiny_slope_exit_2(self, capsys, t):
        code, out, err = run(
            capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", t, "--eps", "0.25",
        )
        assert code == 2 and out == ""
        assert "t = " in err and "too small" in err

    def test_spine_locus_that_tests_nothing_exit_2(self, capsys):
        # at |t| = 1e300 the whole lattice lies within eps of the spine
        code, out, err = run(
            capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", "1e300,0",
            "--eps", "0.25", "--samples", "32",
        )
        assert code == 2 and out == ""
        assert "t = (1e+300+0j)" in err and "eps = 0.25" in err and "nothing" in err

    def test_spine_locus_near_the_slope_limit_is_quiet(self, capsys):
        # the spine samples reach about 1e300 here; squares and powers of them
        # overflow, which must neither warn nor change a row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", "1e-150,0",
                "--eps", "0.25", "--samples", "32", "--max-iter", "20",
            )
        assert code == 0 and err == ""
        assert out.splitlines()[1] == (
            "spine-locus,n=20;t=1e-150+0j;eps=0.25;grid=32;max_iter=20;tested=1023;"
            "skipped=1,1024,0,0.9523809523809523,true"
        )

    def test_spine_locus_requires_eps(self, capsys):
        assert run(
            capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", "2,0",
        )[0] == 2
        code, out, _ = run(
            capsys, "verify", "--check", "spine-locus", "--n", "20", "--t", "2,0",
            "--eps", "0.25", "--samples", "32", "--max-iter", "100",
        )
        assert code == 0

    def test_memory_budget_exit_2(self, capsys):
        for argv in (
            ("--check", "spine-locus", "--n", "20", "--t", "2,0", "--eps", "0.25"),
            ("--check", "annulus", "--n", "4", "--a", "1,0", "--c", "0,6"),
            ("--check", "winding", "--n", "4", "--c", "0,6"),
            ("--check", "containment", "--n", "3", "--a", "1,0", "--c", "0.2,0"),
        ):
            code, out, err = run(capsys, "verify", *argv, "--samples", "100000000")
            assert code == 2 and "memory budget" in err and out == ""

    def test_vminus_mismatch_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "vminus-sign", "--n", "3",
            "--a", "2,0", "--c", "0.3,0",
        )
        assert code == 3
        assert "regime=1" in out

    def test_unknown_check(self, capsys):
        assert run(capsys, "verify", "--check", "nonsense", "--n", "3")[0] == 2

    def test_overflowing_n_exit_2(self, capsys):
        # 2**n overflows binary64 from n = 1024: refused with a message, before any solve
        for argv in (
            ("--check", "image-ellipse", "--n", "2000", "--a", "1", "--c", "0", "--samples", "16"),
            ("--check", "winding", "--n", "1100", "--c", "6"),
            ("--check", "containment", "--n", "1100", "--c", "6"),
            ("--check", "containment", "--n", "1100", "--c", "-3", "--a", "2"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2 and "binary64" in err and out == "", argv

    def test_ellipse_checks_run_where_semi_axes_round_equal(self, capsys):
        # |a|/2**n below half an ulp of 2**n rounds both semi-axes to 2**n; the
        # checks run on that circle: 2n image-ellipse rows, n containment rows
        for argv, rows in (
            (("--check", "image-ellipse", "--n", "30", "--a", "1", "--c", "0"), 60),
            (("--check", "containment", "--n", "30", "--c", "6"), 30),
        ):
            code, out, _ = run(capsys, "verify", *argv)
            lines = out.strip().splitlines()
            assert code == 0 and lines[0] == CSV_HEADER, argv
            assert len(lines) == 1 + rows, argv
            assert all(line.endswith(",true") for line in lines[1:]), argv

    def test_winding_at_large_n_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "winding", "--n", "300", "--c", "6",
            "--samples", "4096",
        )
        assert code in (0, 3)
        assert len(out.strip().splitlines()) == 1 + 300

    def test_containment_nonfinite_eps_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--check", "containment", "--n", "4", "--c", "-3",
            "--a", "1", "--eps", "nan",
        )
        assert code == 2 and out == "" and "eps must be finite and positive" in err

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        code, stdout, _ = run(
            capsys, "verify", "--check", "annulus", "--n", "3", "--a", "1,0",
            "--c", "0,0", "--samples", "8", "--out", str(dest),
        )
        assert code == 0
        assert dest.read_text().startswith(CSV_HEADER)
        assert stdout == ""


_SOLVER = "mcmullen: solver failure: "
_INVALID = "mcmullen: invalid arguments: "

# centers argvs with their exit code, stderr and CSV sha256 (None: no file), as
# written since Aberth starts from the Newton polygon's seeds and the dedupe keeps
# a-values whose discs are disjoint; every row of each CSV lies within a ulp of
# mpmath's root. Disjoint discs separate the a-values of --c 1e13 up to n = 16 and
# of --t 1e8, whose a-values lie near 0; the tiny-|t| a-values lie ulps apart and
# still merge. At --c 1e-30 the root near c is found; at a subnormal c its a
# underflows. Then the overflow refusal, small and complex c, and the real
# slices at n = 3 to 8. The diagonal does not converge from n = 48 at small |t|
# (ROADMAP Known defects), and the sector of the negative real a of --n 3 --c 0,6
# follows the rounding of its Im a (mpmath gives k = 1, the CSV k = 2).
_CENTERS_PINS = [
    ("--n 4 --c 1e13", 0, "",
     "6a46524530ea191adb157cb7da1bae812ded59637db49669850b5f11f591d81a"),
    ("--n 16 --c 1e13", 0, "",
     "217a77ed7f44d15b6ba89cf314a4bd7d1d4d2f1e69dda36f508b4b579c4dd762"),
    ("--n 24 --c 1e13", 1, _SOLVER + (
        "expected 24 distinct fixed-critical parameters for |c| >= 1, found 8\n"), None),
    ("--n 5 --t 1e-20", 1, _SOLVER + (
        "t = (1e-20+0j): 6 of the 9 centers have an a-value within the dedupe tolerance "
        "of another's, so the list is incomplete\n"), None),
    ("--n 3 --t 1e-14", 1, _SOLVER + (
        "t = (1e-14+0j): 1 of the 5 centers have an a-value within the dedupe tolerance "
        "of another's, so the list is incomplete\n"), None),
    ("--n 3 --t 1e8", 0, "",
     "7fdfb16809e120ff75d231c59d6dfcdaecbc370ed1e4ea0f7e2816875467e745"),
    ("--n 5 --c 1e-30", 0, "",
     "bb321c5da30c567f22ef996efb835bdce01f3edaf18f50720c29af44a7f93f38"),
    ("--n 3 --c 1e-100", 2, _INVALID + (
        "c = (1e-100+0j) puts a center's a = w**(2n) outside binary64: 0 or not "
        "finite\n"), None),
    ("--n 3 --c 5e-324", 2, _INVALID + (
        "c = (5e-324+0j) puts a center's a = w**(2n) outside binary64: 0 or not "
        "finite\n"), None),
    ("--n 3 --t 1e-100", 1, _SOLVER + (
        "t = (1e-100+0j): 3 of the 5 centers have an a-value within the dedupe tolerance "
        "of another's, so the list is incomplete\n"), None),
    ("--n 4 --c 1e200", 2, _INVALID + (
        "c = (1e+200+0j) is too large: the centers' a, about |c|**2/4, overflows "
        "binary64\n"), None),
    ("--n 4 --c 0.375", 0, "",
     "c7a397ad18582d4473b83e13a52ccde60ae32903d2d462135a906960506a2a96"),
    ("--n 4 --c 0.05,0.02", 0, "",
     "d091113860d2be6566f1b04c94a55c2da7e4c1536d6260b0a30813d351c86827"),
    ("--n 6 --c -3,2", 0, "",
     "c13104eee8f5755b2cda54c3a57b24e472bb3a32f0156be7597bfb3f82dec145"),
    ("--n 4 --t 0.1,0.3", 0, "",
     "e9b7c6d88db1b119777270c0ce1ef08e084b34f43493af2431bce0f09205c758"),
    ("--n 3 --c 6,0", 0, "",
     "a7cd67d8cbcf1cdedce24842984e3f0d0e601c6d732e407d143f57ca5c7170d1"),
    ("--n 4 --c 6,0", 0, "",
     "c789d89e8bb6f90beadb44d8134deebe19b00de18e145f9b46490e60ea4fabeb"),
    ("--n 5 --c 6,0", 0, "",
     "fa4895b125982020d8a4488a1a4626cac03626810758208216e88e0f8bdb6f46"),
    ("--n 6 --c 6,0", 0, "",
     "aece3fe4a03dcd150fb6f44479f403bfc8ddd33501982d02265f54553f1b7b21"),
    ("--n 7 --c 6,0", 0, "",
     "fae79b30a3c5565a543912feb0b6f6a622505cea741ab4df4e556acae485398c"),
    ("--n 8 --c 6,0", 0, "",
     "9accbc769558ff218d071bc98b9b0b054fcd7d05662b00fe5ba1eb51b8725dee"),
    ("--n 3 --t 2,0", 0, "",
     "973077f50ae6acb25e590030a1c74f1e9462ee536cbae0de496d032f6aaece21"),
    ("--n 4 --t 2,0", 0, "",
     "f5d0b1a387877854acf328faa3dd3956d9c42a08f5574511857148b383342a39"),
    ("--n 5 --t 2,0", 0, "",
     "1761e94456b225064fe4e73dea2ce8dd10daffa1e33a4d637a4ba119ac218d74"),
    ("--n 6 --t 2,0", 0, "",
     "8b39ca4eb1a951b53e04879a4a12c2856a78874756d7bd1b5679ef91d33fefd0"),
    ("--n 7 --t 2,0", 0, "",
     "208c004ea55447671bf5e4cde88874f0db25aad7241993fc44f8dceb5c319042"),
    ("--n 8 --t 2,0", 0, "",
     "c85e9e5aa0bbe23b105786d777fb02477037ad16d7e2d358072bb7e4a05c1f4d"),
    ("--n 48 --t 1e-7", 1, _SOLVER + (
        "t = (1e-07+0j): no convergence within 200 iterations: 47 of 95 roots fail; "
        "worst residuals [1.00002893057758, 1.0000159865327825, 1.000009136179653] "
        "exceed bounds [1.0000289457720597e-12, 1.0000163849853057e-12, "
        "1.0000100737891325e-12]\n"), None),
    ("--n 96 --t 1e-6", 1, _SOLVER + (
        "t = (1e-06+0j): no convergence within 200 iterations: 191 of 191 roots fail; "
        "worst residuals [1.550640123115443e+23, 3.4421496838706074e+24, "
        "3.9209642089494067e+24] exceed bounds [155064012311.56058, 3442149683871.424, "
        "3920964208950.5874]\n"), None),
    ("--n 190 --t 1e-6", 1, _SOLVER + (
        "t = (1e-06+0j): no convergence within 200 iterations: 379 of 379 roots fail; "
        "worst residuals [nan, nan, nan] exceed bounds [nan, nan, nan]\n"), None),
    ("--n 3 --c 0,6", 0, "",
     "a421178cba8b520f9dd8dec4c5d51fbc108333d040469f8b2d0e4851fe324eb4"),
]


class TestCentersCommand:
    def test_fixed_c_rows(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "5", "--c", "6,0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,k,re_w,im_w,re_a,im_a,residual"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[6]) <= 1e-8

    def test_small_c_reports_all_distinct(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "3", "--c", "0.5,0")
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + 3 distinct parameters

    def test_diagonal_rows(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "3", "--t", "1,0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert {line.split(",")[0] for line in lines[1:]} == {"0", "1", "2", "3", "4"}

    def test_large_n_rows(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "300", "--c", "0,6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 300
        assert max(float(line.split(",")[6]) for line in lines[1:]) <= 1e-8

    @pytest.mark.parametrize("t", ["1e-200", "1e300"])
    def test_extreme_slopes_exit_2_naming_t(self, capsys, t):
        # 1e-200: a = w**(2n) near 4/t**2 overflows; 1e300: a underflows to 0
        code, out, err = run(capsys, "centers", "--n", "3", "--t", t)
        assert code == 2 and out == ""
        assert f"t = ({float(t)!r}+0j)" in err

    @pytest.mark.parametrize("n", [3, 5])
    def test_small_slope_roots_accepted(self, capsys, n):
        # At t = 1e-6, n roots have modulus near (2/|t|)**(1/n); the residual
        # bound grows with the terms at the root, so they pass the solver and the
        # fixed-point check
        code, out, _ = run(capsys, "centers", "--n", str(n), "--t", "1e-6")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2 * n - 1
        assert max(float(row.split(",")[6]) for row in rows) <= 1e-8

    @pytest.mark.parametrize("c", ["1.5e308,1.5e308", "1e200", "1e307", "1.7e308,2"])
    def test_c_beyond_binary64_exit_2_naming_c(self, capsys, c):
        # 1.5e308,1.5e308: the modulus of c overflows; 1e200, 1e307, 1.7e308,2: the
        # centers' a = w**(2n), near c**2/4, overflows, and near the float limit
        # so does the Aberth sweep. All are refused before the dedupe compares
        # a-values, so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "centers", "--n", "4", "--c", c)
        assert code == 2 and out == ""
        assert "c = (" in err and "binary64" in err

    @pytest.mark.parametrize("argv", [
        ("--n", "4", "--c", "1e8"),
        ("--n", "3", "--t", "1e-8"),
        ("--n", "5", "--t", "1e-7"),
    ])
    def test_large_term_centers_pass_the_scaled_fixed_point_check(self, capsys, argv):
        # |R(w) - w| of these roots exceeds 1e-8 (2.3e-8, 6.4e-8, 1.9e-8), within
        # 1e-8 times the size of the terms R(w) adds
        code, out, err = run(capsys, "centers", *argv)
        assert code == 0 and err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == (4 if argv[2] == "--c" else 2 * int(argv[1]) - 1)

    @pytest.mark.parametrize("n,t", [("5", "1e-20"), ("3", "1e-14"), ("12", "1e-20")])
    def test_merged_diagonal_centers_exit_1_naming_t(self, capsys, n, t):
        # the n roots with t*w**n near -2 have a-values near 4/t**2 that agree
        # within the dedupe tolerance, with discs that meet. An incomplete list
        # is refused, not printed
        code, out, err = run(capsys, "centers", "--n", n, "--t", t)
        assert code == 1 and out == ""
        assert f"t = {complex(t)!r}" in err and "incomplete" in err

    @pytest.mark.parametrize("argv", [("--n", "3", "--t", "1e8"), ("--n", "4", "--c", "1e-30"),
                                      ("--n", "5", "--c", "1e-30"), ("--n", "4", "--c", "1e13")])
    def test_rows_are_mpmath_roots(self, capsys, argv):
        # a-values near 0 (t = 1e8), a root near c (c = 1e-30) and a-values that
        # agree to 4e-10 relative (c = 1e13): each row's w is a root to within a
        # ulp by mpmath, and no two rows share one
        code, out, err = run(capsys, "centers", *argv)
        assert code == 0 and err == ""
        n, value = int(argv[1]), float(argv[3])
        with mpmath.workprec(200):
            roots = []
            for row in out.strip().splitlines()[1:]:
                w = complex(float(row.split(",")[2]), float(row.split(",")[3]))
                x = mpmath.mpc(w)
                for _ in range(6):
                    if argv[2] == "--c":
                        x -= (2 * x**n - x + value) / (2 * n * x**(n - 1) - 1)
                    else:
                        x -= ((value * x**(2 * n - 1) + 2 * x**(n - 1) - 1)
                              / ((2 * n - 1) * value * x**(2 * n - 2) + 2 * (n - 1) * x**(n - 2)))
                assert abs(mpmath.mpc(w) - x) <= 2.0**-52 * abs(x), (w, x)
                assert all(abs(x - y) > 1e-30 * abs(x) for y in roots)
                roots.append(x)
        assert any(abs(r - value) < 1e-40 for r in roots) == (value == 1e-30)

    @pytest.mark.parametrize("n, c", [("3", "1e-100"), ("3", "1e-150"), ("4", "1e-100"),
                                      ("5", "1e-100"), ("8", "1e-30"), ("3", "5e-324"),
                                      ("3", "-5e-324")])
    def test_tiny_c_whose_a_underflows_exit_2_naming_c(self, capsys, n, c):
        # the root near c is found; its a = w**(2n) underflows to 0
        code, out, err = run(capsys, "centers", "--n", n, "--c", c)
        assert code == 2 and out == ""
        assert f"c = {complex(float(c))!r} puts a center's a = w**(2n) outside binary64" in err

    def test_slope_whose_scale_is_nan_exit_2_naming_t(self, capsys):
        code, out, err = run(capsys, "centers", "--n", "3", "--t", "1e200,1e200")
        assert code == 2 and out == "" and "t = (1e+200+1e+200j) is too large" in err

    def test_diagonal_rows_unchanged(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "3", "--t", "2")
        assert code == 0
        # the rows as written before the extreme-slope checks existed
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "973077f50ae6acb25e590030a1c74f1e9462ee536cbae0de496d032f6aaece21"
        )

    @pytest.mark.parametrize("flag, value, n, digest", [
        ("--c", "0.0,6.0", 48, "b88f876e9022cd8e5a1fd711e4b7f0ec3c6e112c1dae82ead14e063333f2ba59"),
        ("--c", "0.0,6.0", 96, "cfac8c9f1d8879451fb3283f393cb7af0f181f8df3965a99208d5b8515ae7769"),
        ("--c", "0.0,6.0", 144, "ce6bafee3655b7ee63f4736acfb088df7481788db12db6bd4670eaffe0ece40d"),
        ("--c", "0.0,6.0", 190, "c655fdb9ff947d0b98e11087aba9f403e9a08e46d67dd5aa760768f232226350"),
        ("--t", "2.0,0.0", 48, "9ed2d7fa321628d927b77f9128e0acdb48ab24a281871766618db84578570bd3"),
        ("--t", "2.0,0.0", 96, "67a0d820f6cda1f114972eb4610e7d69aa59da1369d410b3b328df68fa54fe89"),
        ("--t", "2.0,0.0", 144, "efe8e130c94df4c88439535b06c506073394380af1ca98ec5d3397725cc4e9f6"),
        ("--t", "2.0,0.0", 190, "81b251782ac45c6d35609e072bd20d80bb4a636990e1def1076bfe3043f3f1c8"),
    ])
    def test_bench_centers_bytes_unchanged(self, tmp_path, capsys, flag, value, n, digest):
        # the certify workload's eight centers argvs; sha256 of each CSV as written
        # before poly_roots evaluated p and p' in one Horner pass (t = 2), and since
        # the Newton-polygon seeds moved the c = 6i rows by ulps
        dest = tmp_path / "centers.csv"
        code, _, _ = run(capsys, "centers", "--n", str(n), flag, value, "--out", str(dest))
        assert code == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, code, stderr, digest", _CENTERS_PINS)
    def test_pinned_exit_stderr_and_bytes(self, tmp_path, capsys, argv, code, stderr, digest):
        dest = tmp_path / "centers.csv"
        assert run(capsys, "centers", *argv.split(), "--out", str(dest)) == (code, "", stderr)
        data = dest.read_bytes() if dest.exists() else None
        assert (data and hashlib.sha256(data).hexdigest()) == digest

    @pytest.mark.parametrize("flag, value, n", [
        ("--c", "6,0", 3), ("--c", "0,6", 5), ("--c", "0.5,0", 3), ("--c", "0,6", 48),
        ("--t", "1,0", 3), ("--t", "2,0", 3), ("--t", "1,0", 48), ("--t", "2,0", 48),
    ])
    def test_residual_column_is_the_fixed_point_residual(self, capsys, flag, value, n):
        # the solvers hand their fixed-point check's residual to the CSV; it must
        # be the residual of the row's own (n, a, c), c the slice's c or t*a
        code, out, _ = run(capsys, "centers", "--n", str(n), flag, value)
        assert code == 0
        param = complex(*map(float, value.split(",")))
        rows = out.strip().splitlines()[1:]
        assert len(rows) == (n if flag == "--c" else 2 * n - 1)
        for row in rows:
            _, _, re_w, im_w, re_a, im_a, residual = row.split(",")
            w, a = complex(float(re_w), float(im_w)), complex(float(re_a), float(im_a))
            c = param if flag == "--c" else param * a
            assert float(residual) == fixed_point_residual(MapParams(n, a, c), w)[0]

    @pytest.mark.parametrize("flag, value, name", [("--c", "0,6", "c = 6j"),
                                                   ("--t", "2", "t = (2+0j)")])
    def test_failed_fixed_point_check_exits_1_naming_the_parameter(
            self, capsys, monkeypatch, flag, value, name):
        # both slices' rows pass the one fixed-point check in solvers._centers
        monkeypatch.setattr(solvers, "fixed_point_residual", lambda p, w: (1.0, 0.0))
        code, out, err = run(capsys, "centers", "--n", "4", flag, value)
        assert code == 1 and out == ""
        assert err.startswith(f"{_SOLVER}{name}: root w = ") and "is not fixed" in err

    @pytest.mark.parametrize("c, k", [("0,6", 2), ("0,-6", 4)])
    def test_sector_of_a_negative_real_a_follows_the_sign_of_im_a(self, capsys, c, k):
        # at n = 3, c = +-6i one root w lies on the imaginary axis, so its exact
        # a = w**6 is negative real: principal argument pi, sector 1 (6i) or 4
        # (-6i) by mpmath. The float a keeps a rounding residue in Im a, and the
        # row's k follows its sign (Im a < 0 reads Arg a = -pi): 2 for 6i
        code, out, _ = run(capsys, "centers", "--n", "3", "--c", c)
        assert code == 0
        rows = [[float(x) for x in row.split(",")] for row in out.splitlines()[1:]]
        (_, got, re_w, im_w, re_a, im_a, _), = [r for r in rows if abs(r[2]) < 1e-50]
        assert 0 < abs(im_a) < 1e-50 * abs(re_a)
        turns = (6 * math.atan2(im_w, re_w) - math.copysign(math.pi, im_a)) / (2 * math.pi)
        assert got == k == round(turns) % 6

    def test_memory_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "centers", "--n", "5000", "--t", "2")
        assert code == 2 and "memory budget" in err and out == ""

    def test_exactly_one_of_c_or_t(self, capsys):
        assert run(capsys, "centers", "--n", "3")[0] == 2
        assert run(capsys, "centers", "--n", "3", "--c", "1,0", "--t", "1,0")[0] == 2


class TestSpineCommand:
    def test_rows_and_branches(self, capsys):
        code, out, _ = run(capsys, "spine", "--t", "2", "--samples", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,branch,re,im"
        assert len(lines) == 1 + 32  # both branches
        branches = [line.split(",")[1] for line in lines[1:]]
        assert branches == ["1"] * 16 + ["-1"] * 16
        # numeric fields parse as plain floats
        theta0, _, re0, im0 = lines[1].split(",")
        assert float(theta0) == 0.0
        assert float(re0) == pytest.approx(1.8660254037844386)

    def test_bad_samples(self, capsys):
        assert run(capsys, "spine", "--t", "2", "--samples", "4")[0] == 2

    def test_tiny_slope_exit_2(self, capsys):
        code, out, err = run(capsys, "spine", "--t", "1e-200")
        assert code == 2 and out == ""
        assert "t = " in err and "too small" in err

    @pytest.mark.parametrize("t", ["1e200,1e200", "-1e300,1e8"])
    def test_slope_whose_scale_is_nan_exit_2(self, capsys, t):
        code, out, err = run(capsys, "spine", "--t", t, "--samples", "16")
        assert code == 2 and out == "" and "t = " in err and "too large" in err

    @pytest.mark.parametrize("t", ["1e300", "1e154,1e154"])
    def test_largest_slopes_print_finite_rows(self, capsys, t):
        code, out, _ = run(capsys, "spine", "--t", t, "--samples", "16")
        assert code == 0 and len(out.splitlines()) == 33
        assert "nan" not in out and "inf" not in out

    def test_requires_t(self, capsys):
        assert run(capsys, "spine")[0] == 2

    def test_samples_bytes_cover_the_csv(self, tmp_path):
        # the estimate per sample bounds the peak of the whole command, CSV lines
        # included, at a slope whose values print long
        samples = 20000
        tracemalloc.start()
        try:
            assert main(["spine", "--t", "1e10,1e10", "--samples", str(samples),
                         "--out", str(tmp_path / "s.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= samples * spine._SAMPLE_BYTES

    def test_chunked_csv_equals_one_join(self, capsys, tmp_path):
        # 2500 samples: each branch spans three chunks of rows; stdout and the
        # file both equal every row formatted and joined at once
        samples = 2500
        assert samples > 2 * cli._CSV_ROWS
        theta, plus, minus = spine_points(SpineSpec(2 + 0j, samples))
        lines = ["theta,branch,re,im"]
        for branch, curve in (("1", plus), ("-1", minus)):
            lines += [f"{float(th)!r},{branch},{float(z.real)!r},{float(z.imag)!r}"
                      for th, z in zip(theta, curve)]
        want = "\n".join(lines) + "\n"
        code, out, _ = run(capsys, "spine", "--t", "2", "--samples", str(samples))
        assert code == 0 and out == want
        path = tmp_path / "s.csv"
        assert main(["spine", "--t", "2", "--samples", str(samples), "--out", str(path)]) == 0
        assert path.read_text(encoding="ascii") == want

    def test_samples_above_the_memory_budget_exit_2(self, capsys):
        # refused before the lattice or its CSV lines are allocated
        code, out, err = run(capsys, "spine", "--t", "2", "--samples", "100000000000")
        assert code == 2 and out == ""
        assert "samples 100000000000" in err and "memory budget" in err


class TestDefaultsComeFromTheLibrary:
    """The CLI passes a size only when its flag is given, so with the flag omitted
    its output equals the library call with the library's own default, and with
    the flag given it equals the call with that value."""

    # per verify check: its flags, the library call taking the sizes as keywords,
    # and sizes other than the library defaults
    CHECKS = {
        "image-ellipse": (
            ("--n", "3", "--a", "1,1", "--c", "0.5,0"),
            lambda **kw: [verify_image_ellipse(MapParams(3, 1 + 1j, 0.5), k, **kw)
                          for k in range(6)],
            {"samples": 40},
        ),
        "containment": (
            ("--n", "4", "--c", "6"),
            lambda **kw: [verify_containment(MapParams(4, s.a_j, 6), s.k, **kw)
                          for s in fixed_critical_params(4, 6)],
            {"samples": 64},
        ),
        "winding": (
            ("--n", "4", "--c", "0,6"),
            lambda **kw: [verify_winding(s, **kw) for s in fixed_critical_params(4, 6j)],
            {"boundary_samples": 512},
        ),
        "annulus": (
            ("--n", "3", "--a", "1", "--c", "0"),
            lambda **kw: [verify_annulus_escape(MapParams(3, 1, 0), **kw)],
            {"grid": 16, "max_iter": 50},
        ),
        "spine-locus": (
            ("--n", "20", "--t", "2", "--eps", "0.25"),
            lambda **kw: [verify_spine_locus(20, 2, 0.25, **kw)],
            {"grid": 40, "max_iter": 30},
        ),
        "vminus-sign": (
            ("--n", "3", "--a", "0.01", "--c", "0.25"),
            lambda **kw: [verify_vminus_sign(3, 0.01, 0.25, **kw)],
            {},
        ),
    }
    FLAGS = {"samples": "--samples", "boundary_samples": "--samples", "grid": "--samples",
             "max_iter": "--max-iter"}

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_verify(self, capsys, check):
        argv, call, sizes = self.CHECKS[check]
        flags = [arg for key, value in sizes.items() for arg in (self.FLAGS[key], str(value))]
        for given, kw in (([], {}), (flags, sizes)):
            code, out, _ = run(capsys, "verify", "--check", check, *argv, *given)
            reports = call(**kw)
            assert out == reports_to_csv(reports), (check, given)
            assert code == (0 if all(r.passed for r in reports) else 3), (check, given)

    def test_render(self, tmp_path, capsys):
        argv = ("render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
                "--view", "-16,-3,-6.5,6.5", "--size", "24x20")
        vp = Viewport(-16, -3, -6.5, 6.5, 24, 20)
        for given, cfg in (([], RenderConfig()), (["--max-iter", "40"], RenderConfig(40))):
            out = tmp_path / "r.ppm"
            assert run(capsys, *argv, *given, "--out", str(out))[0] == 0
            assert out.read_bytes() == encode_ppm(render_slice(4, FixedC(6j), vp, cfg)), given

    def test_spine(self, capsys):
        for given, spec in (([], SpineSpec(2)), (["--samples", "20"], SpineSpec(2, 20))):
            code, out, _ = run(capsys, "spine", "--t", "2", *given)
            theta, plus, minus = spine_points(spec)
            rows = [(th, branch, complex(z)) for branch, curve in ((1, plus), (-1, minus))
                    for th, z in zip(theta.tolist(), curve)]
            want = "".join(f"{th!r},{branch},{z.real!r},{z.imag!r}\n" for th, branch, z in rows)
            same = out == "theta,branch,re,im\n" + want  # a bool: no diff of 16k lines
            assert code == 0 and same, (given, out.count("\n"), len(rows))


# Every complex flag of the CLI, with the other flags of its command (small sizes).
_RENDER = "render --n 4 --view -2,2,-2,2 --size 4x4 --max-iter 20 --slice"
_EXTREME_CASES = {
    "spine-t": ("spine --samples 32", "t"),
    "centers-c": ("centers --n 4", "c"),
    "centers-t": ("centers --n 4", "t"),
    "render-fixed-c-c": (f"{_RENDER} fixed-c", "c"),
    "render-fixed-a-a": (f"{_RENDER} fixed-a", "a"),
    "render-diagonal-t": (f"{_RENDER} diagonal", "t"),
    "verify-image-ellipse-a": ("verify --check image-ellipse --n 5 --c 1e13 --samples 16", "a"),
    "verify-image-ellipse-c": ("verify --check image-ellipse --n 5 --a 1 --samples 16", "c"),
    "verify-containment-a": ("verify --check containment --n 5 --c 1e-300 --samples 64", "a"),
    "verify-containment-c": ("verify --check containment --n 5 --a 1 --samples 64", "c"),
    "verify-winding-c": ("verify --check winding --n 4 --samples 64", "c"),
    "verify-annulus-a": ("verify --check annulus --n 4 --c 6 --samples 16", "a"),
    "verify-annulus-c": ("verify --check annulus --n 4 --a 1 --samples 16", "c"),
    "verify-spine-locus-t": ("verify --check spine-locus --n 4 --eps 0.25 --samples 32", "t"),
    "verify-vminus-sign-a": ("verify --check vminus-sign --n 4 --c 1", "a"),
    "verify-vminus-sign-c": ("verify --check vminus-sign --n 4 --a 1", "c"),
}


# The grammar fuzz's values (_edge_values), a complex one as re,im.
_complex = complex_value.map(lambda z: f"{z.real!r},{z.imag!r}")
_n = st.sampled_from([3, 4, 5, 8])
_view = st.builds(lambda x, y: f"{min(x)!r},{max(x)!r},{min(y)!r},{max(y)!r}",
                  st.tuples(real, real), st.tuples(real, real))
_size = st.builds(lambda w, h: f"{w}x{h}", st.integers(1, 5), st.integers(0, 5))


def _command(name, **flags):
    """argv of a subcommand with a value of each flag, as --flag=value, so that a
    dash-led value is never read as a flag; a flag named with _ has a - in it."""
    return st.fixed_dictionaries(flags).map(
        lambda d: [name] + [f"--{k.replace('_', '-')}={v}" for k, v in d.items()])


# Each subcommand with the flags each of its modes reads.
_ARGV = st.one_of(
    *(_command("render", slice=st.just(slc), n=_n, view=_view, size=_size,
               max_iter=st.sampled_from([1, 2, 20]), **dict.fromkeys(needs, _complex))
      for slc, needs in (("fixed-c", "c"), ("fixed-a", "a"), ("diagonal", "t"),
                         ("dynamical", "ac"))),
    *(_command("verify", check=st.just(check), n=_n, samples=st.sampled_from([16, 32]),
               max_iter=st.sampled_from([1, 5]), **dict.fromkeys(needs, _complex), **eps)
      for check, needs, eps in (("image-ellipse", "ac", {}), ("containment", "c", {}),
                                ("containment", "ac", {"eps": real}), ("winding", "c", {}),
                                ("annulus", "ac", {}), ("spine-locus", "t", {"eps": real}),
                                ("vminus-sign", "ac", {}))),
    _command("centers", n=_n, c=_complex),
    _command("centers", n=_n, t=_complex),
    _command("spine", t=_complex, samples=st.sampled_from([16, 32])),
)


def _run_quietly(argv, out):
    """(exit code, output file bytes or None, stdout less its timing, stderr) of
    main(argv + --out); a RuntimeWarning is raised as an error."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, f"--out={out}"])
    data = out.read_bytes() if out.exists() else None
    return code, data, re.sub(r"elapsed=\S+", "", stdout.getvalue()), stderr.getvalue()


_CSV_HEADERS = {"verify": CSV_HEADER, "centers": "j,k,re_w,im_w,re_a,im_a,residual",
                "spine": "theta,branch,re,im"}


# A valid argv of each --slice and --check, and of centers and spine, with the
# flags it cannot run without (--out is appended to each argv).
_MODE_NEEDS = [
    *((f"render --slice {slc} --n 4 {flags} --view -1,1,-1,1 --size 4x4",
       f"--slice --n --view --size --out {needs}")
      for slc, flags, needs in (("fixed-c", "--c 0,6", "--c"), ("fixed-a", "--a 1", "--a"),
                                ("diagonal", "--t 0.5", "--t"),
                                ("dynamical", "--a 1 --c 0,6", "--a --c"))),
    *((f"verify --check {check} {flags}", f"--check --n {needs}")
      for check, flags, needs in (
          ("image-ellipse", "--n 3 --a 1,1 --c 0.5,0 --samples 16", "--a --c"),
          ("containment", "--n 4 --c 0,6 --samples 64", "--c"),
          ("winding", "--n 4 --c 0,6 --samples 256", "--c"),
          ("annulus", "--n 4 --a 0.01 --c 0.1 --samples 8 --max-iter 20", "--a --c"),
          ("spine-locus", "--n 20 --t 2,0 --eps 0.25 --samples 32 --max-iter 20",
           "--t --eps"),
          ("vminus-sign", "--n 4 --a 0.01 --c 0.1", "--a --c"))),
    ("centers --c 6 --n 3", "--n --c"),
    ("centers --t 1 --n 3", "--n --t"),
    ("spine --t 2 --samples 16", "--t"),
]


class TestTopLevel:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_ARGV)
    @example(argv=["spine", "--t=1e200,1e200", "--samples=16"])  # printed nan rows
    @example(argv=["verify", "--check=containment", "--n=4", "--c=0,6", "--a=inf,0",
                   "--samples=16"])  # warned in the region test
    def test_grammar_fuzz(self, tmp_path, argv):
        # any argv of the four subcommands, with values from 0 through the
        # subnormals to inf and nan: main returns an exit code of README's table
        # with no NumPy warning and the same bytes twice. Exit 1 or 2 writes
        # nothing and says why in one `mcmullen: ...` line or argparse's usage
        # error; exit 3 comes only from verify, whose CSV then has a failed row,
        # and on exit 0 every verify row passes. Exit 0 writes a PPM of --size
        # or a CSV with its header and no nan or inf. The examples are two cases
        # that random runs of this grammar found
        first = _run_quietly(argv, tmp_path / "out")
        code, data, stdout, stderr = first
        assert 0 <= code <= 3, first
        assert _run_quietly(argv, tmp_path / "out") == first
        if code in (1, 2):
            assert data is None and stdout == "", first
            assert (re.fullmatch(r"mcmullen: [^\n]+\n", stderr)
                    or re.fullmatch(r"usage: .*\nmcmullen( \w+)?: error: [^\n]+\n", stderr,
                                    re.DOTALL)), first
            return
        if argv[0] == "render":
            assert code == 0, first
            size = next(a for a in argv if a.startswith("--size="))
            width, height = map(int, size[len("--size="):].split("x"))
            header = f"P6\n{width} {height}\n255\n".encode()
            assert data[:len(header)] == header and len(data) == len(header) + 3 * width * height
        else:
            text = data.decode("ascii")
            lines = text.splitlines()
            assert lines[0] == _CSV_HEADERS[argv[0]]
            assert "nan" not in text and "inf" not in text, text
            if argv[0] == "verify":
                passes = {line.rsplit(",", 1)[1] for line in lines[1:]}
                assert passes <= {"true", "false"} and passes, text
                assert ("false" in passes) == (code == 3), (code, text)
            else:
                assert code == 0, first

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(argv, flag, id=f"{' '.join(argv.split()[:3])} {flag}")
        for argv, needs in _MODE_NEEDS for flag in needs.split()
    ])
    def test_each_needed_flag_is_named_when_missing(self, tmp_path, capsys, argv, flag):
        # each mode's valid argv runs; without any one flag it needs, the run
        # exits 2, writes no output, and its error line names that flag
        dest = tmp_path / "out"
        argv = [*shlex.split(argv), "--out", str(dest)]
        assert run(capsys, *argv)[0] in (0, 3)
        dest.unlink()
        at = argv.index(flag)
        code, out, err = run(capsys, *argv[:at], *argv[at + 2:])
        assert code == 2 and out == "" and not dest.exists()
        assert re.search(rf"{flag}(?![\w-])", err.splitlines()[-1]), err

    def test_no_args(self, capsys):
        assert run(capsys)[0] == 2

    def test_flags_a_subcommand_does_not_read_are_refused(self, tmp_path, capsys):
        render = ("render", "--n", "4", "--slice", "fixed-c", "--c", "0,6",
                  "--view", "-5,5,-5,5", "--size", "8x8", "--out", str(tmp_path / "r.ppm"))
        for argv in (
            (*render, "--samples", "9"),
            (*render, "--eps", "0.1"),
            ("centers", "--n", "3", "--c", "6", "--samples", "9"),
            ("centers", "--n", "3", "--c", "6", "--a", "1"),
            ("centers", "--n", "3", "--c", "6", "--max-iter", "9"),
            ("centers", "--n", "3", "--c", "6", "--eps", "0.1"),
            ("spine", "--t", "2", "--n", "5"),
            ("spine", "--t", "2", "--c", "1"),
            ("spine", "--t", "2", "--a", "1"),
            ("spine", "--t", "2", "--max-iter", "9"),
            ("spine", "--t", "2", "--eps", "0.1"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "unrecognized arguments" in err and out == "", argv
        assert not (tmp_path / "r.ppm").exists()
        assert run(capsys, *render)[0] == 0

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", list(_EXTREME_CASES))
    def test_extreme_magnitudes(self, tmp_path, capsys, case):
        # every complex flag at a fixed grid of magnitudes from 0 through the
        # subnormals to the float limit, with either sign, on the real axis and
        # the diagonal: each run ends in an exit code, with no traceback and no
        # NumPy warning
        command, flag = _EXTREME_CASES[case]
        argv = shlex.split(command)
        if argv[0] == "render":
            argv += ["--out", str(tmp_path / "x.ppm")]
        magnitudes = (0.0, 5e-324, 1e-310, 1.5e-154, 1e-100, 1.0, 1e154, 1e300, 1.7e308)
        values = dict.fromkeys(f"{x!r},{y!r}" for m in magnitudes for x in (m, -m)
                               for y in (x, 0.0))
        for value in values:
            code = run(capsys, *argv, f"--{flag}={value}")[0]
            assert 0 <= code <= 3, (argv, flag, value)

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0



# One process's mix of argvs for the kept parser (--out is appended to each):
# every subcommand, argparse usage errors, a _NEEDS refusal, and centers --c
# then --t, whose mutually exclusive flags must not carry over.
_REUSE_MIX = [
    "render --slice fixed-c --n 4 --c 0,6 --view -5,5,-5,5 --size 6x5",
    "verify --check image-ellipse --n 3 --a 1,1 --c 0.5,0 --samples 16",
    "centers --n 4 --c 0,6",
    "centers --n 4 --t 2",
    "centers --n 3",
    "centers --n 3 --c 6 --t 1",
    "verify --check winding --n 4",
    "render --slice diagonal --n 4 --view -1,1,-1,1 --size 4x4",
    "spine --t 2 --samples 16",
    "verify --check spine-locus --n 20 --t 2,0 --eps 0.25 --samples 32 --max-iter 20",
    "centers --n 5 --t 1e-20",
    "frobnicate",
    "centers --n 3 --t 1",
    "centers --n 3 --c 6",
]


class TestParserReuse:
    def test_kept_parser_matches_a_fresh_one(self, tmp_path, monkeypatch):
        # the mix through main's one parser gives each argv's exit code, stdout,
        # stderr and output bytes as a run with a parser of its own does
        cli._parser.cache_clear()
        kept = [_run_quietly(shlex.split(argv), tmp_path / "out") for argv in _REUSE_MIX]
        parser = cli._parser()
        assert cli._parser() is parser and cli._parser.cache_info().currsize == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [_run_quietly(shlex.split(argv), tmp_path / "out") for argv in _REUSE_MIX]
        assert kept == fresh
        assert sorted({code for code, *_ in kept}) == [0, 1, 2]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_parser_not_built_at_import(self):
        code = ("import mcmullen.cli as cli; "
                "assert cli._parser.cache_info().currsize == 0; "
                "cli.main(['centers', '--n', '3', '--c', '6']); "
                "assert cli._parser.cache_info().currsize == 1")
        env = {**os.environ, "PYTHONPATH": str(_SRC)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr


def _readme_block(heading, fence):
    """The first fenced block, opened by `fence`, after `heading` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"{fence}\n") + len(fence) + 1
    return after[start:after.index("```\n", start)]


def test_readme_examples(tmp_path, capsys):
    # every command of "Command line", each with its output under tmp_path, exits
    # with the code its trailing comment states (0 when none does)
    lines = _readme_block("## Command line", "```").replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    for i, line in enumerate(lines):
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "mcmullen"
        if "--out" in argv:
            j = argv.index("--out") + 1
            argv[j] = str(tmp_path / argv[j])
        else:
            argv += ["--out", str(tmp_path / f"{i}.csv")]
        stated = re.search(r"exits (\d)", comment)
        code, _, err = run(capsys, *argv)
        assert code == (int(stated[1]) if stated else 0), (line, err)
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0, line
    # the library quick start runs as written
    exec(compile(_readme_block("## Library quick start", "```python"), "README.md", "exec"), {})
    assert "winding" in capsys.readouterr().out
