"""Command-line surface: flags, CSV/PPM outputs, exit codes."""
import hashlib
import warnings

import pytest

from mcmullen.cli import main
from mcmullen.family import MapParams, escape_radius, iterate_orbit
from mcmullen.render import FixedC, RenderConfig, Viewport, encode_ppm, render_slice
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

    def test_non_finite_slice_parameters(self, tmp_path, capsys):
        out = tmp_path / "nf.ppm"
        common = ["--view", "-1,1,-1,1", "--size", "4x4", "--out", str(out)]
        assert run(capsys, "render", "--n", "4", "--slice", "fixed-c", "--c", "nan,0",
                   *common)[0] == 2
        assert run(capsys, "render", "--n", "4", "--slice", "diagonal", "--t", "inf,0",
                   *common)[0] == 2
        # c = t*a or a held parameter whose modulus overflows gives an escape
        # threshold of inf or nan, which the orbit kernel refuses without a warning
        for slc in (["--slice", "diagonal", "--t", "1e300", "--view", "-1e10,1e10,-1e10,1e10"],
                    ["--slice", "fixed-a", "--a", "1.5e308,1.5e308", "--view", "-1,1,-1,1"],
                    ["--slice", "fixed-c", "--c", "1.5e308,1.5e308", "--view", "-1,1,-1,1"]):
            code, stdout, err = run(capsys, "render", "--n", "4", *slc, "--size", "8x8",
                                    "--out", str(out))
            assert code == 2 and stdout == "" and "threshold must be finite" in err
        code, stdout, err = run(capsys, "render", "--n", "4", "--slice", "dynamical",
                                "--a", "1.5e308,1.5e308", "--c", "6", *common)
        assert code == 2 and stdout == "" and "a = (1.5e+308+1.5e+308j)" in err
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

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        code, stdout, _ = run(
            capsys, "verify", "--check", "annulus", "--n", "3", "--a", "1,0",
            "--c", "0,0", "--samples", "8", "--out", str(dest),
        )
        assert code == 0
        assert dest.read_text().startswith(CSV_HEADER)
        assert stdout == ""


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

    @pytest.mark.parametrize("c", ["1.5e308,1.5e308", "1e200"])
    def test_c_beyond_binary64_exit_2_naming_c(self, capsys, c):
        # 1.5e308,1.5e308: the modulus of c overflows; 1e200: the centers'
        # a = w**(2n), near c**2/4, overflows. Both are refused before the dedupe
        # compares a-values, so nothing warns
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

    @pytest.mark.parametrize("n,t", [("5", "1e-20"), ("3", "1e-14"), ("3", "1e8")])
    def test_merged_diagonal_centers_exit_1_naming_t(self, capsys, n, t):
        # 1e-20, 1e-14: the n roots with t*w**n near -2 have a-values near 4/t**2
        # that agree within the dedupe tolerance; 1e8: the a-values lie near 0,
        # within its absolute floor. An incomplete list is refused, not printed
        code, out, err = run(capsys, "centers", "--n", n, "--t", t)
        assert code == 1 and out == ""
        assert f"t = {complex(t)!r}" in err and "incomplete" in err

    def test_diagonal_rows_unchanged(self, capsys):
        code, out, _ = run(capsys, "centers", "--n", "3", "--t", "2")
        assert code == 0
        # the rows as written before the extreme-slope checks existed
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "973077f50ae6acb25e590030a1c74f1e9462ee536cbae0de496d032f6aaece21"
        )

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

    def test_requires_t(self, capsys):
        assert run(capsys, "spine")[0] == 2


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


class TestTopLevel:
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

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
