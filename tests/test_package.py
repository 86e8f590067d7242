"""The package namespace: every public name importable from `mcmullen`."""
import dataclasses
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import mcmullen

# The public names of the package as of the single-listing change to __init__.py;
# each must stay importable from the top level.
PUBLIC_NAMES = (
    "HypothesisError", "InconsistencyError", "PoleError", "RootFindingError",
    "UnderSamplingError", "MapParams", "OrbitResult", "critical_points", "critical_values",
    "escape_radius", "eval_map", "inner_radius", "involute", "iterate_orbit",
    "iterate_orbits_bulk", "principal_arg", "principal_root", "principal_sqrt", "wrap_angle",
    "HalfEllipseSpec", "PolarRect", "WRegionSpec", "ellipse_spec", "half_ellipse_contains",
    "half_ellipse_margin", "k_of_j", "l_c_rect", "polar_contains", "polar_margin",
    "sector_index", "u_prime_rect", "v_rect", "w_boundary_point", "w_region_contains",
    "Diagonal", "Dynamical", "FixedA", "FixedC", "Image", "RenderConfig", "SliceSpec",
    "Viewport", "classify_pixel", "draw_overlay", "encode_ppm", "render_slice",
    "diagonal_fixed_params", "fixed_critical_params", "poly_roots", "SpineSpec",
    "spine_distance", "spine_distances", "spine_point", "spine_points", "spine_radii",
    "CSV_HEADER", "VerificationReport", "reports_to_csv", "verify_annulus_escape",
    "verify_containment", "verify_image_ellipse", "verify_spine_locus", "verify_vminus_sign",
    "verify_winding", "winding_turns", "__version__",
)


def test_public_names_importable():
    for name in PUBLIC_NAMES:
        assert name in mcmullen.__all__, name  # so `from mcmullen import *` brings it
        assert hasattr(mcmullen, name), name


def test_all_lists_each_name_once_and_no_modules():
    assert len(mcmullen.__all__) == len(set(mcmullen.__all__))
    for name in mcmullen.__all__:
        assert not isinstance(getattr(mcmullen, name), types.ModuleType), name
        assert not name.startswith("_") or name == "__version__", name


def test_import_leaves_scipy_unloaded():
    # SciPy is imported by the spine distance query alone, not by the package or CLI
    src = str(Path(mcmullen.__file__).resolve().parents[1])
    code = (
        "import sys; import numpy as np; import mcmullen, mcmullen.cli; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m); "
        "d = mcmullen.spine_distances(mcmullen.SpineSpec(2 + 0j), np.array([0.5j, 3 + 0j])); "
        "assert d[0] < 1e-12 and abs(d[1] - (3 - 1.8660254037844386)) < 1e-12, d"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_subcommand_loads_scipy(tmp_path):
    # spine-locus asks spine_within, which needs no k-d tree; no other subcommand
    # reaches the spine distance query either
    src = str(Path(mcmullen.__file__).resolve().parents[1])
    runs = [
        ["verify", "--check", "spine-locus", "--n", "20", "--t", "2,0", "--eps", "0.25",
         "--samples", "32", "--max-iter", "50"],
        ["render", "--n", "4", "--slice", "fixed-c", "--c", "0,6", "--view", "-1,1,-1,1",
         "--size", "8x8"],
        ["centers", "--n", "3", "--c", "6,0"],
        ["spine", "--t", "2,0", "--samples", "16"],
    ]
    code = "import sys; from mcmullen.cli import main; codes = []\n"
    for i, argv in enumerate(runs):
        code += f"codes.append(main({argv + ['--out', str(tmp_path / str(i))]!r}))\n"
    code += (
        "assert codes == [0, 0, 0, 0], codes\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / str(i)).stat().st_size > 0 for i in range(len(runs)))


def test_settable_surface():
    # only the iteration budget of a render is settable; the colors are constants
    assert [f.name for f in dataclasses.fields(mcmullen.RenderConfig)] == ["max_iter"]
    cfg = mcmullen.RenderConfig()
    assert (cfg.color_plus, cfg.color_minus, cfg.bounded_color) == (
        (255, 0, 0), (0, 0, 255), (0, 0, 0))
    assert mcmullen.RenderConfig.bounded_color == (0, 0, 0)
    # the solvers dedupe at one fixed tolerance
    for solver, params in ((mcmullen.fixed_critical_params, ["n", "c"]),
                           (mcmullen.diagonal_fixed_params, ["n", "t"])):
        assert list(inspect.signature(solver).parameters) == params, solver
    # a report's status is derived from its failure count, not stored
    fields = [f.name for f in dataclasses.fields(mcmullen.VerificationReport)]
    assert fields == ["check_name", "params", "samples", "failures", "worst_margin"]
    assert isinstance(inspect.getattr_static(mcmullen.VerificationReport, "passed"), property)
