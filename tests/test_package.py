"""The package namespace: every public name importable from `mcmullen`."""
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import mcmullen

ROOT = Path(__file__).resolve().parents[1]

# The public names of the package; each must stay importable from the top level,
# and removing one is a deliberate API change.
PUBLIC_NAMES = (
    "HypothesisError", "InconsistencyError", "PoleError", "RootFindingError",
    "UnderSamplingError", "MapParams", "OrbitResult", "critical_values", "escape_radius",
    "eval_map", "inner_radius", "iterate_orbit", "iterate_orbits_bulk", "principal_arg",
    "principal_root", "principal_sqrt", "wrap_angle",
    "HalfEllipseSpec", "PolarRect", "WRegionSpec", "ellipse_spec", "half_ellipse_membership",
    "l_c_rect", "polar_contains", "sector_index", "u_prime_rect", "v_rect",
    "w_region_contains",
    "Diagonal", "Dynamical", "FixedA", "FixedC", "Image", "RenderConfig", "SliceSpec",
    "Viewport", "classify_pixel", "encode_ppm", "render_slice",
    "diagonal_fixed_params", "fixed_critical_params", "poly_roots", "SpineSpec",
    "spine_distances", "spine_point", "spine_points", "spine_radii",
    "CSV_HEADER", "VerificationReport", "reports_to_csv", "verify_annulus_escape",
    "verify_containment", "verify_image_ellipse", "verify_spine_locus", "verify_vminus_sign",
    "verify_winding", "winding_turns", "__version__",
)


def test_public_names_importable():
    for name in PUBLIC_NAMES:
        assert name in mcmullen.__all__, name  # so `from mcmullen import *` brings it
        assert hasattr(mcmullen, name), name


def _read_names(path):
    """Every name a file reads, imports by name or reaches as an attribute; a name
    that is only defined (def, class or assignment) is not read."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    # every exported name is read by a package module (its own included, but not
    # __init__), by the bench harness or by the acceptance tests: API that only
    # its own tests call is not shipped
    package = ROOT / "src" / "mcmullen"
    files = [*package.glob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(_read_names(path) for path in files if path.name != "__init__.py"))
    uncalled = [name for name in mcmullen.__all__ if name not in read | {"__version__"}]
    assert uncalled == []


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
