"""Tools for the rational family z**n + a/z**n + c: escape-time rendering of
parameter slices and dynamical planes, exact region geometry (polar rectangles,
ellipse halves, admissible parameter regions, the diagonal-slice spine), fixed
critical-point solvers, and a sampling-based verification engine for containment,
winding, and escape claims."""

from types import ModuleType as _ModuleType

from .errors import (
    HypothesisError,
    InconsistencyError,
    PoleError,
    RootFindingError,
    UnderSamplingError,
)
from .family import (
    MapParams,
    OrbitResult,
    critical_values,
    escape_radius,
    eval_map,
    inner_radius,
    iterate_orbit,
    iterate_orbits_bulk,
    principal_arg,
    principal_root,
    principal_sqrt,
    wrap_angle,
)
from .regions import (
    HalfEllipseSpec,
    PolarRect,
    WRegionSpec,
    ellipse_spec,
    half_ellipse_membership,
    l_c_rect,
    polar_contains,
    sector_index,
    u_prime_rect,
    v_rect,
    w_region_contains,
)
from .render import (
    Diagonal,
    Dynamical,
    FixedA,
    FixedC,
    Image,
    RenderConfig,
    SliceSpec,
    Viewport,
    classify_pixel,
    encode_ppm,
    render_slice,
)
from .solvers import (
    diagonal_fixed_params,
    fixed_critical_params,
)
from .spine import (
    SpineSpec,
    spine_distances,
    spine_point,
    spine_points,
    spine_radii,
    spine_within,
)
from .verify import (
    CSV_HEADER,
    VerificationReport,
    reports_to_csv,
    verify_annulus_escape,
    verify_containment,
    verify_image_ellipse,
    verify_spine_locus,
    verify_vminus_sign,
    verify_winding,
)

__version__ = "0.1.0"

# Every name imported above is public; the imports are the only list of them.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
