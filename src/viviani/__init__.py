"""Oriented hyperplane sets with constant signed-distance sums, geometric
medians, and the duality connecting them."""

from .errors import (
    ClosureViolation,
    CoincidesWithAnchor,
    DimensionMismatch,
    DocumentError,
    DocumentSyntaxError,
    DomainError,
    InvalidPolygon,
    InvalidPolytope,
    MixedSigns,
    NonPositiveLength,
    NonUnitNormal,
    NormalizationWarning,
    NormTolerance,
    NotAFermatPoint,
    NotViviani,
    SchemaError,
    SpokeViolation,
    UnknownSolid,
    VivianiError,
)
from .geometry import (
    DEFAULT_TOL,
    HyperplaneSet,
    as_vector,
    is_viviani,
    level_set_direction,
    normal_sum,
    viviani_defect,
    viviani_gradient,
    viviani_values,
)
from .polytope import (
    ConvexPolygon,
    ConvexPolytopeH,
    QuadrilateralClass,
    TriangleClass,
    apothem,
    classify_quadrilateral,
    classify_triangle,
    is_viviani_polygon,
    make_equiangular_polygon,
    platonic_solid_normals,
    polygon_to_hyperplanes,
    regular_polygon,
    tetrahedron_family,
    unsigned_distance_sum,
)
from .fermat import (
    MedianResult,
    MedianStatus,
    PointSet,
    direction_sum_at,
    geometric_median,
    total_distance,
)
from .duality import (
    fermat_to_viviani,
    spoke_points_median_check,
    viviani_to_fermat,
)
from .document import (
    ConfigDocument,
    load_document,
    parse_document,
    planes_document,
    points_document,
    polygon_document,
    serialize_document,
)
from .sampling import Lcg64, sample_points
from .svgplot import render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
