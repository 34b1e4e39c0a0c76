"""fewslopes: drawing bounded-degree planar graphs with few edge slopes.

Three pipelines (straight-line via circle packing, one bend via T-shape
contacts, two bends via st-ordering on regular slopes), instance generators,
and an independent drawing verifier.
"""

from .errors import (
    AmbiguousBucket,
    DegreeTooHigh,
    DegreeTooSmall,
    Disconnected,
    FewslopesError,
    GluingFailed,
    InconsistentRadii,
    NoConvergence,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    PrecisionExhausted,
    RetractionFailed,
    SlopeOffGrid,
    SlopesTooFew,
    StOrderInfeasible,
    TooFewVertices,
    VerticesNotOnOuterFace,
)
from .circlepack import (
    ALPHA,
    CirclePacking,
    PackParams,
    RatioReport,
    layout_centers,
    pack_radii,
    ratio_check,
)
from .drawing import Drawing, EdgeArc, SlopeSet, Wedge
from .families import gen_gd, gen_octahedron, gen_random_triangulation
from .graphs import (
    BlockCutTree,
    CanonicalOrder,
    Embedding,
    PlanarGraph,
    StOrder,
    block_cut_tree,
    canonical_order,
    planar_embed,
    st_order,
    triangulate,
)
from .jsonio import (
    drawing_from_obj,
    drawing_to_obj,
    dumps_canonical,
    graph_from_obj,
    graph_to_obj,
    packing_from_obj,
    packing_to_obj,
)
from .onebend import (
    TShapeRep,
    contact_numbering,
    draw_onebend,
    tshape_representation,
)
from .straightline import (
    OrientationReport,
    SnappedLayout,
    draw_straight,
    orientation_check,
    rstar,
    slope_bound,
    snap,
)
from .twobend import draw_low_degree, draw_twobend, regular_slopes
from .verify import (
    VerifyReport,
    check_contiguous,
    check_gd_claims,
    check_noncrossing,
    hausdorff_within,
    max_bends,
    slope_census,
    slope_classes,
    verify_drawing,
)

__version__ = "0.1.0"
