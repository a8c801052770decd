"""barylab: minimax barycenters, shrinking subdivisions, equivariant nerves,
and boundary retractions in concrete model spaces."""

from . import barycenters, covers, retraction, scenes, simplicial, spaces, subdivision
from .barycenters import (
    BarycenterCertificate,
    BarycenterProblem,
    SearchRegion,
    cat0_midpoint_rule,
    circle_arc_rule,
    has_barycenters_sample,
    lambda_of,
    solve_barycenter,
)
from .covers import (
    AdjacencySet,
    BallCover,
    GroupAction,
    NerveProjector,
    adjacency,
    build_nerve,
    diam_K_Kout,
    is_H_fine,
)
from .retraction import (
    ConvexBody,
    EpsNeighborhood,
    LineBody,
    PointBody,
    PolygonBody,
    SegmentBody,
    angle_to_C,
    build_boundary_grid,
    check_large_angle_escape,
    check_small_relative,
    extend_to_pushoff,
    flow_to_infinity,
    normal_flow,
)
from .scenes import Scene, run_pipeline
from .simplicial import (
    SimplicialComplex,
    SubdivisionProvenance,
    VertexMap,
    barycentric_subdivision,
    least_containing_simplex,
    map_diameter,
    room,
    validate,
)
from .spaces import (
    BoundaryPoint,
    Isometry,
    ModelSpace,
    angle_at,
    apply_isometry,
    distance,
    geodesic_point,
    gromov_product,
    visual_metric,
)
from .subdivision import (
    ShrinkRecord,
    iterate_subdivision,
    shrinking_subdivide,
    verify_shrinking,
)

__version__ = "0.1.0"
