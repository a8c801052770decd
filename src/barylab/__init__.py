"""barylab: minimax barycenters, shrinking subdivisions, equivariant nerves,
and boundary retractions in concrete model spaces."""

from . import barycenters, covers, retraction, scenes, simplicial, spaces, subdivision
from .barycenters import (
    BarycenterCertificate,
    BarycenterProblem,
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
)
from .retraction import (
    ConvexBody,
    LineBody,
    PointBody,
    SegmentBody,
    Window,
    angle_to_C,
    build_boundary_grid,
    check_large_angle_escape,
    check_small_relative,
    extend_to_pushoff,
    normal_flow,
)
from .scenes import Scene, run_pipeline
from .simplicial import (
    SimplicialComplex,
    VertexMap,
    barycentric_subdivision,
    map_diameter,
    room,
    validate,
)
from .spaces import (
    Isometry,
    ModelSpace,
    angle_at,
    distance,
    geodesic_point,
)
from .subdivision import (
    ShrinkRecord,
    iterate_subdivision,
    shrinking_subdivide,
    verify_shrinking,
)

__version__ = "0.1.0"
