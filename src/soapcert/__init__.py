"""Cone total curvature of embedded graphs in constant-curvature model
spaces, geodesic-cone developments, and soap-film regularity certificates."""

from .certify import (
    CROSSING_DENSITY,
    T_CONE_DENSITY,
    Y_CONE_DENSITY,
    Certificate,
    HullApprox,
    Mode,
    Verdict,
    certify,
    density_bound,
    evaluate_certificates,
    extremal_cone_area,
    hull_approx,
    karcher_center,
)
from .cone import (
    ConeDevelopment,
    EdgeDevelopment,
    ambient_cone_area,
    ambient_cone_density,
    check_apex,
    cone_conormal_curvature,
    develop_cone,
    developed_points,
    development_plane,
    gauss_bonnet_residual,
)
from .curvature import (
    TCReport,
    cone_total_curvature,
    edge_curvature,
    edge_total_curvature,
    vertex_tc,
    vertex_tc_grid,
)
from .errors import (
    ApexOnGraphError,
    ConjugatePointError,
    DiameterBoundError,
    IterationError,
    NumericalError,
    SoapcertError,
    ValidationError,
)
from .graph import (
    EdgeCurve,
    EdgeTraversal,
    EmbeddedGraph,
    Vertex,
    connected_components,
    edge_unit_tangents,
    euler_double_circuit,
    load_graph,
    load_graph_file,
    resample_arclength,
    vertex_star,
)
from .spaceform import (
    ComparisonFns,
    Model,
    SpaceForm,
    TangentVector,
    angle,
    comparison_fns,
    dist,
    exp_map,
    inner,
    log_map,
)

__version__ = "0.1.0"
