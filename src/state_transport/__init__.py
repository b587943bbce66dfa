"""Finite-dimensional state transport along unitary paths.

Quantitative constructions for moving vector states around inside matrix
algebras: Gram completion and family alignment, geodesics on the unitary
group with length certificates, transports in relative commutants, circle
partitions for a distinguished unitary, Folner-averaged group-equivariant
transport, and an alternating back-and-forth intertwiner over towers.
"""

from .algebra import (
    BlockAlgebra,
    KronUnits,
    MatrixUnits,
    conjugated_units,
    direct_sum_algebra,
    full_matrix_units,
)
from .circle import (
    ArcTransportResult,
    CirclePartition,
    SpectralModel,
    arc_transport,
    circle_partition,
    evaluate_window,
    window_function,
)
from .errors import (
    AssemblyError,
    BranchCutError,
    CertificateError,
    DegenerateWindowError,
    DetourFailureError,
    DimensionError,
    DisjointnessError,
    FlipInconsistencyError,
    HypothesisError,
    InfeasiblePartitionError,
    InvalidTargetError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    RoundFailureError,
    SingularMatrixError,
    StateTransportError,
    UnsupportedGroupError,
)
from .gram import (
    AlignmentResult,
    GramTarget,
    VectorFamily,
    align_unitary,
    alignment_bound,
    gram_complete,
    gram_matrix,
    greedy_pivot_select,
)
from .group import (
    FolnerSet,
    GroupAction,
    GroupTransportResult,
    average_conjugates,
    finite_cyclic_action,
    flip_projection,
    folner_set,
    group_state_transport,
    integer_action,
)
from .intertwine import (
    AlgebraTower,
    IntertwineResult,
    Schedule,
    assemble_path,
    assembled_commutation_sup,
    back_and_forth,
    build_tower,
    make_schedule,
)
from .path import PathSegment, UnitaryPath, concat_paths, merge_orthogonal_paths
from .transport import (
    MultiTransportResult,
    TransportResult,
    commutant_transport,
    excise,
    excision_error,
    geodesic_angle,
    geodesic_lower_bound,
    geodesic_pair,
    multi_transport,
    projection_transport,
    spectrum_match,
)

__version__ = "0.1.0"
