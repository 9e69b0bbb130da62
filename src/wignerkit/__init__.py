"""Toolkit for analyzing linear maps on n-by-n complex matrices: certify
that a map is positive, unital, and rank-k-projection preserving, and
decompose any map passing those checks into its conjugation form
a -> U a U* or a -> U a^t U*.
"""

from .errors import (
    BadIndexError,
    BadParameterError,
    BadRankError,
    DegenerateImageError,
    DimensionMismatchError,
    NonFiniteError,
    NotAProjectionError,
    NotHermitianError,
    NotHermiticityPreservingError,
    NotUnitaryError,
    NotWignerLikeError,
    SerializationError,
    SingularMapError,
    WignerkitError,
)
from .genmaps import (
    FAMILIES,
    build_map,
    choi_map,
    depolarizing,
    perturbed_wigner,
    planted_indefinite,
    pseudo_depolarizing,
    transpose_superop,
    wigner_map,
)
from .matrix_core import (
    DEFAULT_PROJECTION_TOL,
    Projection,
    haar_unitary,
    phase_distance,
    random_hermitian,
    random_rank_k_projection,
    random_unit_vector,
    require_unitary,
    validate_projection,
)
from .superop import (
    CONVENTION,
    ChoiMatrix,
    PositivityCertificate,
    SuperOp,
    apply,
    from_action,
    from_choi,
    invert,
    is_hermiticity_preserving,
    is_invertible,
    is_unital,
    positivity_certificate,
    to_choi,
    unvec,
    vec,
)
from .wigner import (
    DIRECT,
    TRANSPOSE,
    AnalysisReport,
    ClassifyConfig,
    Lemma1Decomposition,
    RankKAudit,
    WignerForm,
    classify,
    definite_set_check,
    extract_unitary,
    lemma1_projections,
    preserves_rank_k,
    vector_state_partner,
)

__version__ = "0.1.0"
