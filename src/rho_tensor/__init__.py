"""Exact weight multiplicities and tensor product decompositions for simple
and untwisted affine Kac-Moody Lie algebras, plus verification scans for the
translated-weight-set description of the components of V(m rho) (x) V(n rho).
"""

from .rootdata import (
    AlgebraError,
    AlgebraId,
    InvariantError,
    RootSystem,
    RootVector,
    Weight,
    build_root_system,
)
from .charcalc import (
    CharCache,
    DominantCharacter,
    default_cache,
    dominant_weights_below,
    freudenthal,
)
from .tensor import (
    Decomposition,
    SchurReport,
    contains_component,
    klimyk,
    oracle_decompose,
    saturation_check,
    schur_compare,
)
from .affine import (
    AffineWeight,
    GkoReport,
    TruncatedAffineCharacter,
    TruncatedDecomposition,
    affine_bilinear,
    affine_freudenthal,
    affine_rho,
    affinize,
    delta_max_weights,
    delta_string_classify,
    gko_central_charge,
    gko_l0_scalar,
    gko_positivity_certificate,
    kac_wakimoto_check,
    level,
    sl2_delta_max_rule,
    truncated_tensor,
)
from .harness import (
    AffineConjectureReport,
    ConjectureReport,
    SupportContainmentReport,
    naive_condition_scan,
    predicted_weights,
    scan_all,
    support_containment_check,
    verify_affine_conjecture,
    verify_conjecture,
)

__version__ = "0.1.0"
