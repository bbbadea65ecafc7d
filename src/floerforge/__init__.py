"""floerforge: exact knot-complex computations over F2[U].

Core layers:

- ``fualgebra``   exact homological algebra for free graded F2[U]-complexes
- ``cfk``         knot complexes: builders, sums, mirrors, hat invariants
- ``surgery``     the integer-surgery mapping cone and its graded output
- ``whitehead``   Whitehead doubles and doubling towers, as complexes and box sums
- ``endfloer``    directed systems, end invariants, distinguishability
- ``verify``      the reproduction suite behind ``floerforge verify``
- ``cli``         command-line front end
"""

from .cfk import (
    Ambient,
    HfkTable,
    KnotComplex,
    ReducedBasisForm,
    box,
    builtin,
    connected_sum_knots,
    figure8,
    filtration_homology,
    hfk_hat,
    j_in_y,
    jprime_in_yprime,
    k_n,
    knot_numerics,
    mirror_knot,
    reduce_canonical,
    reduced_basis_form,
    staircase_torus,
    unknot,
    validate_knot,
)
from .endfloer import (
    CH_MINUS,
    CH_PLUS,
    CH_STAR,
    CassonHandle,
    ClosedManifoldData,
    DistinguishVerdict,
    EndFloerReport,
    ExhaustionSpec,
    INFINITE,
    Level,
    RankEntry,
    SliceR4Spec,
    StepDescriptor,
    colimit,
    distinguish,
    he_end_sum,
    he_product_end,
    he_slice_r4,
    normalize_level,
    restrict_spec,
    s1xs2_data,
    s3_data,
)
from .fualgebra import (
    FUDecomposition,
    FreeComplex,
    InvalidComplex,
    ValidationReport,
    format_grading,
    grading,
    homology_decomposition,
    plus_presentation,
    tensor_complexes,
    validate_complex,
)
from .surgery import (
    HFPlusResult,
    MappingCone,
    MissingFlip,
    TriangleForce,
    build_cone,
    connected_sum_floer,
    exact_triangle_force,
    one_handle_stabilize,
    surgery_hf,
)
from .whitehead import (
    FormalRankError,
    box_parameters,
    box_tower,
    hedden_hfk_double,
    negative_double_cfk,
    whitehead_double_cfk,
)

__version__ = "0.1.0"
