"""Exact-arithmetic Lie theory: E6, its involutions, Klein four subgroups,
fixed-point subalgebras and real forms, with mechanical verification."""

from .exactq import kernel, rank, symmetric_inertia
from .rootsys import (
    CartanMatrixError,
    RootSystem,
    StructureTable,
    build_root_system,
    cartan_matrix,
    chevalley_table,
    killing_form,
)
from .autos import (
    Automorphism,
    CertificationError,
    KleinGroup,
    commutes,
    compose,
    diagram_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_involution,
    weyl_lift,
)
from .identify import (
    IdentifyError,
    ReductiveType,
    Subalgebra,
    center_of,
    fixed_subalgebra,
    identify_type,
    match_cartan,
)
from .realform import (
    CatalogMissError,
    CompactBasis,
    RealFormDescriptor,
    RealFormError,
    cartan_decomposition,
    compact_form,
    is_holomorphic_type,
    load_catalog,
    real_fixed_subalgebra,
)
from .verify import (
    CLASS_INVARIANTS,
    Census,
    CensusError,
    Configuration,
    Report,
    SearchExhausted,
    VerifyContext,
    classify_involution,
    find_rank3_configuration,
    find_so9_klein,
    involution_census,
    run_all,
)

__version__ = "0.1.0"
