"""nilcomm: finite rings and modules, nilpotency, and the semicommutativity
hierarchy, decided exhaustively with explicit witnesses."""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, EngineConfig
from .deciders import (
    Verdict,
    is_nil_semicommutative,
    is_reduced_i,
    is_reduced_ii,
    is_semicommutative,
    is_weakly_semicommutative,
    ring_is_nil_semicommutative,
    ring_is_semicommutative,
    verify_nonsemicommutative_witness,
    verify_not_nil_semicommutative_witness,
)
from .dsl import StructureExpr, elaborate, elaborate_text, parse_structure, pretty
from .errors import (
    AxiomError,
    DecisionCapError,
    InvalidHomError,
    InvalidParameterError,
    NilcommError,
    NonCentralGeneratorError,
    ParseError,
    ShapeMismatchError,
    SizeCapError,
    ZeroAbsorbedError,
)
from .harness import (
    HarnessOptions,
    check_commutative_ring_prop,
    check_example_matrix,
    check_example_tn,
    check_example_tn_field,
    check_example_vn,
    check_example_zpn,
    check_hom_transfer,
    check_lemma_matrix_nil,
    check_lemma_squarefree,
    check_submodule_equivalence,
    check_t_submodule,
    check_tor_t_sets,
    check_torsion_free_props,
    exit_code,
    registered_ids,
    reverify_refutation,
    run_all,
    run_check,
)
from .localization import (
    LocalizedModule,
    LocalizedRing,
    MultiplicativeSet,
    check_localization_transfer,
    localize_module,
    localize_ring,
    multiplicative_closure,
)
from .modules import (
    FiniteModule,
    check_module_axioms,
    cyclic_submodule,
    induced_module,
    make_product_module,
    matrix_module,
    quotient_module,
    regular_module,
    submodule_generated,
)
from .nilpotency import (
    NilSet,
    TorsionSets,
    is_nil_module,
    is_nilpotent_power,
    is_nilpotent_squared,
    is_torsion_free,
    nil_set,
    torsion_sets,
)
from .reports import CheckReport
from .rings import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    FiniteRing,
    MatrixShape,
    RingHom,
    center,
    check_ring_axioms,
    identity_hom,
    make_matrix_ring,
    make_poly_quotient_ring,
    make_product_ring,
    make_ring_hom,
    make_zn,
    nil_ring_set,
    nilpotency_degree,
    regular_elements,
    verify_theta_iso,
    zn_reduction_hom,
)
