"""nilcomm: finite rings and modules, nilpotency, and the semicommutativity
hierarchy, decided exhaustively with explicit witnesses.

The public names below load with their owning module on first use, so a
command imports only the modules it runs (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# owning module -> the public names it exports through the package
_EXPORTS = {
    "config": "DEFAULT_CONFIG EngineConfig",
    "deciders": "Verdict is_nil_semicommutative is_reduced_i is_reduced_ii "
                "is_semicommutative is_weakly_semicommutative "
                "ring_is_nil_semicommutative ring_is_semicommutative "
                "verify_nonsemicommutative_witness "
                "verify_not_nil_semicommutative_witness",
    "dsl": "StructureExpr elaborate elaborate_text parse_structure pretty",
    "errors": "AxiomError DecisionCapError InvalidHomError InvalidParameterError "
              "NilcommError NonCentralGeneratorError ParseError "
              "ShapeMismatchError SizeCapError ZeroAbsorbedError",
    "harness": "HarnessOptions check_commutative_ring_prop check_example_matrix "
               "check_example_tn check_example_tn_field check_example_vn "
               "check_example_zpn check_hom_transfer check_lemma_matrix_nil "
               "check_lemma_squarefree check_submodule_equivalence "
               "check_t_submodule check_tor_t_sets check_torsion_free_props "
               "exit_code registered_ids reverify_refutation run_all run_check",
    "localization": "LocalizedModule LocalizedRing MultiplicativeSet "
                    "check_localization_transfer localize_module localize_ring "
                    "multiplicative_closure",
    "modules": "FiniteModule check_module_axioms cyclic_submodule induced_module "
               "make_product_module matrix_module quotient_module "
               "regular_module submodule_generated",
    "nilpotency": "NilSet TorsionSets is_nil_module is_nilpotent_power "
                  "is_nilpotent_squared is_torsion_free nil_set torsion_sets",
    "reports": "CheckReport",
    "rings": "FULL SPECIAL_UPPER UPPER V_TYPE FiniteRing MatrixShape RingHom "
             "center check_ring_axioms identity_hom make_matrix_ring "
             "make_poly_quotient_ring make_product_ring make_ring_hom make_zn "
             "nil_ring_set nilpotency_degree regular_elements verify_theta_iso "
             "zn_reduction_hom",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name: str):
    # resolved afresh on every lookup, never stored here: the owning module's
    # binding is the one a profiler wraps and restores
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
