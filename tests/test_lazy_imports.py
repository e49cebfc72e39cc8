"""A command loads only the modules it runs, and the package's public names
load with their owning modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilcomm
from nilcomm import rings

# every name the package exported when it imported all its modules eagerly
EXPORTS = {
    "config": ["DEFAULT_CONFIG", "EngineConfig"],
    "deciders": ["Verdict", "is_nil_semicommutative", "is_reduced_i", "is_reduced_ii",
                 "is_semicommutative", "is_weakly_semicommutative",
                 "ring_is_nil_semicommutative", "ring_is_semicommutative",
                 "verify_nonsemicommutative_witness",
                 "verify_not_nil_semicommutative_witness"],
    "dsl": ["StructureExpr", "elaborate", "elaborate_text", "parse_structure", "pretty"],
    "errors": ["AxiomError", "DecisionCapError", "InvalidHomError",
               "InvalidParameterError", "NilcommError", "NonCentralGeneratorError",
               "ParseError", "ShapeMismatchError", "SizeCapError", "ZeroAbsorbedError"],
    "harness": ["HarnessOptions", "check_commutative_ring_prop", "check_example_matrix",
                "check_example_tn", "check_example_tn_field", "check_example_vn",
                "check_example_zpn", "check_hom_transfer", "check_lemma_matrix_nil",
                "check_lemma_squarefree", "check_submodule_equivalence",
                "check_t_submodule", "check_tor_t_sets", "check_torsion_free_props",
                "exit_code", "registered_ids", "reverify_refutation", "run_all",
                "run_check"],
    "localization": ["LocalizedModule", "LocalizedRing", "MultiplicativeSet",
                     "check_localization_transfer", "localize_module", "localize_ring",
                     "multiplicative_closure"],
    "modules": ["FiniteModule", "check_module_axioms", "cyclic_submodule",
                "induced_module", "make_product_module", "matrix_module",
                "quotient_module", "regular_module", "submodule_generated"],
    "nilpotency": ["NilSet", "TorsionSets", "is_nil_module", "is_nilpotent_power",
                   "is_nilpotent_squared", "is_torsion_free", "nil_set", "torsion_sets"],
    "reports": ["CheckReport"],
    "rings": ["FULL", "SPECIAL_UPPER", "UPPER", "V_TYPE", "FiniteRing", "MatrixShape",
              "RingHom", "center", "check_ring_axioms", "identity_hom",
              "make_matrix_ring", "make_poly_quotient_ring", "make_product_ring",
              "make_ring_hom", "make_zn", "nil_ring_set", "nilpotency_degree",
              "regular_elements", "verify_theta_iso", "zn_reduction_hom"],
}

ON_DEMAND = ("nilcomm.harness", "nilcomm.localization", "nilcomm.reports")

# Runs the CLI on argv, or only builds its parser when argv is empty, and
# prints the nilcomm modules then loaded as its last line.
PROBE = """
import contextlib, io, sys
import nilcomm.cli
nilcomm.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = nilcomm.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in sys.modules if m.startswith("nilcomm.")))
"""


def loaded_by(*argv) -> set:
    """The nilcomm modules a fresh interpreter holds after the probe."""
    src = str(Path(nilcomm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    code, *modules = done.stdout.split()
    assert code == "0", done.stderr
    return set(modules)


@pytest.mark.parametrize("argv", [
    (),
    ("classify", "regular(Z(4))"),
    ("nilset", "regular(Z(4))"),
    ("search", "zn", "--n", "2..8", "--pattern", "semicommutative & !nil-semicommutative"),
])
def test_parser_and_structure_commands_load_no_harness_or_localization(argv):
    loaded = loaded_by(*argv)
    assert "nilcomm.dsl" in loaded
    assert loaded.isdisjoint(ON_DEMAND), sorted(loaded & set(ON_DEMAND))


def test_verify_paper_loads_the_harness():
    assert {"nilcomm.harness", "nilcomm.reports"} <= loaded_by(
        "verify-paper", "--only", "zpn_hierarchy")


def test_a_localized_expression_loads_localization():
    loaded = loaded_by("classify", "locmod(regular(Z(12)), {2})")
    assert "nilcomm.localization" in loaded
    assert "nilcomm.harness" not in loaded


def test_all_is_every_name_the_package_exported():
    assert sorted(nilcomm.__all__) == sorted(n for names in EXPORTS.values()
                                             for n in names)


@pytest.mark.parametrize("owner", sorted(EXPORTS))
def test_each_name_is_its_owning_modules_object(owner):
    module = importlib.import_module(f"nilcomm.{owner}")
    for name in EXPORTS[owner]:
        assert getattr(nilcomm, name) is getattr(module, name), name


def test_dir_and_star_import_follow_all():
    assert set(nilcomm.__all__) <= set(dir(nilcomm))
    namespace = {}
    exec("from nilcomm import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nilcomm.__all__)


def test_unknown_names_raise_attribute_error_and_submodules_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilcomm.no_such_name
    assert not hasattr(nilcomm, "no_such_name")
    from nilcomm import harness

    assert harness.__name__ == "nilcomm.harness"


def test_names_are_read_from_the_owning_module_each_time(monkeypatch):
    original = rings.make_zn
    assert nilcomm.make_zn is original
    assert "make_zn" not in vars(nilcomm)  # resolved, not stored
    monkeypatch.setattr(rings, "make_zn", lambda *a: None)
    assert nilcomm.make_zn is rings.make_zn is not original
    monkeypatch.undo()
    assert nilcomm.make_zn is original
