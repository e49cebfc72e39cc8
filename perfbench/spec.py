"""What the benchmark runs and reports: workloads, metrics, bounds.

BENCHMARK.json at the repository root is generated from this file with
`python3 perfbench/run.py --write-spec`, so the two cannot drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 40

# The search workload's family range.  Fixed before the first baseline:
# changing it changes what the benchmark measures.
SEARCH_RANGE = "2..64"
SEARCH_PATTERN = "semicommutative & !nil-semicommutative"

CLASSIFY_PROPERTIES = ("semicommutative,weakly-semicommutative,"
                       "nil-semicommutative,reduced-i,reduced-ii")

# Reaches every module constructor the DSL has.  The first two dominate:
# a long nil-semicommutative scan, then 256x256 table building.
CLASSIFY_CORPUS = (
    "matmod(2, regular(Z(4)))",
    "smod(3, regular(Z(4)))",
    "regular(T(2, Z(6)))",
    "matmod(2, regular(Z(3)))",
    "trimod(3, regular(Z(2)))",
    "vmod(3, regular(Z(4)))",
    "regular(polyq(Z(4), 3))",
    "prodmod(regular(Z(8)), regular(Z(8)))",
    "quot(regular(Z(12)), gen(regular(Z(12)), {4}))",
    "locmod(regular(Z(12)), {2})",
    "induced(zred(8, 4), regular(Z(4)))",
)

WORKLOADS = {
    "registry": "the paper's 20-check claim registry; bound by ring and "
                "module building and axiom validation, and the only run of "
                "the untabulated M(4, Z(2)) path",
    "classify": "11 fixed expressions reaching every module constructor; "
                "bound by the decider scans and by building 256x256 tables",
    "search": "63 distinct tiny Z(n) structures, none repeated; per-structure "
              "fixed cost, so interning or caching should not move it",
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists one pass of a workload runs, in order."""
    seed_args = ["--seed", str(seed)]
    if workload == "registry":
        return [["verify-paper", "--format", "json", *seed_args]]
    if workload == "classify":
        return [["classify", expr, "--properties", CLASSIFY_PROPERTIES,
                 "--format", "json", *seed_args] for expr in CLASSIFY_CORPUS]
    if workload == "search":
        return [["search", "zn", "--n", SEARCH_RANGE, "--pattern",
                 SEARCH_PATTERN, "--format", "json", *seed_args]]
    raise ValueError(f"unknown workload {workload!r}")


# (name, unit, better, bound).  Times are on hostspeed.SpeedClock: seconds
# at the host's reference speed.  error_rate is printed and stored with
# each result but is not listed here: it reads 0 on a correct run, and the
# result line already carries it as failed / attempted.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scaled_wall_s", "s", "lower", 0.25),
    ("scaled_ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CHECK_IDS = (
    "lemma_squarefree", "matrix_nil_coverage", "zpn_hierarchy",
    "matrix_semicommutativity", "tn_zpn_not_nil_semicommutative",
    "tn_field_not_nil_semicommutative", "vn_not_nil_semicommutative",
    "torsion_free_collapse", "criterion_equivalence", "submodule_equivalence",
    "commutative_nilpotency_transfer", "hom_transfer",
    "torsion_vs_regular_torsion", "t_set_submodule", "localization_wellformed",
    "localization_transfer", "nil_module_properties", "submodules_inherit",
    "quotient_by_torsion", "theta_iso",
)

MODULE_PROPERTIES = ("semicommutative", "weakly-semicommutative",
                     "nil-semicommutative", "reduced-i", "reduced-ii")

# (name, unit, better).  Times are self times unless the name says
# otherwise; harness.check.<id>_s is the check's whole duration.
PER_LAYER = (
    ("rings.axioms_s", "s", "lower"),
    ("rings.axioms_calls", "count", "lower"),
    ("rings.axiom_triples", "count", "lower"),
    ("rings.build_self_s", "s", "lower"),
    ("rings.build_calls", "count", "lower"),
    ("rings.table_cells", "count", "lower"),
    ("rings.derived_s", "s", "lower"),
    ("modules.axioms_s", "s", "lower"),
    ("modules.axioms_calls", "count", "lower"),
    ("modules.axiom_triples", "count", "lower"),
    ("modules.build_self_s", "s", "lower"),
    ("modules.build_calls", "count", "lower"),
    ("modules.table_cells", "count", "lower"),
    ("modules.submodule_s", "s", "lower"),
    ("nilpotency.nil_set_s", "s", "lower"),
    ("nilpotency.nil_set_calls", "count", "lower"),
    ("nilpotency.nil_set_cache_hits", "count", "higher"),
    ("nilpotency.nil_pairs", "count", "lower"),
    ("nilpotency.pointwise_s", "s", "lower"),
    ("nilpotency.pointwise_calls", "count", "lower"),
    ("nilpotency.torsion_s", "s", "lower"),
    *((f"deciders.{p}_s", "s", "lower") for p in MODULE_PROPERTIES),
    ("deciders.ring_s", "s", "lower"),
    ("deciders.triples", "count", "lower"),
    ("deciders.triples_per_s", "1/s", "higher"),
    ("deciders.replay_s", "s", "lower"),
    ("harness.replay_s", "s", "lower"),
    ("dsl.parse_s", "s", "lower"),
    ("dsl.elaborate_self_s", "s", "lower"),
    ("localization.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"harness.check.{c}_s", "s", "lower") for c in CHECK_IDS),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
