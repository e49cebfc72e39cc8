"""Runtime limits and determinism knobs shared across the engine."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

DEFAULT_SEED = 1729
CAP_ENV_VAR = "NILCOMM_CAP"


@dataclass(frozen=True)
class EngineConfig:
    """Caps and defaults governing construction, validation and decisions.

    construction_cap: largest element count a constructor may produce.
    decision_cap: largest (a, r, m) triple count an exhaustive scan may visit.
    tabulate_threshold: structures up to this size (a module's ring too)
        store int32 operation tables; larger ones compute operations per
        call and materialize a table only for an exhaustive scan.
    full_check_budget: triple budget for exhaustive axiom checks at construction.
    validation_samples: sampled axiom triples per law family (one for
        rings, three for modules) used above that budget.
    seed: base seed for every sampled procedure.
    sample_count: default sample count for witness-mode verification runs.
    force: lift decision-cap refusals.
    """

    construction_cap: int = 2 ** 20
    decision_cap: int = 2 ** 24
    tabulate_threshold: int = 1024
    full_check_budget: int = 2 ** 16
    validation_samples: int = 2000
    seed: int = DEFAULT_SEED
    sample_count: int = 1000
    force: bool = False

    def with_overrides(self, **kw) -> "EngineConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = EngineConfig()


def resolve(config: EngineConfig | None) -> EngineConfig:
    return DEFAULT_CONFIG if config is None else config


def cap_from_env(default: int | None = None) -> int | None:
    """Read the decision-cap override from the environment, if set."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
