"""Runtime limits and determinism knobs shared across the engine."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import DecisionCapError, InvalidParameterError, SizeCapError

DEFAULT_SEED = 1729
CAP_ENV_VAR = "NILCOMM_CAP"
# Element counts of up to this many bits are computed exactly; past it a power
# is refused by its least bit count, as computing it could take seconds.
_EXACT_BITS = 1 << 20


@dataclass(frozen=True)
class EngineConfig:
    """Caps and defaults governing construction, validation and decisions.

    construction_cap: largest element count a constructor may produce.
    decision_cap: largest step count an exhaustive scan may visit: (a, r, m)
        triples for a decision, element pairs for derived sets, nil and
        torsion sets and hom checks, relation checks for fractions,
        k * max(k, |R|) pairs for the closure scan of a k-member submodule
        and for each pass of gen's closure loop, and |M| * max(|M|, |R|)
        pairs for a quotient's coset scans.  Past it the scan refuses with
        DecisionCapError (see refuse_above_cap).  The exact axiom check
        counts against it too, and past it samples instead.
    tabulate_threshold: structures up to this size (a module's ring too)
        store int32 operation tables; larger ones compute operations per
        call and materialize a table only for an exhaustive scan.
    full_check_budget: budget of the exact axiom check at construction: a
        structure is checked exactly when |G| max(|M|^2, |R||M|, |R|^2) (G
        its additive generators) fits it and the decision cap.
    validation_samples: sampled axiom triples per law family (one for
        rings, three for modules) used where the exact check does not fit.
    seed: base seed for every sampled procedure.
    force: lift every decision-cap refusal.
    """

    construction_cap: int = 2 ** 20
    decision_cap: int = 2 ** 24
    tabulate_threshold: int = 1024
    full_check_budget: int = 2 ** 16
    validation_samples: int = 2000
    seed: int = DEFAULT_SEED
    force: bool = False

    def with_overrides(self, **kw) -> "EngineConfig":
        return replace(self, **kw)

    def allows(self, count: int) -> bool:
        """Whether a scan of count steps may run: within the cap, or forced."""
        return count <= self.decision_cap or self.force

    def refuse_above_cap(self, count: int, what: str) -> None:
        """DecisionCapError naming the scan (what) unless allows(count)."""
        if not self.allows(count):
            raise DecisionCapError(
                f"{what} exceeds cap {self.decision_cap}; re-run with force to override",
                self.decision_cap)

    def check_size(self, size: int, kind: str, descriptor: str, power: int = 1) -> int:
        """size ** power, the element count of a structure (kind: ring or
        module), once it is positive and within the construction cap.  Past 64
        bits an over-cap count is named by its bit count (int() refuses to
        print thousands of digits), and past _EXACT_BITS by its least bit
        count, power * (bits of size - 1) + 1, before the power is computed."""
        least_bits = power * (size.bit_length() - 1) + 1
        if least_bits > max(_EXACT_BITS, self.construction_cap.bit_length()):
            shown = f"of at least {least_bits} bits"
        else:
            size **= power
            if size < 1:
                raise InvalidParameterError(f"{kind} size must be positive, got {size}")
            if size <= self.construction_cap:
                return size
            shown = size if size.bit_length() <= 64 else f"of {size.bit_length()} bits"
        raise SizeCapError(
            f"{descriptor}: size {shown} exceeds the construction cap "
            f"{self.construction_cap}", self.construction_cap)


DEFAULT_CONFIG = EngineConfig()


def resolve(config: EngineConfig | None, *operands) -> EngineConfig:
    """The config given, else the first operand structure's (a tuple
    operand's members in order), else DEFAULT_CONFIG."""
    structures = (x for op in operands for x in (op if isinstance(op, tuple) else (op,))
                  if isinstance(getattr(x, "config", None), EngineConfig))
    return config if config is not None else next((x.config for x in structures), DEFAULT_CONFIG)


def cap_from_env(default: int | None = None) -> int | None:
    """Read the decision-cap override from the environment, if set."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
