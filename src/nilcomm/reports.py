"""Structured outcome records for named claim checks."""

from __future__ import annotations

from dataclasses import dataclass, field

CONFIRMED = "confirmed"
REFUTED = "refuted"
SKIPPED = "skipped"

STATUSES = (CONFIRMED, REFUTED, SKIPPED)


@dataclass
class CheckReport:
    """Outcome of one named check.

    status is one of confirmed / refuted / skipped.  A report is refuted
    exactly when it carries a witness payload in detail["witness"], which a
    single evaluation can replay; skipped reports carry detail["reason"].
    """

    check_id: str
    claim: str
    status: str
    detail: dict = field(default_factory=dict)
    runtime_ms: int = 0

    def to_json_dict(self, timing: bool = False) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "detail": self.detail,
            "runtime_ms": self.runtime_ms if timing else 0,
        }


def strip_runtime(value):
    """Recursively drop runtime_ms keys from nested report detail."""
    if isinstance(value, dict):
        return {k: strip_runtime(v) for k, v in value.items() if k != "runtime_ms"}
    if isinstance(value, (list, tuple)):
        return [strip_runtime(v) for v in value]
    return value
