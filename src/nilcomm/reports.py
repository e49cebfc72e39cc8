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


def claim_report(check_id: str, claim: str, detail: dict,
                 witness: dict | None = None) -> CheckReport:
    """A claim check's report: refuted exactly when it carries a witness,
    which goes last in the detail; confirmed otherwise."""
    if witness is not None:
        detail["witness"] = witness
    return CheckReport(check_id, claim, CONFIRMED if witness is None else REFUTED, detail)
