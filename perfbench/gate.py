"""Correctness gate: each op's output against its golden, plus replays.

An op fails when its CLI call raises, when it becomes an internal-error
skip, when its bytes differ from the golden, or when a witness replay or
an implication of the hierarchy fails.  Every failure is counted; none
aborts the workload.

Replays call the engine through module attributes (`deciders.verify_...`)
at call time, so a traced run attributes them to their layer.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

IMPLICATIONS = (
    ("reduced-i", "semicommutative"),
    ("semicommutative", "weakly-semicommutative"),
    ("nil-semicommutative", "weakly-semicommutative"),
)


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> list[dict]:
    """Golden invocations of one workload: argv (without --seed), exit code
    and exact stdout, recorded with timing off at the default seed."""
    return json.loads(golden_path(workload).read_text())["invocations"]


def strip_seed(argv: list[str]) -> list[str]:
    if "--seed" in argv:
        i = argv.index("--seed")
        return argv[:i] + argv[i + 2:]
    return list(argv)


def implication_failures(verdicts: dict) -> list[str]:
    return [f"{a} holds but {b} does not" for a, b in IMPLICATIONS
            if verdicts.get(a) is True and verdicts.get(b) is False]


class Gate:
    """Checks the invocations of one workload against their goldens.

    module_for(descriptor) returns an independently elaborated module, or
    None, for classify witness replay; while module_for itself is None,
    classify witness replays wait for replay_deferred().  config is the
    engine config the registry refutations are replayed under.
    """

    def __init__(self, workload: str, golden: list[dict], module_for=None,
                 config=None):
        self.workload = workload
        self.golden = golden
        self.module_for = module_for
        self.config = config
        self.deferred: list[tuple[int, str, list[dict]]] = []
        self._docs = [json.loads(g["stdout"]) for g in golden]

    def ops_of(self, index: int) -> int:
        """Ops one invocation counts: checks, instances, or one expression."""
        if self.workload == "classify":
            return 1
        return len(self._docs[index]["results"])

    def check(self, index: int, argv: list[str], exit_code: int,
              stdout: str) -> tuple[int, dict[int, str]]:
        """(ops, {op index: first failure reason}) for one invocation."""
        gold = self.golden[index]
        n = self.ops_of(index)
        if strip_seed(argv) != gold["argv"]:
            return n, {op: "argv differs from the golden's" for op in range(n)}
        try:
            doc = json.loads(stdout)
        except ValueError:
            return n, {op: f"output is not JSON (exit {exit_code})"
                       for op in range(n)}
        if self.workload == "classify":
            bad = self._classify(index, doc)
        else:
            bad = self._entries(doc, self._docs[index])
        if not bad and (stdout != gold["stdout"]
                        or exit_code != gold["exit_code"]):
            bad = {0: "document bytes or exit code differ from the golden"}
        return n, bad

    def _entries(self, doc: dict, gold_doc: dict) -> dict[int, str]:
        """registry and search: one op per entry of the results list."""
        results = doc.get("results", [])
        bad: dict[int, str] = {}
        for op, want in enumerate(gold_doc["results"]):
            got = results[op] if op < len(results) else None
            reason = None
            if got != want:
                reason = "entry differs from the golden"
            elif got.get("detail", {}).get("reason") == "internal-error":
                reason = "internal-error skip"
            elif "skipped" in got:
                reason = f"instance skipped: {got['skipped']}"
            elif got.get("status") == "refuted":
                reason = self._replay_refutation(got)
            elif "verdicts" in got:
                reason = "; ".join(implication_failures(got["verdicts"])) or None
            if reason:
                bad[op] = reason
        return bad

    def _replay_refutation(self, entry: dict) -> str | None:
        from nilcomm import harness

        try:
            ok = harness.reverify_refutation(entry["detail"]["witness"],
                                             self.config)
        except Exception as exc:  # a replay that raises is a failed op
            return f"refutation replay raised {type(exc).__name__}: {exc}"
        return None if ok else f"refutation of {entry['check_id']} did not replay"

    def replay_deferred(self) -> dict[int, dict[int, str]]:
        """Replay the classify witnesses deferred while module_for was None:
        {invocation index: {op: first failure reason}} for those that fail."""
        late = {}
        for index, descriptor, failing in self.deferred:
            reasons = self._replay(descriptor, failing)
            if reasons:
                late[index] = {0: "; ".join(reasons)}
        self.deferred = []
        return late

    def _classify(self, index: int, doc: dict) -> dict[int, str]:
        verdicts = {e["property"]: e["holds"] for e in doc["results"]
                    if "property" in e}
        reasons = implication_failures(verdicts)
        failing = [e for e in doc["results"] if e.get("holds") is False]
        if failing and self.module_for is None:
            self.deferred.append((index, doc["descriptor"], failing))
        elif failing:
            reasons += self._replay(doc["descriptor"], failing)
        return {0: "; ".join(reasons)} if reasons else {}

    def _replay(self, descriptor: str, failing: list[dict]) -> list[str]:
        module = self.module_for(descriptor)
        if module is None:
            return [f"no replay structure for {descriptor}"]
        return [r for r in (_replay_verdict(module, e) for e in failing) if r]


def _replay_verdict(module, entry: dict) -> str | None:
    """None when a failing classify verdict's witness replays, else why."""
    prop = entry["property"]
    try:
        w = entry["witness"]
        ok = replay_witness(module, prop, w["a"], w["r"], w["m"])
    except Exception as exc:  # a replay that raises is a failed op
        return f"{prop} replay raised {type(exc).__name__}: {exc}"
    if ok:
        return None
    return f"{prop} witness (a={w['a']}, r={w['r']}, m={w['m']}) does not replay"


def replay_witness(module, prop: str, a: int, r: int, m: int) -> bool:
    """True when (a, r, m) violates prop on module.

    The engine's two witness verifiers cover the first three properties;
    the reduced conditions are checked from their definitions.
    """
    from nilcomm import deciders

    if prop == "semicommutative":
        return deciders.verify_nonsemicommutative_witness(module, a, r, m)
    if prop == "weakly-semicommutative":
        # am = 0 and a(rm) not nilpotent: both verifiers must accept
        return (deciders.verify_nonsemicommutative_witness(module, a, r, m)
                and deciders.verify_not_nil_semicommutative_witness(
                    module, a, r, m))
    if prop == "nil-semicommutative":
        return deciders.verify_not_nil_semicommutative_witness(module, a, r, m)
    act, zero = module.act, module.zero
    if prop == "reduced-i":
        a2 = module.ring.mul(a, a)
        return act(a2, m) == zero and act(a, act(r, m)) != zero
    if prop == "reduced-ii":
        w = act(r, m)
        return (act(a, m) == zero and w != zero
                and any(act(a, x) == w for x in module.elements()))
    raise ValueError(f"no replay for property {prop!r}")
