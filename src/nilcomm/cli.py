"""Command-line front end.

Commands:
  classify      decide the hierarchy properties of a module expression
  nilset        list a module's nilpotent elements with witnesses
  verify-paper  run the named claim registry
  search        enumerate a structure family and match a property pattern

Every invocation emits one document (text or JSON) embedding the tool
version and the structure descriptor.  For reproducible output, timing
fields are zeroed unless --timing is passed.  Exit codes: 0 success or
all confirmed, 1 usage or internal error, 2 refutations present
(verify-paper only).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import __version__
from .config import DEFAULT_CONFIG, cap_from_env
from .deciders import (
    MODULE_PROPERTIES,
    PROP_NIL_SEMI,
    PROP_REDUCED_I,
    PROP_SEMICOMMUTATIVE,
    PROP_WEAKLY,
    decide,
)
from .dsl import elaborate, parse_structure
from .errors import InvalidParameterError, NilcommError, ParseError
from .harness import HarnessOptions, exit_code, registered_ids, run_all
from .modules import FiniteModule
from .nilpotency import nil_set
from .reports import REFUTED, SKIPPED

DEFAULT_CLASSIFY = (PROP_SEMICOMMUTATIVE, PROP_WEAKLY, PROP_NIL_SEMI, PROP_REDUCED_I)

_CHECK = "✓"
_CROSS = "✗"


def _config_from_args(args) -> "EngineConfig":
    cap = cap_from_env(None)
    if args.cap is not None:
        cap = args.cap
    overrides = {}
    if cap is not None:
        overrides["decision_cap"] = cap
    if args.force:
        overrides["force"] = True
    if args.seed is not None:
        overrides["seed"] = args.seed
    return DEFAULT_CONFIG.with_overrides(**overrides) if overrides else DEFAULT_CONFIG


def _document(descriptor: str, results: list, runtime_ms: int, timing: bool) -> dict:
    return {
        "tool_version": __version__,
        "descriptor": descriptor,
        "results": results,
        "runtime_ms": runtime_ms if timing else 0,
    }


def _emit(doc: dict, fmt: str, render_text) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in render_text(doc):
            print(line)


def _witness_text(w) -> str:
    parts = [f"a={w['a']}", f"r={w['r']}", f"m={w['m']}"]
    text = f"  witness ({', '.join(parts)})"
    if "a_render" in w:
        text += f"  [a={w['a_render']}, r={w['r_render']}, m={w['m_render']}]"
    return text


def _render_classify(doc: dict):
    yield f"{doc['descriptor']}  [nilcomm {doc['tool_version']}]"
    for entry in doc["results"]:
        if entry.get("kind") == "nilset":
            members = entry.get("members")
            shown = ("{" + ", ".join(str(m) for m in members) + "}"
                     if members is not None else "(suppressed, too large)")
            yield f"  nil set: {entry['size']} of {entry['module_size']} elements {shown}"
            continue
        holds = entry["holds"]
        line = f"  {entry['property']:24s} {_CHECK if holds else _CROSS}"
        if not holds:
            line += _witness_text(entry["witness"])
        yield line


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    start = time.perf_counter()
    module = elaborate(parse_structure(args.expr), cfg)
    if not isinstance(module, FiniteModule):
        raise NilcommError(
            f"classify wants a module expression, got {module.descriptor}")
    props = DEFAULT_CLASSIFY
    if args.properties:
        props = tuple(p.strip() for p in args.properties.split(","))
        for p in props:
            if p not in MODULE_PROPERTIES:
                raise NilcommError(
                    f"unknown property {p!r}; choose from "
                    f"{', '.join(MODULE_PROPERTIES)}")
    results = []
    for prop in props:
        verdict = decide(module, prop, cfg)
        results.append(verdict.to_json_dict())
    nils = nil_set(module, cfg)
    results.append({
        "kind": "nilset",
        "size": nils.count,
        "module_size": module.size,
        "members": nils.members() if module.size <= 128 else None,
    })
    runtime = int((time.perf_counter() - start) * 1000)
    doc = _document(module.descriptor, results, runtime, args.timing)
    _emit(doc, args.format, _render_classify)
    return 0


def _render_nilset(doc: dict):
    yield f"{doc['descriptor']}  [nilcomm {doc['tool_version']}]"
    entry = doc["results"][0]
    yield (f"  nilpotent: {entry['size']} of {entry['module_size']} elements")
    for m in entry["members"]:
        w = entry["witnesses"].get(str(m))
        if w is None:
            yield f"    {m}  ({entry['renders'][str(m)]})"
        else:
            yield (f"    {m}  ({entry['renders'][str(m)]})  "
                   f"witness t={w['t']}, k={w['k']}")


def cmd_nilset(args) -> int:
    cfg = _config_from_args(args)
    start = time.perf_counter()
    module = elaborate(parse_structure(args.expr), cfg)
    if not isinstance(module, FiniteModule):
        raise NilcommError(
            f"nilset wants a module expression, got {module.descriptor}")
    nils = nil_set(module, cfg)
    payload = nils.to_json_dict()
    payload["kind"] = "nilset"
    payload["module_size"] = module.size
    payload["renders"] = {str(m): module.render(m) for m in payload["members"]}
    runtime = int((time.perf_counter() - start) * 1000)
    doc = _document(module.descriptor, [payload], runtime, args.timing)
    _emit(doc, args.format, _render_nilset)
    return 0


def _render_verify(doc: dict):
    yield f"claim registry  [nilcomm {doc['tool_version']}]  {doc['descriptor']}"
    for entry in doc["results"]:
        mark = {"confirmed": _CHECK, "refuted": _CROSS, "skipped": "-"}[entry["status"]]
        yield f"  {mark} {entry['status']:10s} {entry['check_id']}"
        if entry["status"] == "refuted" and "witness" in entry["detail"]:
            w = entry["detail"]["witness"]
            where = w.get("descriptor", "")
            triple = (f" (a={w['a']}, r={w['r']}, m={w['m']})"
                      if "a" in w else "")
            yield f"      witness: {w['kind']} on {where}{triple}"
        if entry["status"] == "skipped":
            yield f"      reason: {entry['detail'].get('reason', '')}"
    s = doc["summary"]
    yield (f"  {s['confirmed']} confirmed, {s['refuted']} refuted, "
           f"{s['skipped']} skipped")


def cmd_verify_paper(args) -> int:
    cfg = _config_from_args(args)
    opts = HarnessOptions(nmax=args.nmax, samples=args.samples)
    only = [c.strip() for c in args.only.split(",")] if args.only else None
    start = time.perf_counter()
    reports = run_all(cfg, opts, only)
    runtime = int((time.perf_counter() - start) * 1000)
    results = [r.to_json_dict(timing=args.timing) for r in reports]
    summary = {
        "confirmed": sum(r.status == "confirmed" for r in reports),
        "refuted": sum(r.status == REFUTED for r in reports),
        "skipped": sum(r.status == SKIPPED for r in reports),
    }
    selection = "checks:" + (",".join(only) if only else "all")
    doc = _document(selection, results, runtime, args.timing)
    doc["summary"] = summary
    _emit(doc, args.format, _render_verify)
    return exit_code(reports)


# ---------------------------------------------------------------------------
# Pattern language for search: name, !, &, |, parentheses


def _parse_pattern(text: str):
    # (word, bad character) pairs; a word is an operator, a parenthesis or
    # a run of letters, digits and "-"
    pairs = re.findall(r"([!&|()]|(?:[^\W_]|-)+)|(\S)", text)
    bad = next((ch for _, ch in pairs if ch), None)
    if bad:
        raise NilcommError(f"bad pattern character {bad!r}")
    tokens = [word for word, _ in pairs] + [None]  # None ends the input
    pos = 0

    def literal():
        nonlocal pos
        tok = tokens[pos]
        if tok == "!":
            pos += 1
            inner = literal()
            return lambda v: not inner(v)
        if tok == "(":
            pos += 1
            inner = chain("|")
            if tokens[pos] != ")":
                raise NilcommError("unbalanced parenthesis in pattern")
            pos += 1
            return inner
        if tok is None or tok in "&|)":
            raise NilcommError("pattern expected a property name")
        if tok not in MODULE_PROPERTIES:
            raise NilcommError(
                f"unknown property {tok!r} in pattern; choose from "
                f"{', '.join(MODULE_PROPERTIES)}")
        pos += 1
        return lambda v, _p=tok: bool(v[_p])

    def chain(op):
        """Operands joined by op: "|" joins "&" chains, "&" joins literals."""
        nonlocal pos
        operand = literal if op == "&" else lambda: chain("&")
        terms = [operand()]
        while tokens[pos] == op:
            pos += 1
            terms.append(operand())
        join = all if op == "&" else any
        return lambda v: join(term(v) for term in terms)

    result = chain("|")
    if tokens[pos] is not None:
        raise NilcommError("trailing tokens in pattern")
    return result


def _parse_range(text: str) -> tuple[int, int]:
    """lo..hi, or one n as n..n; a reversed range names no instance."""
    ends = text.split("..", 1)
    try:
        lo, hi = int(ends[0]), int(ends[-1])
    except ValueError:
        raise InvalidParameterError(f"--n range {text}: each end must be an integer") from None
    if lo > hi:
        raise InvalidParameterError(f"--n range {text} is empty: {lo} exceeds {hi}")
    return lo, hi


_FAMILY_EXPR = {
    "zn": lambda n, p: f"regular(Z({n}))",
    "tn": lambda n, p: f"trimod({n}, regular(Z({p})))",
    "vn": lambda n, p: f"vmod({n}, regular(Z({p})))",
    "matn": lambda n, p: f"matmod({n}, regular(Z({p})))",
}


def cmd_search(args) -> int:
    cfg = _config_from_args(args)
    predicate = _parse_pattern(args.pattern)
    lo, hi = _parse_range(args.n)
    start = time.perf_counter()
    instances = []
    matches = []
    for n in range(lo, hi + 1):
        expr = _FAMILY_EXPR[args.family](n, args.p)
        try:
            module = elaborate(parse_structure(expr), cfg)
            verdicts = {
                prop: decide(module, prop, cfg).holds
                for prop in MODULE_PROPERTIES
            }
        except NilcommError as exc:
            instances.append({"descriptor": expr, "skipped": str(exc)})
            continue
        hit = predicate(verdicts)
        instances.append({"descriptor": module.descriptor,
                          "verdicts": verdicts, "match": hit})
        if hit:
            matches.append(module.descriptor)
    runtime = int((time.perf_counter() - start) * 1000)
    doc = _document(f"search:{args.family}[{lo}..{hi}]", instances, runtime,
                    args.timing)
    doc["pattern"] = args.pattern
    doc["matches"] = matches

    def render(d):
        yield (f"search {args.family} n={lo}..{hi} pattern {args.pattern!r}  "
               f"[nilcomm {d['tool_version']}]")
        for entry in d["results"]:
            if "skipped" in entry:
                yield f"  - {entry['descriptor']}  skipped: {entry['skipped']}"
                continue
            mark = "*" if entry["match"] else " "
            flags = " ".join(
                f"{p}={'y' if entry['verdicts'][p] else 'n'}"
                for p in MODULE_PROPERTIES)
            yield f"  {mark} {entry['descriptor']}: {flags}"
        yield f"  matches: {len(d['matches'])}"

    _emit(doc, args.format, render)
    return 0


# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cap", type=int, default=None,
                        help="decision cap: the most triples, pairs or relation "
                             "checks one exhaustive scan may visit (env NILCOMM_CAP)")
    parser.add_argument("--force", action="store_true",
                        help="run exhaustive scans past the cap")
    parser.add_argument("--timing", action="store_true",
                        help="report real runtimes (off for reproducible output)")
    parser.add_argument("--seed", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, so main reuses one per process."""
    parser = argparse.ArgumentParser(
        prog="nilcomm",
        description="finite rings and modules: nilpotency and the "
                    "semicommutativity hierarchy, with witnesses",
    )
    parser.add_argument("--version", action="version",
                        version=f"nilcomm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="decide module properties")
    p.add_argument("expr", help="module expression, e.g. 'regular(Z(4))'")
    p.add_argument("--properties", default=None,
                   help="comma-separated subset of: " + ", ".join(MODULE_PROPERTIES))
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("nilset", help="list nilpotent elements with witnesses")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=cmd_nilset)

    p = subs.add_parser("verify-paper", help="run the named claim registry")
    p.add_argument("--only", default=None,
                   help="comma-separated check ids; known ids: "
                        + ", ".join(registered_ids()))
    p.add_argument("--nmax", type=int, default=HarnessOptions.nmax,
                   help="upper modulus for the square-free check (at least 2)")
    p.add_argument("--samples", type=int, default=HarnessOptions.samples,
                   help="random nonzero elements on which the 4x4 matrix nil "
                        "checks replay the single-unit witness (at least 1)")
    _add_common(p)
    p.set_defaults(func=cmd_verify_paper)

    p = subs.add_parser("search", help="scan a family for a property pattern")
    p.add_argument("family", choices=sorted(_FAMILY_EXPR))
    p.add_argument("--pattern", required=True,
                   help="e.g. 'semicommutative & !nil-semicommutative'")
    p.add_argument("--n", default="2..10", help="range, e.g. 2..50")
    p.add_argument("--p", type=int, default=2,
                   help="base prime for tn/vn/matn families")
    _add_common(p)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"nilcomm: parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"  expected: {', '.join(str(e) for e in exc.expected)}",
                  file=sys.stderr)
        return 1
    except NilcommError as exc:
        print(f"nilcomm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
