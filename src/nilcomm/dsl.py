"""A small expression language for naming rings, modules, and homs.

Grammar (whitespace insignificant, integers decimal):

    expr := name "(" args ")"
    args := (expr | integer | set) {"," (expr | integer | set)}
    set  := "{" integer {"," integer} "}"

Ring constructors:   Z(n) | M(n, ring) | T(n, ring) | S(n, ring) | V(n, ring)
                     | prod(ring, ...) | polyq(ring, n) | loc(ring, {gens})
Hom constructors:    zred(m, n) | idhom(ring)
Module constructors: regular(ring) | matmod(n, module) | trimod(n, module)
                     | smod(n, module) | vmod(n, module) | prodmod(module, ...)
                     | cyclic(module, elem) | gen(module, {elems})
                     | quot(module, submodule) | locmod(module, {gens})
                     | induced(hom, module)

Pretty-printing an AST yields the canonical form, which parses back to an
equal AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .config import EngineConfig, resolve
from .errors import ParseError
from .modules import (
    cyclic_submodule,
    induced_module,
    make_product_module,
    matrix_module,
    quotient_module,
    regular_module,
    submodule_generated,
)
from .rings import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    MatrixShape,
    identity_hom,
    make_matrix_ring,
    make_poly_quotient_ring,
    make_product_ring,
    make_zn,
    zn_reduction_hom,
)

RING = "ring"
MODULE = "module"
HOM = "hom"
INT = "int"
SET = "set"


def _matrix_ring(shape: str) -> tuple:
    return RING, (INT, RING), lambda cfg, n, base: make_matrix_ring(
        MatrixShape(shape, n), base, cfg)


def _matrix_module(shape: str) -> tuple:
    return MODULE, (INT, MODULE), lambda cfg, n, base: matrix_module(
        MatrixShape(shape, n), base.ring, base, cfg)


# localization loads when a loc or locmod expression is first built
def _loc(cfg, ring, gens):
    from . import localization
    return localization.localize_ring(
        ring, localization.multiplicative_closure(ring, gens, cfg), cfg)


def _locmod(cfg, module, gens):
    from . import localization
    return localization.localize_module(
        module, localization.multiplicative_closure(module.ring, gens, cfg), cfg)


# name -> (result kind, argument kinds, builder); a trailing "*" repeats the
# kind before it.  A builder takes the config and the built arguments, and
# looks its constructor up by name when called, so it calls whatever the
# binding holds then (a profiler's wrapper, say).
_CONSTRUCTORS: dict[str, tuple] = {
    "Z": (RING, (INT,), lambda cfg, n: make_zn(n, cfg)),
    "M": _matrix_ring(FULL),
    "T": _matrix_ring(UPPER),
    "S": _matrix_ring(SPECIAL_UPPER),
    "V": _matrix_ring(V_TYPE),
    "prod": (RING, (RING, "*"),
             lambda cfg, *rings: make_product_ring(list(rings), cfg)),
    "polyq": (RING, (RING, INT),
              lambda cfg, base, n: make_poly_quotient_ring(base, n, cfg)),
    "loc": (RING, (RING, SET), _loc),
    "zred": (HOM, (INT, INT), lambda cfg, m, n: zn_reduction_hom(m, n, cfg)),
    "idhom": (HOM, (RING,), lambda cfg, ring: identity_hom(ring)),
    "regular": (MODULE, (RING,), lambda cfg, ring: regular_module(ring, cfg)),
    "matmod": _matrix_module(FULL),
    "trimod": _matrix_module(UPPER),
    "smod": _matrix_module(SPECIAL_UPPER),
    "vmod": _matrix_module(V_TYPE),
    "prodmod": (MODULE, (MODULE, "*"),
                lambda cfg, *modules: make_product_module(list(modules), cfg)),
    "cyclic": (MODULE, (MODULE, INT),
               lambda cfg, module, m: cyclic_submodule(module, m, cfg)),
    "gen": (MODULE, (MODULE, SET),
            lambda cfg, module, gens: submodule_generated(module, gens, cfg)),
    "quot": (MODULE, (MODULE, MODULE),
             lambda cfg, parent, sub: quotient_module(parent, sub, cfg)),
    "locmod": (MODULE, (MODULE, SET), _locmod),
    "induced": (MODULE, (HOM, MODULE),
                lambda cfg, hom, module: induced_module(hom, module, cfg)),
}


@dataclass(frozen=True)
class StructureExpr:
    """One node of a structure expression; args hold nodes, ints, or sorted
    integer tuples (sets)."""

    name: str
    args: tuple
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def kind(self) -> str:
        return _constructor(self.name, self.line, self.column)[0]


def _constructor(name: str, line: int, column: int) -> tuple:
    if name not in _CONSTRUCTORS:
        raise ParseError(f"unknown constructor {name!r}", line, column,
                         expected=tuple(sorted(_CONSTRUCTORS)))
    return _CONSTRUCTORS[name]


def _check_args(name: str, args, line: int, column: int) -> tuple:
    """name's table entry once args fit its arity and argument kinds; a
    misfit is reported at (line, column), or at the misfit node."""
    entry = _constructor(name, line, column)
    kinds = entry[1]
    variadic = kinds[-1] == "*"
    fixed = kinds[:-1] if variadic else kinds
    if len(args) < len(fixed) or not variadic and len(args) > len(fixed):
        raise ParseError(
            f"{name} wants {'at least ' if variadic else ''}{len(fixed)} "
            f"argument(s), got {len(args)}", line, column,
            expected=fixed[len(args):] or (")",))
    for i, arg in enumerate(args):
        want = fixed[min(i, len(fixed) - 1)]
        got = (arg.kind if isinstance(arg, StructureExpr)
               else INT if isinstance(arg, int)
               else SET if isinstance(arg, tuple) and all(isinstance(x, int) for x in arg)
               else type(arg).__name__)
        if got != want:
            if isinstance(arg, StructureExpr):
                line, column = arg.line, arg.column
            raise ParseError(f"{name} argument {i + 1} should be a {want}, "
                             f"got a {got}", line, column, expected=(want,))
    return entry


# ---------------------------------------------------------------------------
# Parser: tokens are (kind, text, line, column), kind int, name, punct or end

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<punct>[(){},])|(?P<other>\S))")


def _position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _expected(what: str, token: tuple, *expected: str) -> ParseError:
    _, word, line, column = token
    return ParseError(f"expected {what}, found {word or 'end of input'!r}",
                      line, column, expected=expected)


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            word = match.group(kind)
            line, column = _position(text, match.start(kind))
            # \w also holds numerals such as "½", and those start no name
            if kind == "other" or (kind == "name" and word[0] != "_"
                                   and not word[0].isalpha()):
                raise ParseError(f"unexpected character {word[0]!r}", line, column,
                                 expected=("name", "integer", "punctuation"))
            self.tokens.append((kind, word, line, column))
        self.tokens.append(("end", "", *_position(text, len(text))))
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, punct: str) -> tuple:
        if self.peek()[1] != punct:
            raise _expected(repr(punct), self.peek(), punct)
        return self.advance()

    def comma_list(self, item, close: str) -> tuple[list, tuple]:
        """Comma-separated items up to the close punctuation, and its token."""
        items = [] if self.peek()[1] == close else [item()]
        while items and self.peek()[1] == ",":
            self.advance()
            items.append(item())
        return items, self.expect(close)

    def parse_expr(self) -> StructureExpr:
        kind, name, line, column = token = self.advance()
        if kind != "name":
            raise _expected("a constructor name", token, "name")
        _constructor(name, line, column)
        self.expect("(")
        args, (_, _, close_line, close_column) = self.comma_list(self.parse_arg, ")")
        _check_args(name, args, close_line, close_column)
        return StructureExpr(name, tuple(args), line, column)

    def parse_arg(self):
        kind, word, _, _ = token = self.peek()
        if kind == "name":
            return self.parse_expr()
        self.advance()
        if kind == "int":
            return int(word)
        if word == "{":
            return tuple(sorted(set(self.comma_list(self.parse_int, "}")[0])))
        raise _expected("an expression, integer or set", token,
                        "expression", "integer", "set")

    def parse_int(self) -> int:
        kind, word, _, _ = token = self.advance()
        if kind != "int":
            raise _expected("an integer inside a set", token, "integer")
        return int(word)


def parse_structure(text: str) -> StructureExpr:
    """Parse one structure expression; trailing input is an error."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    kind, word, line, column = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {word!r}", line, column,
                         expected=("end of input",))
    return expr


def pretty(node) -> str:
    """Canonical text for an AST (or set / integer argument)."""
    if isinstance(node, StructureExpr):
        return f"{node.name}(" + ", ".join(pretty(a) for a in node.args) + ")"
    if isinstance(node, tuple):
        return "{" + ", ".join(str(x) for x in node) + "}"
    return str(node)


# ---------------------------------------------------------------------------
# Elaboration


def elaborate(node: StructureExpr, config: EngineConfig | None = None):
    """Build the ring, module, or hom a parsed expression names."""
    return _build(node, resolve(config))


def _build(node: StructureExpr, cfg: EngineConfig):
    builder = _check_args(node.name, node.args, node.line, node.column)[2]
    args = [_build(a, cfg) if isinstance(a, StructureExpr) else a for a in node.args]
    return builder(cfg, *args)


def elaborate_text(text: str, config: EngineConfig | None = None):
    return elaborate(parse_structure(text), config)
