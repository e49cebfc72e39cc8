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

from dataclasses import dataclass, field

from .config import EngineConfig, resolve
from .errors import InvalidParameterError, ParseError
from .localization import localize_module, localize_ring, multiplicative_closure
from .modules import (
    SubModule,
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

# name -> (result kind, argument kinds; a trailing "*" repeats the previous)
_SIGNATURES: dict[str, tuple[str, tuple[str, ...]]] = {
    "Z": (RING, (INT,)),
    "M": (RING, (INT, RING)),
    "T": (RING, (INT, RING)),
    "S": (RING, (INT, RING)),
    "V": (RING, (INT, RING)),
    "prod": (RING, (RING, "*")),
    "polyq": (RING, (RING, INT)),
    "loc": (RING, (RING, SET)),
    "zred": (HOM, (INT, INT)),
    "idhom": (HOM, (RING,)),
    "regular": (MODULE, (RING,)),
    "matmod": (MODULE, (INT, MODULE)),
    "trimod": (MODULE, (INT, MODULE)),
    "smod": (MODULE, (INT, MODULE)),
    "vmod": (MODULE, (INT, MODULE)),
    "prodmod": (MODULE, (MODULE, "*")),
    "cyclic": (MODULE, (MODULE, INT)),
    "gen": (MODULE, (MODULE, SET)),
    "quot": (MODULE, (MODULE, MODULE)),
    "locmod": (MODULE, (MODULE, SET)),
    "induced": (MODULE, (HOM, MODULE)),
}

_SHAPE_OF = {"M": FULL, "T": UPPER, "S": SPECIAL_UPPER, "V": V_TYPE,
             "matmod": FULL, "trimod": UPPER, "smod": SPECIAL_UPPER,
             "vmod": V_TYPE}


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
        return _SIGNATURES[self.name][0]


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # name | int | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "(){},":
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected=("name", "integer", "punctuation"))
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            raise ParseError(
                f"expected {ch!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column, expected=(ch,))
        return self.advance()

    def parse_expr(self) -> StructureExpr:
        tok = self.peek()
        if tok.kind != "name":
            raise ParseError(
                f"expected a constructor name, found {tok.text or 'end of input'!r}",
                tok.line, tok.column, expected=("name",))
        self.advance()
        if tok.text not in _SIGNATURES:
            raise ParseError(f"unknown constructor {tok.text!r}",
                             tok.line, tok.column,
                             expected=tuple(sorted(_SIGNATURES)))
        self.expect_punct("(")
        args = []
        closing = self.peek()
        if closing.kind == "punct" and closing.text == ")":
            # report arity problems at the position of the missing argument
            self._check_args(tok, args, closing)
        while True:
            args.append(self.parse_arg())
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == ",":
                self.advance()
                continue
            break
        close = self.expect_punct(")")
        self._check_args(tok, args, close)
        return StructureExpr(tok.text, tuple(args), tok.line, tok.column)

    def parse_arg(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        if tok.kind == "punct" and tok.text == "{":
            return self.parse_set()
        if tok.kind == "name":
            return self.parse_expr()
        raise ParseError(
            f"expected an expression, integer or set, found "
            f"{tok.text or 'end of input'!r}",
            tok.line, tok.column, expected=("expression", "integer", "set"))

    def parse_set(self) -> tuple:
        self.expect_punct("{")
        items = []
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "}":
            self.advance()
            return tuple()
        while True:
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    f"expected an integer inside a set, found "
                    f"{tok.text or 'end of input'!r}",
                    tok.line, tok.column, expected=("integer",))
            items.append(int(self.advance().text))
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == ",":
                self.advance()
                continue
            break
        self.expect_punct("}")
        return tuple(sorted(set(items)))

    def _check_args(self, name_tok: _Token, args: list, at: _Token) -> None:
        kinds = _SIGNATURES[name_tok.text][1]
        variadic = kinds and kinds[-1] == "*"
        fixed = kinds[:-1] if variadic else kinds
        if variadic:
            if len(args) < len(fixed):
                raise ParseError(
                    f"{name_tok.text} wants at least {len(fixed)} argument(s), "
                    f"got {len(args)}", at.line, at.column,
                    expected=fixed[len(args):])
        elif len(args) != len(fixed):
            raise ParseError(
                f"{name_tok.text} wants {len(fixed)} argument(s), got {len(args)}",
                at.line, at.column, expected=fixed[len(args):] or (")",))
        for i, arg in enumerate(args):
            want = fixed[i] if i < len(fixed) else fixed[-1]
            got = (INT if isinstance(arg, int)
                   else SET if isinstance(arg, tuple)
                   else arg.kind)
            if got != want:
                pos = arg if isinstance(arg, StructureExpr) else None
                line = pos.line if pos else at.line
                col = pos.column if pos else at.column
                raise ParseError(
                    f"{name_tok.text} argument {i + 1} should be a {want}, "
                    f"got a {got}", line, col, expected=(want,))


def parse_structure(text: str) -> StructureExpr:
    """Parse one structure expression; trailing input is an error."""
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.column, expected=("end of input",))
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
    name = node.name
    args = node.args
    if name == "Z":
        return make_zn(args[0], cfg)
    if name in ("M", "T", "S", "V"):
        base = _build(args[1], cfg)
        return make_matrix_ring(MatrixShape(_SHAPE_OF[name], args[0]), base, cfg)
    if name == "prod":
        return make_product_ring([_build(a, cfg) for a in args], cfg)
    if name == "polyq":
        return make_poly_quotient_ring(_build(args[0], cfg), args[1], cfg)
    if name == "loc":
        base = _build(args[0], cfg)
        return localize_ring(base, multiplicative_closure(base, args[1], cfg), cfg)
    if name == "zred":
        return zn_reduction_hom(args[0], args[1], cfg)
    if name == "idhom":
        return identity_hom(_build(args[0], cfg))
    if name == "regular":
        return regular_module(_build(args[0], cfg), cfg)
    if name in ("matmod", "trimod", "smod", "vmod"):
        base_module = _build(args[1], cfg)
        shape = MatrixShape(_SHAPE_OF[name], args[0])
        return matrix_module(shape, base_module.ring, base_module, cfg)
    if name == "prodmod":
        return make_product_module([_build(a, cfg) for a in args], cfg)
    if name == "cyclic":
        return cyclic_submodule(_build(args[0], cfg), args[1], cfg)
    if name == "gen":
        return submodule_generated(_build(args[0], cfg), args[1], cfg)
    if name == "quot":
        parent = _build(args[0], cfg)
        sub = _build(args[1], cfg)
        if not isinstance(sub, SubModule):
            raise InvalidParameterError(
                "quot wants a cyclic(...) or gen(...) submodule as its second "
                f"argument, got {sub.descriptor}")
        if sub.parent.descriptor != parent.descriptor:
            raise InvalidParameterError(
                f"{sub.descriptor} is a submodule of {sub.parent.descriptor}, "
                f"not of {parent.descriptor}")
        return quotient_module(parent, sub, cfg)
    if name == "locmod":
        module = _build(args[0], cfg)
        mset = multiplicative_closure(module.ring, args[1], cfg)
        return localize_module(module, mset, cfg)
    if name == "induced":
        hom = _build(args[0], cfg)
        module = _build(args[1], cfg)
        return induced_module(hom, module, cfg)
    raise InvalidParameterError(f"unknown constructor {name!r}")


def elaborate_text(text: str, config: EngineConfig | None = None):
    return elaborate(parse_structure(text), config)
