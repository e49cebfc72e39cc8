import random

import pytest

from nilcomm import (
    InvalidParameterError,
    NilcommError,
    ParseError,
    elaborate,
    elaborate_text,
    parse_structure,
    pretty,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.dsl import _CONSTRUCTORS, StructureExpr


def test_parse_simple():
    ast = parse_structure("T(2, Z(4))")
    assert ast == StructureExpr("T", (2, StructureExpr("Z", (4,))))
    assert pretty(ast) == "T(2, Z(4))"


def test_parse_whitespace_insensitive():
    assert parse_structure(" T( 2 ,\n Z( 4 ) ) ") == parse_structure("T(2, Z(4))")


def test_parse_set_argument():
    ast = parse_structure("locmod(regular(Z(12)), {8, 2, 2})")
    assert ast.args[1] == (2, 8)
    assert pretty(ast) == "locmod(regular(Z(12)), {2, 8})"


def test_arity_error_position():
    with pytest.raises(ParseError) as exc:
        parse_structure("Z()")
    assert exc.value.line == 1
    assert exc.value.column == 3


def test_unknown_constructor():
    with pytest.raises(ParseError) as exc:
        parse_structure("Q(3)")
    assert "unknown constructor" in str(exc.value)


def test_kind_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_structure("regular(3)")
    assert "should be a ring" in str(exc.value)
    with pytest.raises(ParseError):
        parse_structure("cyclic(regular(Z(4)), Z(2))")


def test_trailing_input_and_bad_tokens():
    with pytest.raises(ParseError):
        parse_structure("Z(4) Z(4)")
    with pytest.raises(ParseError):
        parse_structure("Z(4,)")
    with pytest.raises(ParseError):
        parse_structure("Z(#)")
    with pytest.raises(ParseError):
        parse_structure("gen(regular(Z(4)), {a})")


_CONSTRUCTOR_NAMES = ("M", "S", "T", "V", "Z", "cyclic", "gen", "idhom", "induced",
                      "loc", "locmod", "matmod", "polyq", "prod", "prodmod",
                      "quot", "regular", "smod", "trimod", "vmod", "zred")


# input -> (message, line, column, expected) of the ParseError it raises
_PARSE_ERRORS = {
    "Z(#)": ("unexpected character '#'", 1, 3,
             ("name", "integer", "punctuation")),
    "(4)": ("expected a constructor name, found '('", 1, 1, ("name",)),
    "Q(3)": ("unknown constructor 'Q'", 1, 1, _CONSTRUCTOR_NAMES),
    "Z 4": ("expected '(', found '4'", 1, 3, ("(",)),
    "Z(4": ("expected ')', found 'end of input'", 1, 4, (")",)),
    "Z()": ("Z wants 1 argument(s), got 0", 1, 3, ("int",)),
    "prod()": ("prod wants at least 1 argument(s), got 0", 1, 6, ("ring",)),
    "regular(Z(4), Z(2))": ("regular wants 1 argument(s), got 2", 1, 19, (")",)),
    "M(Z(2), 2)": ("M argument 1 should be a int, got a ring", 1, 3, ("int",)),
    "regular(3)": ("regular argument 1 should be a ring, got a int", 1, 10,
                   ("ring",)),
    "Z(4,)": ("expected an expression, integer or set, found ')'", 1, 5,
              ("expression", "integer", "set")),
    "gen(regular(Z(4)), {a})": ("expected an integer inside a set, found 'a'",
                                1, 21, ("integer",)),
    "gen(regular(Z(4)), {1,})": ("expected an integer inside a set, found '}'",
                                 1, 23, ("integer",)),
    "Z(4) Z(4)": ("unexpected trailing input 'Z'", 1, 6, ("end of input",)),
    "": ("expected a constructor name, found 'end of input'", 1, 1, ("name",)),
    "M(2,\n  T(2, Z(4)\n  ) x": ("expected ')', found 'x'", 3, 5, (")",)),
    "M(2,\n  regular(Z(4)))": ("M argument 2 should be a ring, got a module",
                               2, 3, ("ring",)),
}


@pytest.mark.parametrize("text", sorted(_PARSE_ERRORS))
def test_parse_errors_name_their_place_and_what_was_expected(text):
    message, line, column, expected = _PARSE_ERRORS[text]
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert str(exc.value) == f"{message} at line {line}, column {column}"
    assert (exc.value.line, exc.value.column) == (line, column)
    assert exc.value.expected == expected


_RING_LEAVES = ["Z(2)", "Z(3)", "Z(4)", "Z(6)"]


def _random_ast(rng, kind, depth):
    if kind == "ring":
        if depth <= 0 or rng.random() < 0.4:
            return parse_structure(rng.choice(_RING_LEAVES))
        name = rng.choice(["M", "T", "S", "V", "prod", "polyq", "loc"])
        if name in ("M", "T", "S", "V"):
            return StructureExpr(name, (rng.randint(1, 3),
                                        _random_ast(rng, "ring", depth - 1)))
        if name == "prod":
            args = tuple(_random_ast(rng, "ring", depth - 1)
                         for _ in range(rng.randint(1, 3)))
            return StructureExpr(name, args)
        if name == "polyq":
            return StructureExpr(name, (_random_ast(rng, "ring", depth - 1),
                                        rng.randint(1, 3)))
        gens = tuple(sorted({rng.randint(1, 9) for _ in range(rng.randint(1, 3))}))
        return StructureExpr(name, (_random_ast(rng, "ring", depth - 1), gens))
    if kind == "hom":
        if rng.random() < 0.5:
            return StructureExpr("zred", (8, 4))
        return StructureExpr("idhom", (_random_ast(rng, "ring", depth - 1),))
    if depth <= 0:
        name = "regular"
    else:
        name = rng.choice(["regular", "matmod", "trimod", "smod", "vmod",
                           "prodmod", "cyclic", "gen", "quot", "locmod",
                           "induced"])
    if name == "regular":
        return StructureExpr(name, (_random_ast(rng, "ring", depth - 1),))
    if name in ("matmod", "trimod", "smod", "vmod"):
        return StructureExpr(name, (rng.randint(1, 3),
                                    _random_ast(rng, "module", depth - 1)))
    if name == "prodmod":
        args = tuple(_random_ast(rng, "module", depth - 1)
                     for _ in range(rng.randint(1, 3)))
        return StructureExpr(name, args)
    if name == "cyclic":
        return StructureExpr(name, (_random_ast(rng, "module", depth - 1),
                                    rng.randint(0, 3)))
    if name == "gen":
        elems = tuple(sorted({rng.randint(0, 5) for _ in range(2)}))
        return StructureExpr(name, (_random_ast(rng, "module", depth - 1), elems))
    if name == "quot":
        inner = _random_ast(rng, "module", depth - 1)
        return StructureExpr(name, (inner, StructureExpr("cyclic", (inner, 0))))
    if name == "locmod":
        return StructureExpr(name, (_random_ast(rng, "module", depth - 1), (1,)))
    return StructureExpr(name, (_random_ast(rng, "hom", depth - 1),
                                _random_ast(rng, "module", depth - 1)))


def _names(node) -> set:
    return {node.name}.union(*(_names(a) for a in node.args
                               if isinstance(a, StructureExpr)))


def test_round_trip_over_random_asts():
    # small caps keep each elaboration cheap; whatever an expression does
    # wrong must surface as a typed NilcommError, never as another exception
    cfg = DEFAULT_CONFIG.with_overrides(construction_cap=256,
                                        decision_cap=2 ** 12)
    rng = random.Random(20240817)
    built = 0
    names = set()
    for _ in range(250):
        kind = rng.choice(["ring", "module", "hom"])
        ast = _random_ast(rng, kind, 2)
        names |= _names(ast)
        assert parse_structure(pretty(ast)) == ast
        try:
            elaborate(ast, cfg)
            built += 1
        except NilcommError:
            pass
    assert built > 100
    assert names == set(_CONSTRUCTORS)


def test_a_non_decimal_digit_is_an_unexpected_character():
    # "²" is a digit to str.isdigit, but names no integer
    with pytest.raises(ParseError) as exc:
        parse_structure("Z(²)")
    assert str(exc.value) == "unexpected character '²' at line 1, column 3"
    assert parse_structure("Z(١٢)") == StructureExpr("Z", (12,))  # Arabic-Indic 12


@pytest.mark.parametrize("node,message", [
    (StructureExpr("Z", ()), "Z wants 1 argument(s), got 0"),
    (StructureExpr("regular", (3,)), "regular argument 1 should be a ring, got a int"),
    (StructureExpr("Z", ("4",)), "Z argument 1 should be a int, got a str"),
    (StructureExpr("regular", (StructureExpr("Q", (3,)),)), "unknown constructor 'Q'"),
])
def test_elaborate_checks_a_hand_built_node_against_the_table(node, message):
    with pytest.raises(NilcommError) as exc:
        elaborate(node)
    assert str(exc.value) == f"{message} at line 0, column 0"


@pytest.mark.parametrize("text,size", [
    ("Z(6)", 6),
    ("M(2, Z(2))", 16),
    ("T(2, Z(4))", 64),
    ("S(2, Z(3))", 9),
    ("V(3, Z(2))", 8),
    ("prod(Z(4), Z(3))", 12),
    ("polyq(Z(3), 2)", 9),
    ("loc(Z(12), {2})", 3),
    ("regular(Z(9))", 9),
    ("matmod(2, regular(Z(2)))", 16),
    ("trimod(2, regular(Z(2)))", 8),
    ("smod(2, regular(Z(3)))", 9),
    ("vmod(2, regular(Z(2)))", 4),
    ("prodmod(regular(Z(3)), regular(Z(3)))", 9),
    ("cyclic(regular(Z(4)), 2)", 2),
    ("gen(regular(Z(12)), {2, 3})", 12),
    ("quot(regular(Z(4)), cyclic(regular(Z(4)), 2))", 2),
    ("locmod(regular(Z(12)), {2})", 3),
    ("induced(zred(8, 4), regular(Z(4)))", 4),
])
def test_every_constructor_elaborates(text, size):
    structure = elaborate_text(text)
    assert structure.size == size


def test_identical_descriptors_mean_identical_structures():
    for text in ("T(2, Z(4))", "locmod(regular(Z(12)), {2})",
                 "quot(regular(Z(4)), cyclic(regular(Z(4)), 2))"):
        first = elaborate_text(text)
        second = elaborate_text(first.descriptor)
        assert first.descriptor == second.descriptor
        assert first.size == second.size
        if hasattr(first, "act"):
            assert all(first.act(r, m) == second.act(r, m)
                       for r in range(first.ring.size)
                       for m in range(first.size))
        else:
            assert all(first.mul(a, b) == second.mul(a, b)
                       for a in range(first.size) for b in range(first.size))


def test_localized_descriptor_canonicalizes_to_closure():
    lm = elaborate_text("locmod(regular(Z(12)), {2})")
    assert lm.descriptor == "locmod(regular(Z(12)), {1, 2, 4, 8})"
    again = elaborate_text(lm.descriptor)
    assert again.descriptor == lm.descriptor


def test_quot_validates_submodule_relationship():
    with pytest.raises(InvalidParameterError):
        elaborate_text("quot(regular(Z(4)), cyclic(regular(Z(6)), 2))")
    with pytest.raises(InvalidParameterError):
        elaborate_text("quot(regular(Z(4)), regular(Z(4)))")


def test_cyclic_element_out_of_range():
    with pytest.raises(InvalidParameterError):
        elaborate_text("cyclic(regular(Z(4)), 9)")


def test_hom_nodes():
    h = elaborate_text("zred(8, 4)")
    assert h.surjective and h.descriptor == "zred(8, 4)"
    ident = elaborate_text("idhom(Z(3))")
    assert ident.map == (0, 1, 2)
