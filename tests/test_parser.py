"""Parser shapes: sugar removal, precedence, error texts and lines.

The shape invariants matter most here: method definitions become plain
function assignments with a leading self parameter, and a colon call
is one named CallExpr whose callee is the receiver, written once.
"""

import pytest

from bridgescript import nodes as N
from bridgescript.errors import ParseError
from bridgescript.parser import parse_source


def _slot_names(obj):
    names = []
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    return [n for n in names if n not in ("line", "_code")]


def struct_eq(a, b):
    """Structural equality ignoring line numbers."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (str, float, bool, int)) or a is None:
        return a == b
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            struct_eq(x, y) for x, y in zip(a, b))
    return all(
        struct_eq(getattr(a, n), getattr(b, n)) for n in _slot_names(a))


def walk(node):
    yield node
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from walk(item)
        return
    if not hasattr(node, "__slots__") and not isinstance(node, (N.Chunk,)):
        return
    for name in _slot_names(node):
        child = getattr(node, name)
        if isinstance(child, (N.Node, N.Block, N.Chunk, list, tuple)):
            yield from walk(child)


# ------------------------------------------------------------------ shapes

def test_table_constructor_assignment():
    (stmt,) = parse_source("point = {x=0, y=0}").statements
    assert isinstance(stmt, N.AssignName) and stmt.name == "point"
    ctor = stmt.expr
    assert isinstance(ctor, N.TableCtor)
    assert [k for k, _ in ctor.fields] == ["x", "y"]
    assert all(isinstance(e, N.NumberLit) and e.value == 0.0
               for _, e in ctor.fields)


def test_method_definition_desugars_to_field_assignment():
    src = "function point:move (dx,dy) self.x = self.x + dx end"
    (stmt,) = parse_source(src).statements
    assert isinstance(stmt, N.AssignIndex)
    assert isinstance(stmt.obj, N.VarExpr) and stmt.obj.name == "point"
    assert isinstance(stmt.key, N.StringLit) and stmt.key.value == "move"
    fn = stmt.expr
    assert isinstance(fn, N.FunctionExpr)
    assert fn.params == ["self", "dx", "dy"]


def test_plain_function_statement():
    (stmt,) = parse_source("function f(a) return a end").statements
    assert isinstance(stmt, N.AssignName) and stmt.name == "f"
    assert isinstance(stmt.expr, N.FunctionExpr)
    assert stmt.expr.params == ["a"]


def test_colon_call_is_one_named_call():
    (stmt,) = parse_source("p:move(2,3)").statements
    call = stmt.expr
    assert isinstance(call, N.CallExpr) and call.name == "move"
    assert isinstance(call.callee, N.VarExpr) and call.callee.name == "p"
    assert [a.value for a in call.args] == [2.0, 3.0]


def test_colon_call_complex_receiver_binds_once():
    (stmt,) = parse_source("t[1]:f(9)").statements
    call = stmt.expr
    assert isinstance(call, N.CallExpr) and call.name == "f"
    # the receiver expression appears exactly once, as the callee
    assert isinstance(call.callee, N.IndexExpr)
    assert [a.value for a in call.args] == [9.0]
    assert not any(isinstance(n, N.FunctionExpr) for n in walk(stmt))


def test_nested_colon_calls_are_named_calls():
    (stmt,) = parse_source("a:b(c:d())").statements
    outer = stmt.expr
    assert outer.name == "b" and outer.callee.name == "a"
    (inner,) = outer.args
    assert isinstance(inner, N.CallExpr) and inner.name == "d"
    assert inner.callee.name == "c" and inner.args == []


def test_colon_call_arguments_capture_nothing():
    assert parse_source("local x = 1 local t = {} t[1]:f(x)").captured \
        == set()


def test_index_sugar_equivalence():
    dot = parse_source("x = t.f").statements[0]
    bracket = parse_source('x = t["f"]').statements[0]
    assert struct_eq(dot, bracket)


# -------------------------------------------------------------- precedence

def test_precedence_by_parenthesised_form():
    """Each source parses as its fully parenthesised form does."""
    cases = {
        "x = 1 + 2 * 3 < 10": "x = ((1 + (2 * 3)) < 10)",
        "x = (1 + 2) * 3": "x = ((1 + 2) * 3)",
        "x = -2 * 2": "x = ((-2) * 2)",
        "x = 'a' .. 'b' .. 'c'": "x = ('a' .. ('b' .. 'c'))",
        "x = 1 .. 2 < 'b'": "x = ((1 .. 2) < 'b')",
        "x = a .. b + c": "x = (a .. (b + c))",
        "x = a + b .. c": "x = ((a + b) .. c)",
        "x = a < b .. c": "x = (a < (b .. c))",
        "x = a < b < c": "x = ((a < b) < c)",
        "x = 1 - 2 - 3": "x = ((1 - 2) - 3)",
        "x = 8 / 4 / 2": "x = ((8 / 4) / 2)",
        "x = - - 1": "x = (-(-1))",
    }
    for src, expected in cases.items():
        assert struct_eq(parse_source(src).block,
                         parse_source(expected).block), src
    # and the comparison tells the two associativities apart
    assert not struct_eq(parse_source("x = 1 - 2 - 3").block,
                         parse_source("x = 1 - (2 - 3)").block)


def test_number_literals_decode():
    stmts = parse_source("a = 2.5 b = 1e3 c = 0").statements
    assert [s.expr.value for s in stmts] == [2.5, 1000.0, 0.0]


def test_string_escapes_decode():
    (stmt,) = parse_source(r"x = 'a\nb\t\'c\\'").statements
    assert stmt.expr.value == "a\nb\t'c\\"


def test_for_defaults():
    (f,) = parse_source("for i = 1, 3 do end").statements
    assert isinstance(f, N.ForNum)
    assert f.step is None
    (g,) = parse_source("for i = 10, 1, -2 do end").statements
    assert g.step is not None


def test_statement_separators():
    assert len(parse_source("a = 1; b = 2").statements) == 2
    assert len(parse_source("a = 1\nb = 2").statements) == 2
    assert parse_source("").statements == []
    assert parse_source("-- just a comment\n").statements == []


# ------------------------------------------------------------------ errors

@pytest.mark.parametrize("src", [
    "while i < 10 do i = i + 1",   # missing end
    "if x then end",                # fine
])
def test_missing_end(src):
    if src.endswith("end"):
        parse_source(src)
    else:
        with pytest.raises(ParseError):
            parse_source(src)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as e:
        parse_source("a = 1\nb = ")
    assert e.value.line == 2


@pytest.mark.parametrize("src", [
    "1 = 2",
    "local 3",
    "x = ",
    "end",
    "function 1() end",
    "for i do end",
])
def test_rejected_forms(src):
    with pytest.raises(ParseError):
        parse_source(src)


@pytest.mark.parametrize("src, line, message", [
    ("while i < 10 do i = i + 1", 1, "expected 'end', found end of input"),
    ("a = 1\nb = ", 2, "expected an expression, found end of input"),
    ("x = 1 +\n\n", 1, "expected an expression, found end of input"),
    ("for i = 1 do end", 1, "expected ',', found 'do'"),
    ("if x then", 1,
     "expected 'else' or 'elseif' or 'end', found end of input"),
    ("if x then elseif y", 1, "expected 'then', found end of input"),
    ("x = f(1, 2", 1, "expected ')', found end of input"),
    ("x = t[1", 1, "expected ']', found end of input"),
    ("local", 1, "expected ident, found end of input"),
    ("function f(a,) end", 1, "expected ident, found ')'"),
    ("t = {a = 1", 1, "expected '}', found end of input"),
    ("t = {1}", 1, "expected ident, found '1'"),
    ("x = a:b", 1, "expected '(', found end of input"),
    ("return 1,", 1, "expected an expression, found end of input"),
    ("x = -", 1, "expected an expression, found end of input"),
    ("for i = 1, 2", 1, "expected 'do', found end of input"),
    ("a\nb = 3 )", 2, "expected '=', found 'b'"),
    # only a call is an expression statement
    ("x = 3x", 1, "expected '=', found end of input"),
    ("while i < 3 do\n  i i + 1\nend", 2, "expected '=', found 'i'"),
    ("x = 1\nt.y\n", 2, "expected '=', found end of input"),
    ("(f())", 1, "expected '=', found end of input"),
    ("x = not y", 1, "expected an expression, found 'not'"),
    ("1 = 2", 1, "expected an assignable target, found an expression"),
])
def test_parse_error_text_and_line(src, line, message):
    with pytest.raises(ParseError) as e:
        parse_source(src)
    assert str(e.value) == f"ParseError (line {line}): {message}"
    assert e.value.line == line


# ------------------------------------------------ return ends its block

@pytest.mark.parametrize("src, line, message", [
    ("return 1 print(2)", 1, "expected '<eof>', found 'print'"),
    ("return 0x10", 1, "expected '<eof>', found 'x10'"),
    ("return;;", 1, "expected '<eof>', found ';'"),
    ("function f()\n  return 1\n  x = 2\nend", 3,
     "expected 'end', found 'x'"),
    ("if a then\n  return 1\n  print(2)\nend", 3,
     "expected 'else' or 'elseif' or 'end', found 'print'"),
    ("function f() return 1", 1, "expected 'end', found end of input"),
])
def test_statement_after_return_is_rejected(src, line, message):
    with pytest.raises(ParseError) as e:
        parse_source(src)
    assert str(e.value) == f"ParseError (line {line}): {message}"
    assert e.value.line == line


@pytest.mark.parametrize("src, shape", [
    ("return;", "return"),
    ("return 1;", "return 1.0"),
    ("x = 1; return x;", "x = 1.0; return x"),
    ("function f() return; end", "f = function() return end"),
    ("if a then return 1; elseif b then return; else return 2; end",
     "if a then return 1.0 elseif b then return else return 2.0 end"),
])
def test_return_may_take_one_semicolon(src, shape):
    """Each source parses as its shape, with no semicolon after return."""
    assert struct_eq(parse_source(src).block, parse_source(shape).block)
