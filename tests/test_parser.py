"""Parser shapes: sugar removal, precedence, corpus round-trips.

The desugaring invariants matter most here: method definitions become
plain function assignments with a leading self parameter, colon calls
become indexed calls with the receiver reinserted, and no transient
colon node survives parsing.
"""

import pathlib

import pytest

from bridgescript import nodes as N
from bridgescript.errors import ParseError
from bridgescript.parser import parse_source

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMO_SOURCES = sorted(DEMO_DIR.glob("*.bs"))


def _slot_names(obj):
    names = []
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    return [n for n in names if n not in ("line", "_code")]


def struct_eq(a, b, renames=None):
    """Structural equality ignoring line numbers.  Generated __recv
    temporaries compare equal under a consistent renaming."""
    if renames is None:
        renames = {}
    if type(a) is not type(b):
        return False
    if isinstance(a, str):
        if a.startswith("__recv") and b.startswith("__recv"):
            if a in renames:
                return renames[a] == b
            renames[a] = b
            return True
        return a == b
    if isinstance(a, (float, bool, int)) or a is None:
        return a == b
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            struct_eq(x, y, renames) for x, y in zip(a, b))
    return all(
        struct_eq(getattr(a, n), getattr(b, n), renames)
        for n in _slot_names(a))


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


def test_colon_call_desugars_with_bare_receiver():
    (stmt,) = parse_source("p:move(2,3)").statements
    call = stmt.expr
    assert isinstance(call, N.CallExpr)
    assert isinstance(call.callee, N.IndexExpr)
    assert isinstance(call.callee.obj, N.VarExpr)
    assert call.callee.obj.name == "p"
    assert isinstance(call.callee.key, N.StringLit)
    assert call.callee.key.value == "move"
    # receiver reinserted as the first argument
    assert isinstance(call.args[0], N.VarExpr) and call.args[0].name == "p"
    assert len(call.args) == 3


def test_colon_call_complex_receiver_binds_once():
    (stmt,) = parse_source("t[1]:f(9)").statements
    outer = stmt.expr
    assert isinstance(outer, N.CallExpr)
    fn = outer.callee
    assert isinstance(fn, N.FunctionExpr)
    assert len(fn.params) == 1 and fn.params[0].startswith("__recv")
    # the receiver expression appears exactly once, as the argument
    assert len(outer.args) == 1
    assert isinstance(outer.args[0], N.IndexExpr)


def test_no_colon_node_survives():
    sources = [
        "p:f()",
        "t[1]:f(x)",
        "function t:m(a) return self end",
        "a:b(c:d())",
    ]
    for src in sources:
        for node in walk(parse_source(src).block):
            assert not isinstance(node, N.ColonCall)


def test_index_sugar_equivalence():
    dot = parse_source("x = t.f").statements[0]
    bracket = parse_source('x = t["f"]').statements[0]
    assert struct_eq(dot, bracket)


# -------------------------------------------------------------- precedence

def test_precedence_by_unparse():
    cases = {
        "x = 1 + 2 * 3 < 10": "x = ((1.0 + (2.0 * 3.0)) < 10.0)",
        "x = (1 + 2) * 3": "x = ((1.0 + 2.0) * 3.0)",
        "x = -2 * 2": "x = ((-2.0) * 2.0)",
        "x = 'a' .. 'b' .. 'c'": 'x = ("a" .. ("b" .. "c"))',
        "x = 1 .. 2 < 'b'": 'x = ((1.0 .. 2.0) < "b")',
        "x = a .. b + c": "x = (a .. (b + c))",
        "x = a + b .. c": "x = ((a + b) .. c)",
        "x = a < b .. c": "x = (a < (b .. c))",
        "x = a < b < c": "x = ((a < b) < c)",
        "x = 1 - 2 - 3": "x = ((1.0 - 2.0) - 3.0)",
        "x = 8 / 4 / 2": "x = ((8.0 / 4.0) / 2.0)",
        "x = - - 1": "x = (-(-1.0))",
    }
    for src, expected in cases.items():
        assert parse_source(src).unparse() == expected


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


# ------------------------------------------------------------- round-trips

@pytest.mark.parametrize("path", DEMO_SOURCES, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    """unparse then reparse must reproduce the structure exactly."""
    first = parse_source(path.read_text(encoding="utf-8"))
    second = parse_source(first.unparse())
    assert struct_eq(first.block, second.block)


def test_round_trip_synthetic():
    sources = [
        "t[1]:f(9)",
        r"x = 'a\nb'",
        "if a < 1 then b = 1 elseif a < 2 then b = 2 else b = 3 end",
        "while i < 10 do i = i + 1 end",
        "for i = 1, 10, 2 do t[i] = i * i end",
        "local f = function(a, b) return a .. b end",
        "return 1, x, {a = 1}",
    ]
    for src in sources:
        first = parse_source(src)
        second = parse_source(first.unparse())
        assert struct_eq(first.block, second.block), src


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
    ("a\nb = 3 )", 2, "expected an expression, found ')'"),
    ("x = not y", 1, "expected an expression, found 'not'"),
    ("1 = 2", 1, "expected an assignable target, found an expression"),
])
def test_parse_error_text_and_line(src, line, message):
    with pytest.raises(ParseError) as e:
        parse_source(src)
    assert str(e.value) == f"ParseError (line {line}): {message}"
    assert e.value.line == line
